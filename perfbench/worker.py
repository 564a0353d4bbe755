"""One benchmark round, in the fresh interpreter it runs in.

    python3 perfbench/worker.py --workload NAME --seed N [--part K]
                                [--trace] [--spans PATH] [--setup-only]

Imports ``repro`` from the checkout's ``src/``, builds the workload's
deployment and clients, then drives the seeded operation sequence in a
closed loop: one operation outstanding, the clients taking turns.  Every
read is checked against the round's own record of what was written.
Every ``PROBE_INTERVAL_S`` of the timed phase, between two operations,
the round times a reference chunk of work (``speed.py``); each
operation's wall time is reported scaled to nominal host speed by the
chunks timed around it.
The last stdout line is one JSON object for ``run.py`` to aggregate;
``ready_monotonic`` marks the end of set-up on the system-wide monotonic
clock, so the parent can time set-up from before this interpreter
started; reference chunks timed just before, during and just after
set-up give its host speed.

With ``--trace`` the round first wraps each layer's entry points (see
``tracing.py``) and reports the per-layer ledger as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from summary import (  # noqa: E402
    SIMULATION_ERROR,
    SKIPPED,
    UNCOMMITTED,
    UNKNOWN_OBJECT,
    EventBudget,
    Outcomes,
    percentile,
)
from workloads import CREATE, READ, WORKLOADS, WRITE, make_plan  # noqa: E402

import speed  # noqa: E402


#: The deployment itself -- topology, server keys, replica placement and the
#: simulator's internal random streams -- is the same in every round; the
#: workload seed varies only the inputs the clients feed it (see
#: ``workloads.py``), so across-seed spread measures the system on
#: different inputs rather than on different deployments.
DEPLOYMENT_SEED = 0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0, help="which round of the run this is")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here (gzip'd TSV)")
    parser.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    plan = make_plan(workload, args.seed, args.part)

    # Host speed just before, during and just after set-up; run.py takes
    # the probing out of the set-up time.  Traced rounds, whose set-up is
    # not reported, keep the sampler's chunks out of their spans.
    probe_started = time.monotonic()
    setup_probe_ms = speed.probe(speed.SETUP_PROBES)
    setup_probe_s = time.monotonic() - probe_started
    sampler = speed.Sampler()
    if not args.trace:
        sampler.start()

    import_started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401

    import_s = time.perf_counter() - import_started

    from repro import DeploymentConfig, OceanStoreSystem, make_client
    from repro.api import ApiEvent, UnknownObject
    from repro.core import ChaosConfig, RecoveryConfig, RetryPolicy
    from repro.sim import LinkFaultRule, SimulationError, TopologyParams
    from repro.telemetry import TelemetryConfig

    ledger = None
    if args.trace:
        import tracing

        ledger = tracing.Ledger()
        tracing.install(ledger)

    transit, stubs, per_stub = workload.topology
    config = DeploymentConfig(
        seed=DEPLOYMENT_SEED,
        topology=TopologyParams(
            transit_nodes=transit, stubs_per_transit=stubs, nodes_per_stub=per_stub
        ),
    )
    retry = None
    if workload.faults:
        config.chaos = ChaosConfig(enabled=True)
        config.recovery = RecoveryConfig(
            enabled=True,
            heartbeat_interval_ms=2_000.0,
            heartbeat_timeout_ms=1_500.0,
            suspicion_threshold=2,
            refresh_interval_ms=20_000.0,
        )
        # metrics, spans, flight recorder and SLO on; profiler off
        config.telemetry = TelemetryConfig(enabled=True)
        retry = RetryPolicy(
            deadline_ms=30_000.0, max_attempts=3, backoff_base_ms=1_000.0, seed=plan.retry_seed
        )
    system = OceanStoreSystem(config)
    if any(system.graph.nodes[home]["kind"] != "stub" for home in plan.homes):
        raise RuntimeError(f"client homes {plan.homes} are not all stub nodes")
    if plan.victim is not None and plan.victim in system.ring_nodes:
        raise RuntimeError(f"crash victim {plan.victim} is an inner-ring member")
    clients = [
        make_client(system, f"client-{i}", home_node=home, seed=client_seed, retry=retry)
        for i, (home, client_seed) in enumerate(zip(plan.homes, plan.client_seeds))
    ]
    ready_monotonic = time.monotonic()
    sampler.stop()
    setup_probe_ms += sampler.samples + speed.probe(speed.SETUP_PROBES)
    setup = {
        "ready_monotonic": ready_monotonic,
        "setup_probe_s": setup_probe_s + sampler.spent_s,
        "setup_probe_ms": setup_probe_ms,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    kernel = system.kernel
    network = system.network
    commits = 0
    commit_sim_ms: list[float] = []
    submitted_at: dict[bytes, float] = {}

    def on_commit(note) -> None:
        nonlocal commits
        commits += 1
        started = submitted_at.pop(note.update_id, None)
        if started is not None:
            commit_sim_ms.append(kernel.now - started)

    system.callbacks().register(ApiEvent.UPDATE_COMMITTED, on_commit)

    locate_hops: list[int] = []
    locate_probabilistic = 0
    archived_bytes = 0
    if ledger is not None:

        def on_submit(call_args, _result) -> None:
            submitted_at[call_args[2].update_id] = kernel.now

        def on_locate(_call_args, result) -> None:
            nonlocal locate_probabilistic
            locate_hops.append(result.hops)
            locate_probabilistic += result.tier.value == "probabilistic"

        def on_encode(call_args, _result) -> None:
            nonlocal archived_bytes
            archived_bytes += len(call_args[0])

        ledger.observers["consistency.submit_update"] = on_submit
        ledger.observers["routing.locate"] = on_locate
        ledger.observers["archival.encode_archival"] = on_encode

    if workload.link_drop:
        system.net_faults.add_rule(LinkFaultRule(drop=workload.link_drop))

    budget = EventBudget(workload.event_budget)
    outcomes = Outcomes()
    wall_ms: list[tuple[int, str, float]] = []  # (op index, kind, wall ms)
    probe_ms: list[float] = []
    probe_before: list[int] = []
    last_probe = float("-inf")
    handles: list = [None] * workload.objects
    committed: dict[int, bytes] = {}
    written: dict[int, set[bytes]] = {}
    read_sim_ms: list[float] = []
    stale_reads = 0
    errors: list[str] = []
    user_bytes = 0
    max_pending = 0
    clock = time.perf_counter
    events_at_start = kernel.events_executed

    phase_started = clock()
    for index, op in enumerate(plan.ops):
        if index == plan.crash_at:
            system.injector.crash(plan.victim)
        if clock() - last_probe >= speed.PROBE_INTERVAL_S:
            probe_ms.append(speed.time_chunk())
            probe_before.append(index)
            last_probe = clock()
        used = kernel.events_executed - events_at_start
        if not budget.admit(used):
            outcomes.fail(op.kind, SKIPPED)
            continue
        kernel.step_cap = budget.remaining(used)
        client = clients[op.client]
        handle = handles[op.obj]
        failure = None
        data = None
        sim_started = kernel.now
        started = clock()
        try:
            if op.kind == CREATE:
                handles[op.obj] = client.create_object(f"object-{op.obj}")
            elif op.kind == WRITE:
                user_bytes += len(op.payload)
                written.setdefault(op.obj, set()).add(op.payload)
                if client.write(handle, op.payload).committed:
                    committed[op.obj] = op.payload
                else:
                    failure = UNCOMMITTED
            else:
                data = client.read(handle)
        except UnknownObject:
            failure = UNKNOWN_OBJECT
        except SimulationError:
            failure = SIMULATION_ERROR
        wall_ms.append((index, op.kind, (clock() - started) * 1e3))
        if failure is not None:
            outcomes.fail(op.kind, failure)
        else:
            outcomes.ok(op.kind)
        if data is not None:
            read_sim_ms.append(kernel.now - sim_started)
            latest = committed.get(op.obj, b"")
            if data != latest:
                if data == b"" or data in written.get(op.obj, ()):
                    stale_reads += 1
                    if not workload.faults:
                        errors.append(f"op {index}: stale read of object {op.obj}")
                else:
                    errors.append(f"op {index}: read of object {op.obj} returned bytes never written")
        if ledger is not None:
            max_pending = max(max_pending, kernel.pending)
    probe_ms.append(speed.time_chunk())
    probe_before.append(len(plan.ops))
    wall_phase_s = clock() - phase_started
    kernel.step_cap = None

    # Each operation's wall time at nominal host speed (see speed.py); the
    # phase time is the sum over the operations, without the probes.
    factors = speed.scale_each(probe_ms, probe_before, len(plan.ops))
    latency_ms: dict[str, list[float]] = {CREATE: [], WRITE: [], READ: []}
    for index, kind, ms in wall_ms:
        latency_ms[kind].append(ms * factors[index])
    phase_s = sum(sum(values) for values in latency_ms.values()) / 1e3

    writes_per_object = Counter(op.obj for op in plan.ops if op.kind == WRITE)
    hot = min(writes_per_object, key=lambda obj: (-writes_per_object[obj], obj))
    hot_state = system.read_state(
        handles[hot].guid, allow_tentative=False, min_version=0, client_node=clients[0].home_node
    )
    reads_ok = outcomes.attempted[READ] - outcomes.failures(READ)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "part": args.part,
        "traced": ledger is not None,
        **setup,
        "import_s": import_s,
        "phase_s": phase_s,
        "wall_phase_s": wall_phase_s,
        "host_scale": speed.scale(probe_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_ms": latency_ms,
        "outcomes": outcomes.to_json(),
        "errors": errors,
        # identical in a traced and an untraced round of one seed
        "deterministic": {
            "kernel.events": kernel.events_executed,
            "network.messages": network.stats_total_messages,
            "network.bytes": network.stats_total_bytes,
            "commits": commits,
            "data.blocks_max": len(hot_state.data.blocks),
            "read.sim_ms.p50": percentile(read_sim_ms, 50).value if read_sim_ms else 0.0,
            "read.stale": stale_reads,
        },
    }
    if ledger is not None:
        result["layers"] = layer_metrics(
            ledger,
            system,
            deterministic=result["deterministic"],
            import_s=import_s,
            commits=commits,
            commit_sim_ms=commit_sim_ms,
            locate_hops=locate_hops,
            locate_probabilistic=locate_probabilistic,
            archived_bytes=archived_bytes,
            user_bytes=user_bytes,
            max_pending=max_pending,
            stale_frac=stale_reads / reads_ok if reads_ok else 0.0,
            outcomes=outcomes,
        )
        if args.spans:
            result["spans_written"] = ledger.dump(args.spans)
    print(json.dumps(result))
    return 0


def layer_metrics(ledger, system, **seen) -> dict[str, float]:
    """The per-layer ledger of one traced round, by metric name."""
    calls, total, self_s = ledger.calls, ledger.total_s, ledger.self_s
    network = system.network
    traffic = network.phase_report()
    by_subsystem = {
        subsystem: sum(p["messages"] for p in phases.values())
        for subsystem, phases in traffic.items()
    }
    pbft_bytes = sum(p["bytes"] for p in traffic.get("pbft", {}).values())
    commits = seen["commits"]
    outcomes = seen["outcomes"]
    metrics_registry = getattr(system.telemetry, "metrics", None)

    def rung(name: str, result: str) -> float:
        if metrics_registry is None:
            return 0
        return metrics_registry.counter_value(
            "degraded_read_rungs_total", rung=name, result=result
        )

    def per_commit(value: float) -> float:
        return value / commits if commits else 0.0

    def p(values: list[float], q: float) -> float:
        return percentile(values, q).value if values else 0.0

    detector = system.recovery.detector if system.recovery is not None else None
    run_s = total["kernel.run"]
    known = ("pbft", "dissemination", "recovery")
    return {
        "import.repro_s": seen["import_s"],
        "build.total_s": total["build.total"],
        "build.topology_s": total["build.topology"],
        "build.keygen_s": total["build.keygen"],
        "build.keygen_calls": calls["build.keygen"],
        "build.plaxton_s": total["build.plaxton"],
        "network.dijkstra_runs": calls["network.dijkstra"],
        "network.dijkstra_s": total["network.dijkstra"],
        "routing.converge_calls": calls["routing.converge"],
        "routing.converge_s": total["routing.converge"],
        "routing.refresh_rounds": calls["routing.refresh"],
        "routing.locate_calls": calls["routing.locate"],
        "routing.locate_s": total["routing.locate"],
        "routing.probabilistic_hit_frac": (
            seen["locate_probabilistic"] / calls["routing.locate"]
            if calls["routing.locate"]
            else 0.0
        ),
        "routing.locate_hops.p50": p(seen["locate_hops"], 50),
        "data.update_build_s": total["data.update_build"],
        "crypto.sign_calls": calls["crypto.sign"],
        "crypto.sign_s": total["crypto.sign"],
        "crypto.verify_calls": calls["crypto.verify"],
        "crypto.verify_s": total["crypto.verify"],
        "api.decode_s": total["api.decode"],
        "consistency.submit_calls": calls["consistency.submit"],
        "consistency.commits_per_submit": (
            commits / calls["consistency.submit"] if calls["consistency.submit"] else 0.0
        ),
        "consistency.pbft_msgs_per_commit": per_commit(by_subsystem.get("pbft", 0)),
        "consistency.pbft_bytes_per_commit": per_commit(pbft_bytes),
        "consistency.dissemination_msgs_per_commit": per_commit(by_subsystem.get("dissemination", 0)),
        "consistency.view": max(r.view for r in system.ring.replicas),
        "consistency.commit_sim_ms.p50": p(seen["commit_sim_ms"], 50),
        "consistency.commit_sim_ms.p90": p(seen["commit_sim_ms"], 90),
        "archival.archive_calls": calls["archival.archive"],
        "archival.archive_s": total["archival.archive"],
        "archival.encode_s": total["archival.encode"],
        "archival.bytes_per_user_byte": (
            seen["archived_bytes"] / seen["user_bytes"] if seen["user_bytes"] else 0.0
        ),
        "data.blocks_max": seen["deterministic"]["data.blocks_max"],
        "kernel.events": system.kernel.events_executed,
        "kernel.run_self_s": self_s["kernel.run"],
        "kernel.events_per_s": system.kernel.events_executed / run_s if run_s else 0.0,
        "kernel.max_pending": seen["max_pending"],
        "network.messages": network.stats_total_messages,
        "network.bytes": network.stats_total_bytes,
        "network.dropped": network.stats_dropped,
        "network.send_calls": calls["network.send"],
        "network.send_s": total["network.send"],
        "network.msgs.pbft": by_subsystem.get("pbft", 0),
        "network.msgs.dissemination": by_subsystem.get("dissemination", 0),
        "network.msgs.recovery": by_subsystem.get("recovery", 0),
        "network.msgs.other": sum(v for k, v in by_subsystem.items() if k not in known),
        "recovery.suspicions": (
            sum(1 for _, kind, _ in detector.timeline if kind == "suspect") if detector else 0
        ),
        "recovery.read_degraded_calls": calls["recovery.read_degraded"],
        "recovery.read_degraded_s": total["recovery.read_degraded"],
        "recovery.rung.local.hit": rung("local", "hit"),
        "recovery.rung.salted-retry.hit": rung("salted-retry", "hit"),
        "recovery.rung.tentative.hit": rung("tentative", "hit"),
        "recovery.rung.archival.hit": rung("archival", "hit"),
        "recovery.rung.exhausted": rung("archival", "miss"),
        "read.stale_frac": seen["stale_frac"],
        "telemetry.flight_calls": calls["telemetry.flight"],
        "telemetry.flight_s": total["telemetry.flight"],
        "telemetry.metric_calls": calls["telemetry.metric"],
        "telemetry.metric_s": total["telemetry.metric"],
        "read.sim_ms.p50": seen["deterministic"]["read.sim_ms.p50"],
        "ops.skipped": sum(outcomes.failed[k][SKIPPED] for k in outcomes.failed),
        "ops.failed.create": outcomes.failures(CREATE),
        "ops.failed.write": outcomes.failures(WRITE),
        "ops.failed.read": outcomes.failures(READ),
        "failed_ops_frac": outcomes.failures() / outcomes.total(),
    }


if __name__ == "__main__":
    sys.exit(main())
