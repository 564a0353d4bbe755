"""End-to-end benchmark of OceanStore's create, write and read paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs in a fresh interpreter (``worker.py``): import, build the
deployment, create the clients, then time the workload's seeded operation
sequence through the public client API.  With ``--trace 0`` the command
runs rounds 0, 1, ... of the seed (each with its own inputs drawn from
the seed, see ``workloads.make_plan``) -- as many as fit in
``--seconds`` at the workload's typical round time, and at least enough
to time ``MIN_OPS_PER_KIND`` operations of each type -- sets up a few
more times if it has fewer than ``MIN_SETUPS`` set-up samples, and
reports the end-to-end metrics over all of them.  With
``--trace 1`` it runs one untraced and one traced round 0 of the seed,
checks that both did identical simulated work, and reports the traced
round's per-layer ledger.  Spans go to
``perfbench/out/``.

The end-to-end times are wall times scaled to a nominal host speed by a
reference chunk of work timed next to them (``speed.py``); the per-layer
span times are raw wall times.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from summary import Outcomes, percentile
from workloads import CREATE, OP_KINDS, READ, WORKLOADS, WRITE

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"

#: set-up samples per run; set-up-only rounds top up runs with fewer rounds
MIN_SETUPS = 3
#: a run times at least this many operations of each type
MIN_OPS_PER_KIND = 100
#: a run stops adding rounds once the next would end past this many times --seconds
OVERRUN = 1.25
#: no single child may run longer than this (the whole command has 180 s)
CHILD_TIMEOUT_S = 170.0
#: counts a traced and an untraced round of one seed must agree on
INTEGRITY_KEYS = ("kernel.events", "network.messages", "network.bytes", "commits")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run ``worker.py`` in a fresh interpreter.

    Returns its set-up seconds -- from spawn to the clients being ready,
    at nominal host speed -- and its result.
    """
    command = [sys.executable, str(HERE / "worker.py"), *args]
    # a fixed hash seed, so every round lays out its dicts and sets alike
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    spawned = time.monotonic()
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - spawned))
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout, cwd=REPO, env=env
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"round timed out after {timeout:.0f}s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"round failed with exit code {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"round printed no result: {' '.join(args)}")
    result = json.loads(lines[-1])
    wall_s = result["ready_monotonic"] - spawned - result["setup_probe_s"]
    setup_s = wall_s * speed.scale(result["setup_probe_ms"])
    return setup_s, result


def round_args(workload: str, seed: int, part: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--part", str(part)]


def planned_rounds(workload: str, seconds: float) -> int:
    """Rounds a run of ``seconds`` holds; at least enough to time
    ``MIN_OPS_PER_KIND`` operations of each type."""
    spec = WORKLOADS[workload]
    needed = max(math.ceil(MIN_OPS_PER_KIND / n) for n in (spec.objects, spec.writes, spec.reads))
    return max(needed, round(seconds / spec.round_s))


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    """Rounds ``0, 1, ...`` of the seed, then the set-up-only rounds still
    needed for ``MIN_SETUPS`` set-up samples.

    The number of rounds follows from ``seconds`` alone, so a run's
    inputs are a function of its arguments; only a host slow enough to
    stretch the run past ``OVERRUN`` times ``seconds`` cuts it short.
    """
    planned = planned_rounds(workload, seconds)
    needed = planned_rounds(workload, 0)
    started = time.monotonic()
    rounds: list[dict] = []
    setups: list[float] = []
    while len(rounds) < planned:
        setup_s, result = spawn(round_args(workload, seed, len(rounds)), deadline)
        rounds.append(result)
        setups.append(setup_s)
        elapsed = time.monotonic() - started
        if len(rounds) >= needed and elapsed * (len(rounds) + 1) / len(rounds) > OVERRUN * seconds:
            break
    while len(setups) < MIN_SETUPS:
        setup_s, _ = spawn([*round_args(workload, seed, len(setups)), "--setup-only"], deadline)
        setups.append(setup_s)
    return summarize(rounds, setups), rounds


def summarize(rounds: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics over every round of a run (each with its count)."""
    latency = {kind: [v for r in rounds for v in r["latency_ms"][kind]] for kind in OP_KINDS}
    outcomes = [Outcomes.from_json(r["outcomes"]) for r in rounds]
    attempted = sum(o.total() for o in outcomes)
    failed = sum(o.failures() for o in outcomes)
    phase_s = sum(r["phase_s"] for r in rounds)
    metrics = {"setup_s": (statistics.median(setups), "s", len(setups))}
    for kind, name in ((CREATE, "create_ms"), (WRITE, "write_ms"), (READ, "read_ms")):
        for q in (50, 90):
            if latency[kind]:
                pct = percentile(latency[kind], q)
                note = "" if q == 50 or pct.trusted else f" (only {pct.beyond} beyond)"
                metrics[f"{name}.p{q}"] = (pct.value, "ms", f"{pct.count}{note}")
            else:
                metrics[f"{name}.p{q}"] = (0.0, "ms", "0")
    metrics["ops_per_s"] = ((attempted - failed) / phase_s, "1/s", attempted)
    metrics["ops_ok_frac"] = ((attempted - failed) / attempted, "frac", attempted)
    metrics["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in rounds), "MB", len(rounds))
    return metrics


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, list, list[str]]:
    """Per-layer metrics of one traced round, checked against an untraced one."""
    OUT.mkdir(exist_ok=True)
    base = round_args(workload, seed, 0)
    _, plain = spawn(base, deadline)
    spans = OUT / f"spans-{workload}-{seed}.tsv.gz"
    _, probe = spawn([*base, "--trace", "--spans", str(spans)], deadline)
    problems = []
    for key in INTEGRITY_KEYS:
        if plain["deterministic"][key] != probe["deterministic"][key]:
            problems.append(
                f"traced run changed {key}: {probe['deterministic'][key]} "
                f"vs {plain['deterministic'][key]} untraced"
            )
    layers = probe["layers"]
    if layers["network.send_calls"] != layers["network.messages"]:
        problems.append(
            f"Network.send wrapper saw {layers['network.send_calls']} calls but the "
            f"network counted {layers['network.messages']} messages"
        )
    layers["trace.overhead_frac"] = probe["phase_s"] / plain["phase_s"] - 1.0
    return layers, [plain, probe], problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {REPO / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            layers, rounds, problems = traced(args.workload, args.seed, deadline)
            metrics = {name: (value, UNITS.get(name, "count"), None) for name, value in layers.items()}
        else:
            metrics, rounds = end_to_end(args.workload, args.seed, args.seconds, deadline)
            problems = []
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in rounds:
        problems.extend(r["errors"])
    report(args.workload, metrics, rounds)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    outcomes = [Outcomes.from_json(r["outcomes"]) for r in rounds]
    result = {
        "correct": not problems,
        "attempted": sum(o.total() for o in outcomes),
        "failed": sum(o.failures() for o in outcomes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _count) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def report(workload: str, metrics: dict, rounds: list[dict]) -> None:
    print(f"workload {workload}: {len(rounds)} round(s)")
    budget = WORKLOADS[workload].event_budget
    if budget is not None:
        print(f"  timed phase budget: {budget} kernel events")
    for name, (value, unit, count) in metrics.items():
        samples = "" if count is None else f" n={count}"
        print(f"  {name:<44} {value:>14.6g} {unit:<6}{samples}")
    for i, r in enumerate(rounds):
        failed = Outcomes.from_json(r["outcomes"]).failed
        kinds = {k: {why: n for why, n in v.items() if n} for k, v in failed.items()}
        print(
            f"  round {i}: wall phase {r['wall_phase_s']:.3f}s, host scale "
            f"{r['host_scale']:.3f}, failures {kinds} deterministic {r['deterministic']}"
        )


#: units of the per-layer metrics
UNITS = {
    name: unit
    for unit, names in {
        "s": (
            "import.repro_s build.total_s build.topology_s build.keygen_s build.plaxton_s "
            "network.dijkstra_s routing.converge_s routing.locate_s data.update_build_s "
            "crypto.sign_s crypto.verify_s api.decode_s archival.archive_s archival.encode_s "
            "kernel.run_self_s network.send_s recovery.read_degraded_s telemetry.flight_s "
            "telemetry.metric_s"
        ),
        "ms": "consistency.commit_sim_ms.p50 consistency.commit_sim_ms.p90 read.sim_ms.p50",
        "frac": (
            "routing.probabilistic_hit_frac read.stale_frac failed_ops_frac trace.overhead_frac"
        ),
        "hops": "routing.locate_hops.p50",
        "1/s": "kernel.events_per_s",
        "B": "network.bytes consistency.pbft_bytes_per_commit",
        "ratio": (
            "consistency.commits_per_submit consistency.pbft_msgs_per_commit "
            "consistency.dissemination_msgs_per_commit archival.bytes_per_user_byte"
        ),
    }.items()
    for name in names.split()
}


if __name__ == "__main__":
    sys.exit(main())
