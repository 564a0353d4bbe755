"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speed
import worker
from summary import SKIPPED, EventBudget, Outcomes, percentile
from tracing import Ledger
from workloads import CREATE, READ, RING_SIZE, WORKLOADS, WRITE, apportion, make_plan

HERE = Path(__file__).resolve().parent


# -- percentiles --------------------------------------------------------------


def test_tail_with_ten_samples_beyond_is_trusted():
    pct = percentile([float(i) for i in range(100)], 90)
    assert (pct.value, pct.count, pct.beyond) == (89.0, 100, 10)
    assert pct.trusted


def test_tail_with_fewer_than_ten_samples_beyond_is_flagged():
    pct = percentile([float(i) for i in range(99)], 90)
    assert pct.beyond == 9
    assert not pct.trusted


def test_ties_at_the_percentile_do_not_count_as_beyond():
    pct = percentile([1.0] * 50 + [2.0] * 50, 50)
    assert (pct.value, pct.beyond) == (1.0, 50)
    assert percentile([3.0] * 200, 90).beyond == 0


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- event budget ----------------------------------------------------------------


def test_event_budget_admits_until_spent():
    budget = EventBudget(100)
    assert budget.admit(99) and budget.remaining(99) == 1
    assert not budget.admit(100) and budget.remaining(250) == 0
    assert EventBudget(None).admit(10**9) and EventBudget(None).remaining(5) is None


def test_skipped_operations_count_as_failures():
    outcomes = Outcomes()
    outcomes.ok(CREATE)
    outcomes.fail(WRITE, SKIPPED)
    outcomes.fail(READ, SKIPPED)
    assert outcomes.total() == 3
    assert outcomes.failures() == 2
    assert outcomes.failures(WRITE) == 1 and outcomes.failures(CREATE) == 0
    assert Outcomes.from_json(json.loads(json.dumps(outcomes.to_json()))) == outcomes


def test_worker_turns_operations_past_the_budget_into_failures(monkeypatch, capsys):
    small = dataclasses.replace(WORKLOADS["faults-lossy"], event_budget=3_000)
    monkeypatch.setitem(worker.WORKLOADS, small.name, small)
    assert worker.main(["--workload", small.name, "--seed", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    outcomes = Outcomes.from_json(result["outcomes"])
    assert outcomes.total() == small.operations
    skipped = sum(outcomes.failed[kind][SKIPPED] for kind in outcomes.failed)
    assert skipped > 0
    issued = sum(len(v) for v in result["latency_ms"].values())
    assert issued + skipped == small.operations
    assert outcomes.failures() >= skipped
    # the budget binds between operations, so the overshoot is one op's worth
    assert result["deterministic"]["kernel.events"] >= small.event_budget
    assert not result["errors"]


# -- input generation --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_one_seed(name):
    assert make_plan(WORKLOADS[name], 7) == make_plan(WORKLOADS[name], 7)


def test_inputs_differ_across_seeds():
    zipf = WORKLOADS["read-zipf-648"]
    a, b = make_plan(zipf, 0), make_plan(zipf, 1)
    assert [op.obj for op in a.ops] != [op.obj for op in b.ops]
    assert [op.payload for op in a.ops] != [op.payload for op in b.ops]
    assert a.homes != b.homes
    assert a.client_seeds != b.client_seeds
    lossy = WORKLOADS["faults-lossy"]
    assert len({make_plan(lossy, seed).victim for seed in range(10)}) > 1


def test_rounds_of_one_run_draw_their_own_inputs():
    crash = WORKLOADS["crash-recovery"]
    assert make_plan(crash, 4, 2) == make_plan(crash, 4, 2)
    plans = [make_plan(crash, 4, part) for part in range(6)]
    assert len({plan.ops for plan in plans}) == 6
    assert len({plan.client_seeds for plan in plans}) == 6
    assert len({plan.victim for plan in plans}) > 1


def test_zipf_profile_is_exact_for_every_seed():
    zipf = WORKLOADS["read-zipf-648"]
    weights = [1.0 / rank**zipf.zipf_s for rank in range(1, zipf.objects + 1)]
    for kind, total in ((WRITE, zipf.writes), (READ, zipf.reads)):
        expected = sorted(apportion(weights, total), reverse=True)
        for seed in (0, 1):
            per_object = [0] * zipf.objects
            for op in make_plan(zipf, seed).ops:
                per_object[op.obj] += op.kind == kind
            assert sorted(per_object, reverse=True) == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_shape(name):
    workload = WORKLOADS[name]
    plan = make_plan(workload, 3)
    assert len(plan.ops) == workload.operations
    created: set[int] = set()
    for op in plan.ops:
        if op.kind == CREATE:
            created.add(op.obj)
        else:
            assert op.obj in created
    assert len(created) == workload.objects
    assert len(set(plan.homes)) == workload.clients
    if workload.faults:
        assert all(op.kind != CREATE for op in plan.ops[plan.crash_at :])
        assert plan.victim >= RING_SIZE and plan.victim not in plan.homes
    else:
        assert plan.crash_at is None and plan.victim is None


def test_payloads_are_distinct():
    payloads = [op.payload for op in make_plan(WORKLOADS["write-uniform"], 0).ops if op.payload]
    assert len(payloads) == len(set(payloads)) == WORKLOADS["write-uniform"].writes


# -- spans --------------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    ledger = Ledger()
    inner = ledger.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()
        time.sleep(0.01)

    outer = ledger.wrap("outer", outer_body)
    outer()
    assert ledger.calls == {"inner": 2, "outer": 1}
    assert ledger.total_s["outer"] >= ledger.total_s["inner"] + 0.01
    assert ledger.self_s["outer"] == pytest.approx(
        ledger.total_s["outer"] - ledger.total_s["inner"], abs=1e-6
    )
    assert list(ledger.span_parent) == [-1, 0, 0]


def test_recursive_span_counts_its_time_once():
    ledger = Ledger()

    def countdown(n):
        time.sleep(0.005)
        return n and wrapped(n - 1)

    wrapped = ledger.wrap("countdown", countdown)
    wrapped(3)
    assert ledger.calls["countdown"] == 4
    assert ledger.total_s["countdown"] == pytest.approx(ledger.self_s["countdown"], abs=1e-6)


def _small_round(*flags: str) -> dict:
    """One round of a shrunk write-uniform, in its own interpreter."""
    code = (
        "import dataclasses, sys; import worker; "
        "w = dataclasses.replace(worker.WORKLOADS['write-uniform'], objects=10, writes=20, reads=10); "
        "worker.WORKLOADS[w.name] = w; "
        f"sys.exit(worker.main(['--workload', w.name, '--seed', '3', *{list(flags)!r}]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_rounds_repeat_and_match_the_untraced_round():
    plain, first, second = _small_round(), _small_round("--trace"), _small_round("--trace")
    assert plain["deterministic"] == first["deterministic"] == second["deterministic"]
    deterministic = (
        "data.blocks_max",
        "archival.bytes_per_user_byte",
        "consistency.commit_sim_ms.p50",
        "consistency.commit_sim_ms.p90",
        "read.sim_ms.p50",
        "kernel.events",
        "network.messages",
        "crypto.sign_calls",
        "routing.converge_calls",
    )
    for name in deterministic:
        assert first["layers"][name] == second["layers"][name], name
    layers = first["layers"]
    assert layers["network.send_calls"] == layers["network.messages"] > 0
    assert layers["consistency.submit_calls"] == 20
    assert set(layers) | {"trace.overhead_frac"} == {
        m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    }


# -- host-speed scaling ------------------------------------------------------------


def test_each_operation_is_scaled_by_the_chunks_around_it():
    # a chunk before every operation; the host halves its speed at op 10
    samples = [speed.REFERENCE_MS] * 10 + [2 * speed.REFERENCE_MS] * 10
    factors = speed.scale_each(samples, list(range(20)), 20)
    assert factors[:5] == [1.0] * 5
    assert factors[-5:] == [0.5] * 5
    assert all(0.5 <= f <= 1.0 for f in factors)


def test_operations_past_the_last_chunk_use_the_last_chunks():
    factors = speed.scale_each([speed.REFERENCE_MS, 4 * speed.REFERENCE_MS], [0, 30], 40)
    assert factors[0] == pytest.approx(2 / 5)
    assert factors[39] == pytest.approx(2 / 5)


def test_sampler_times_chunks_while_running_and_then_stops():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler(interval=0.02)
    sampler.start()
    busy_until = time.perf_counter() + 0.3
    while time.perf_counter() < busy_until:
        pass
    sampler.stop()
    taken = len(sampler.samples)
    assert taken >= 3
    assert sampler.spent_s == pytest.approx(sum(sampler.samples) / 1e3, rel=0.5)
    time.sleep(0.1)
    assert len(sampler.samples) == taken
    assert signal.getsignal(signal.SIGALRM) is previous


def test_reference_chunk_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert speed.time_chunk() > 0 and gc.isenabled()
    gc.disable()
    try:
        speed.time_chunk()
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- command line ----------------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "write-uniform", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
