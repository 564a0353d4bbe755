"""Workload definitions and seeded input generation.

Every input a round feeds the system -- which object each operation
touches, in what order, from which client, with which payload, and which
server crashes -- is generated here from the workload seed alone.  The
system under test only ever sees these generated inputs.

Popularity is apportioned exactly rather than sampled: the seed decides
*which* objects are hot, the operation order and the payload bytes, but
every seed gets the same popularity profile.  Seeds therefore differ in
their inputs without differing in how much work they ask for, which keeps
the across-seed spread of the end-to-end metrics down to what the system
does with the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: inner-ring size at byzantine_m=1 (3m+1); ring members never crash
RING_SIZE = 4

CREATE, WRITE, READ = "create", "write", "read"
OP_KINDS = (CREATE, WRITE, READ)


@dataclass(frozen=True)
class Workload:
    name: str
    #: why the workload exists: which layers it is there to stress
    why: str
    #: transit-stub topology: (transit nodes, stubs per transit, nodes per stub)
    topology: tuple[int, int, int]
    objects: int
    writes: int
    reads: int
    clients: int
    #: Zipf exponent of object popularity; None spreads ops uniformly
    zipf_s: float | None = None
    #: recovery + telemetry on, one crash a quarter in, RetryPolicy reads
    faults: bool = False
    #: per-link message drop probability during the timed phase
    link_drop: float = 0.0
    #: share of the operation stream the creates are spread over; with
    #: ``faults`` the crash follows the last create
    create_span: float = 0.5
    #: kernel events the timed phase may execute before the remaining
    #: operations are skipped (and counted as failed); None = unbounded
    event_budget: int | None = None
    #: typical wall seconds of one round, set-up included: a run of S
    #: seconds holds about S / round_s rounds
    round_s: float = 10.0

    @property
    def nodes(self) -> int:
        transit, stubs, per_stub = self.topology
        return transit + transit * stubs * per_stub

    @property
    def operations(self) -> int:
        return self.objects + self.writes + self.reads


# The lossy workload's timed phase is budgeted in kernel events, not wall
# time, so that the set of operations issued -- and with it every failure
# count -- is a function of the seed alone.  The budget has to be an event
# count because the phase otherwise never ends in bounded time: probes of
# this deployment found that every seed tried (0-3) enters a PBFT
# view-change storm under 5% loss.  Views climbed to 595-958, 1.5M events
# ran in ~85 s and the write p95 reached 2.0-2.4 s; once a storm starts it
# persists after the loss is lifted (the view advances ~10 per write, every
# write fails, each costing more than the last).  The budget is sized so a
# round fits the benchmark's wall-time limits while the storm is well under
# way inside it: writes fail, the view climbs, and operations are skipped.
# Lowering the loss, dropping the crash, shortening the phase or picking
# seeds would hide the storm; none of that is done here.  Because the
# storm's onset differs from seed to seed, this workload's wall-time
# figures do too (write p90 and read p90 vary by several times across
# seeds), so it is not one of the workloads BENCHMARK.json gates on;
# crash-recovery carries its layers there, and this one stays runnable
# for its storm counts and per-layer ledger.
LOSSY_EVENT_BUDGET = 120_000

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="write-uniform",
            why=(
                "Normal writes on a small deployment: ~80% overwrites over "
                "100 objects whose histories stay short, so client crypto, "
                "PBFT, dissemination, archival encode and kernel work "
                "dominate and setup is mostly import."
            ),
            topology=(4, 2, 5),
            objects=100,
            writes=800,
            reads=200,
            clients=4,
            round_s=6.5,
        ),
        Workload(
            name="read-zipf-648",
            why=(
                "Skewed reads at 648 nodes: construction dominates setup, "
                "Bloom convergence dominates creates, locate and decrypt "
                "dominate reads, and hot objects' long write histories set "
                "the write tail."
            ),
            topology=(8, 8, 10),
            objects=100,
            writes=200,
            reads=1800,
            # One client in every stub domain.  A read's cost depends on
            # where its client sits (with eight clients, one client's reads
            # had twice the others' p50), so with a sample of the stubs
            # read_ms.p90 followed whether the sample held such a stub.
            clients=64,
            round_s=18.0,
            zipf_s=1.1,
        ),
        Workload(
            name="faults-lossy",
            why=(
                "The only workload where heartbeats, repair, the degraded "
                "read ladder and telemetry's per-message cost run: 5% link "
                "loss, one crash a quarter in, and a PBFT view-change storm "
                "bounded by a kernel-event budget."
            ),
            topology=(4, 2, 5),
            objects=100,
            writes=150,
            reads=150,
            clients=4,
            round_s=8.0,
            faults=True,
            link_drop=0.05,
            # all creates first, so the crash lands a quarter of the way in
            create_span=0.0,
            event_budget=LOSSY_EVENT_BUDGET,
        ),
        Workload(
            name="crash-recovery",
            why=(
                "faults-lossy without the link loss: heartbeats, failure "
                "detection and repair after one crash, RetryPolicy reads and "
                "telemetry on every message, with no view-change storm."
            ),
            topology=(4, 2, 5),
            # Each write settles through heartbeats and telemetry and costs
            # ~35x a write-uniform one, so a round holds only 40 writes and a
            # run pools three or more rounds -- and with them as many crash
            # victims.
            objects=100,
            writes=40,
            reads=240,
            clients=4,
            round_s=8.5,
            faults=True,
            # A few reads take the slow degraded path (ms rather than a tenth
            # of one), about one per 4-5 writes depending on the victim.  Out
            # of 80 reads a round that share straddled 10%, and read_ms.p90
            # jumped between the fast and the slow path from seed to seed.
            # Out of 240 (8-14 slow) it stays well under, so read_ms.p90 is
            # the ordinary RetryPolicy read of a recovering system, and the
            # slow path's cost shows in recovery.read_degraded_s.  Creates
            # keep the default spread over the first half (the crash follows
            # the last one): in one burst at the start, create_ms.p90
            # followed the host's speed in that second.
        ),
    )
}


@dataclass(frozen=True)
class Op:
    kind: str
    obj: int
    client: int
    payload: bytes = b""


@dataclass(frozen=True)
class Plan:
    """One round's inputs: the operation sequence and the fault schedule."""

    ops: tuple[Op, ...]
    #: each client's home node, one stub domain per client
    homes: tuple[int, ...]
    #: operation index before which the crash happens (None: no crash)
    crash_at: int | None
    #: the server that crashes: never an inner-ring member or a client's home
    victim: int | None
    #: seed of each client's key pair, and so of the GUIDs it mints
    client_seeds: tuple[int, ...]
    #: seed of the clients' RetryPolicy jitter
    retry_seed: int


def apportion(weights: list[float], total: int) -> list[int]:
    """Split ``total`` into integer counts proportional to ``weights``
    (largest remainder, ties to the lower index)."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - exact[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _payload(rng: random.Random, op_index: int) -> bytes:
    # The op-index prefix makes every payload distinct, so a read can tell
    # which write it is looking at.
    return f"op{op_index}:".encode() + rng.randbytes(rng.randrange(64, 513))


def make_plan(workload: Workload, seed: int, part: int = 0) -> Plan:
    """Generate the inputs of round ``part`` of a run from ``seed``.

    The same (seed, part) gives the same plan.  The rounds of one run
    differ in their inputs -- object placement, crash victim, operation
    order -- so a run's figures pool several draws of them rather than
    repeating one.
    """
    rng = random.Random(f"perfbench/{workload.name}/{seed}/{part}")
    n = workload.objects
    if workload.zipf_s is None:
        weights = [1.0] * n
    else:
        weights = [1.0 / (rank**workload.zipf_s) for rank in range(1, n + 1)]
    # Writes and reads are apportioned separately, so every seed gives each
    # popularity rank the same write history (write cost grows with it).
    writes = apportion(weights, workload.writes)
    reads = apportion(weights, workload.reads)
    by_rank = list(range(n))
    rng.shuffle(by_rank)  # which object holds each popularity rank
    per_object: list[list[str]] = [[] for _ in range(n)]
    for rank in range(n):
        per_object[by_rank[rank]] = [WRITE] * writes[rank] + [READ] * reads[rank]

    # Creates are spaced evenly over the first ``create_span`` of the
    # stream, so every operation type is sampled across the whole round
    # rather than in one burst.  Each object's writes and reads are
    # interleaved evenly, and its k-th operation falls at a random point
    # of the k-th of equal slices of the stream after its create: an
    # object's state at each read -- how many writes came before it, and
    # so how large it is -- is then nearly the same for every seed.
    total = workload.operations
    keyed: list[tuple[float, int, str]] = []  # (position, object, kind)
    for obj in range(n):
        created = obj * workload.create_span * total / n
        keyed.append((created, obj, CREATE))
        writes_here = per_object[obj].count(WRITE)
        reads_here = len(per_object[obj]) - writes_here
        kinds = sorted(
            [((i + 0.5) / writes_here, WRITE) for i in range(writes_here)]
            + [((i + 0.5) / reads_here, READ) for i in range(reads_here)]
        )
        for k, (_, kind) in enumerate(kinds):
            position = created + (total - created) * (k + rng.random()) / len(kinds)
            keyed.append((position, obj, kind))
    keyed.sort(key=lambda entry: entry[0])
    ops: list[Op] = []
    for index, (_, obj, kind) in enumerate(keyed):
        payload = _payload(rng, index) if kind == WRITE else b""
        ops.append(Op(kind, obj, index % workload.clients, payload))

    # Node ids follow the topology generator: transit routers first, then
    # each stub domain's nodes in turn; the ring sits on the first transit
    # routers.
    transit, stubs, per_stub = workload.topology
    domains = rng.sample(range(transit * stubs), workload.clients)
    homes = tuple(transit + d * per_stub + rng.randrange(per_stub) for d in domains)
    crash_at = victim = None
    if workload.faults:
        # A create that places a replica on a crashed node cannot publish
        # it, so the crash follows the last create.
        crash_at = max(i for i, op in enumerate(ops) if op.kind == CREATE) + 1
        victim = rng.choice([v for v in range(RING_SIZE, workload.nodes) if v not in homes])
    client_seeds = tuple(rng.getrandbits(32) for _ in homes)
    return Plan(tuple(ops), homes, crash_at, victim, client_seeds, rng.getrandbits(32))
