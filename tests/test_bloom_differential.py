"""Bloom-differential harness: incremental refresh vs full recompute.

``ProbabilisticLocator.refresh_round`` recomputes only advertisements
whose inputs changed (a local filter touched by ``add_object`` /
``remove_object``, or a neighbor's advertisement that changed last round;
every node when the set of down nodes changed) and re-delivers only
advertisements whose bits changed.  Its contract is *bit-exact
equivalence* with the full-recompute round it replaced, kept here as the
test-local reference :class:`FullRecomputeLocator`.

Hypothesis programs interleave content changes, crashes and revivals,
filter wipes, single rounds and full convergence on random graphs and on
the 4x2x5 transit-stub topology.  After every step the two locators must
agree on every advertisement's level bits, every received filter (keys,
their order and bits), ``stats_refresh_bytes``, the refresh telemetry
counters and query results.

Negative control: :class:`SkipDownFallback` is the incremental round
minus its liveness fallback; the same checks must catch it.
"""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.routing.bloom import AttenuatedBloomFilter
from repro.routing.probabilistic import ProbabilisticLocator
from repro.sim.kernel import Kernel
from repro.sim.network import Network, TopologyParams, build_transit_stub_topology
from repro.telemetry import Telemetry
from repro.util.ids import GUID

GUIDS = [GUID.hash_of(b"bloom-diff", bytes([i])) for i in range(6)]
REFRESH_COUNTERS = ("bloom_refresh_rounds_total", "bloom_refresh_bytes_total")


class FullRecomputeLocator(ProbabilisticLocator):
    """Reference: every node recomputes, every live edge gets a fresh copy."""

    def refresh_round(self) -> None:
        bytes_before = self.stats_refresh_bytes
        new_ads: dict = {}
        for node, state in self._nodes.items():
            neighbor_ads = [
                self._nodes[n].advertisement
                for n in self.network.neighbors(node)
                if not self.network.is_down(n)
            ]
            new_ads[node] = AttenuatedBloomFilter.from_local_and_neighbors(
                self.depth, self.width, self.hashes, state.local_filter, neighbor_ads
            )
        for node, ad in new_ads.items():
            self._nodes[node].advertisement = ad
            for neighbor in self.network.neighbors(node):
                if self.network.is_down(node) or self.network.is_down(neighbor):
                    continue
                self._nodes[neighbor].neighbor_filters[node] = ad.copy()
                self.stats_refresh_bytes += ad.size_bytes()
        tel = self.telemetry
        if tel.enabled:
            tel.count("bloom_refresh_rounds_total")
            tel.count(
                "bloom_refresh_bytes_total",
                self.stats_refresh_bytes - bytes_before,
            )


class SkipDownFallback(ProbabilisticLocator):
    """Mutant: a liveness change recounts live edges but marks nothing dirty."""

    def refresh_round(self) -> None:
        down = self.network.down_nodes()
        if down != self._down:
            self._down = down
            self._live_edges = sum(
                1
                for node, neighbors in self._adjacency.items()
                if node not in down
                for n in neighbors
                if n not in down
            )
        super().refresh_round()


# -- topologies ----------------------------------------------------------------


def _random_graph(n: int, p: float, seed: int) -> nx.Graph:
    """A connected graph: a random tree plus each other edge with chance p."""
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_node(0)
    for node in range(1, n):
        graph.add_edge(node, rng.randrange(node))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                graph.add_edge(a, b)
    for a, b in graph.edges():
        graph[a][b]["latency_ms"] = round(rng.uniform(1.0, 50.0), 3)
    return graph


_TRANSIT_STUB = build_transit_stub_topology(
    TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5),
    random.Random(0),
)

_graphs = st.one_of(
    st.builds(
        _random_graph,
        n=st.integers(min_value=1, max_value=12),
        p=st.sampled_from([0.0, 0.1, 0.3, 0.8]),
        seed=st.integers(min_value=0, max_value=2**16),
    ),
    st.just(_TRANSIT_STUB),
)
_params = st.tuples(
    st.integers(min_value=1, max_value=4),  # depth
    st.sampled_from([8, 64, 512]),  # width: tiny widths saturate and collide
    st.integers(min_value=1, max_value=4),  # hashes
)

# Every op is (kind, node index, GUID index); the node index is reduced
# mod the graph's size, and ops that need neither operand ignore them.
# Kinds are weighted by repetition toward content, liveness changes and
# rounds: a bug needs a change followed by rounds to show.
KINDS = (
    ["add", "remove", "down", "revive"] * 2
    + ["round"] * 3
    + ["wipe", "converge", "query"]
)
_op = st.tuples(
    st.sampled_from(KINDS),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=len(GUIDS) - 1),
)
_program = st.lists(_op, min_size=10, max_size=40)


# -- the differential runner ---------------------------------------------------


def _make(cls, network, params):
    depth, width, hashes = params
    return cls(network, depth=depth, width=width, hashes=hashes, telemetry=Telemetry())


def _filter_bits(ad):
    return [level.bits for level in ad.levels]


def divergence(candidate_cls, graph, params, program):
    """Run ``program`` on the reference and ``candidate_cls`` side by side.

    Both locators share one network, so crashes hit them identically.
    Returns a description of the first disagreement, or ``None``.
    """
    network = Network(Kernel(), graph)
    reference = _make(FullRecomputeLocator, network, params)
    candidate = _make(candidate_cls, network, params)
    nodes = sorted(network.nodes())

    def query(start, guid):
        ref = reference.query(start, guid)
        got = candidate.query(start, guid)
        if ref != got:
            return f"query({start}, {guid.value:#x}): {got} != {ref}"
        return None

    for step, (kind, node_index, guid_index) in enumerate(program):
        node = nodes[node_index % len(nodes)]
        if kind == "add":
            for loc in (reference, candidate):
                loc.add_object(node, GUIDS[guid_index])
        elif kind == "remove":
            # Prefer an object the node holds; an absent one is a no-op.
            held = sorted(reference.objects_at(node))
            guid = held[guid_index % len(held)] if held else GUIDS[guid_index]
            for loc in (reference, candidate):
                loc.remove_object(node, guid)
        elif kind == "down":
            network.set_down(node)
        elif kind == "revive":
            network.set_down(node, False)
        elif kind == "wipe":
            for loc in (reference, candidate):
                loc.wipe_neighbor_filters()
        elif kind == "round":
            for loc in (reference, candidate):
                loc.refresh_round()
        elif kind == "converge":
            for loc in (reference, candidate):
                loc.converge()
        elif kind == "query":
            if (diff := query(node, GUIDS[guid_index])) is not None:
                return f"step {step}: {diff}"
        where = f"step {step} ({kind})"
        for n in nodes:
            ref, got = reference._nodes[n], candidate._nodes[n]
            if _filter_bits(got.advertisement) != _filter_bits(ref.advertisement):
                return f"{where}: advertisement of {n} differs"
            if list(got.neighbor_filters) != list(ref.neighbor_filters):
                return f"{where}: neighbor_filters keys at {n} differ"
            for key, filt in ref.neighbor_filters.items():
                if _filter_bits(got.neighbor_filters[key]) != _filter_bits(filt):
                    return f"{where}: filter {key}->{n} differs"
        if candidate.stats_refresh_bytes != reference.stats_refresh_bytes:
            return f"{where}: stats_refresh_bytes differ"
        for counter in REFRESH_COUNTERS:
            got = candidate.telemetry.metrics.counter_total(counter)
            if got != reference.telemetry.metrics.counter_total(counter):
                return f"{where}: {counter} differs"
    for n in nodes:
        for guid in GUIDS:
            if (diff := query(n, guid)) is not None:
                return f"end: {diff}"
    return None


# -- properties ----------------------------------------------------------------


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=_graphs, params=_params, program=_program)
def test_incremental_refresh_matches_full_recompute(graph, params, program):
    assert divergence(ProbabilisticLocator, graph, params, program) is None


def test_negative_control_mutant_is_caught():
    """The suite must be able to fail: hypothesis finds a program that
    exposes the mutant without its down-set fallback."""
    example = find(
        st.tuples(_graphs, _params, _program),
        lambda case: divergence(SkipDownFallback, *case) is not None,
        # Any witness will do; skipping the shrink phase keeps this fast.
        settings=settings(
            max_examples=1000, deadline=None, database=None, phases=[Phase.generate]
        ),
    )
    assert divergence(SkipDownFallback, *example) is not None
    assert divergence(ProbabilisticLocator, *example) is None


# -- directed cases ------------------------------------------------------------


def _line(n: int) -> nx.Graph:
    graph = nx.path_graph(n)
    nx.set_edge_attributes(graph, 10.0, "latency_ms")
    return graph


CRASH_THEN_ROUND = [("add", 0, 0), ("converge", 0, 0), ("down", 0, 0), ("round", 0, 0)]
REVIVE_AFTER_ROUND = [
    ("down", 2, 0),
    ("converge", 0, 0),
    ("add", 0, 1),
    ("converge", 0, 0),
    ("revive", 2, 0),
    ("round", 0, 0),
]


@pytest.mark.parametrize("program", [CRASH_THEN_ROUND, REVIVE_AFTER_ROUND])
def test_mutant_caught_on_directed_liveness_changes(program):
    assert divergence(SkipDownFallback, _line(4), (3, 64, 2), program) is not None
    assert divergence(ProbabilisticLocator, _line(4), (3, 64, 2), program) is None


def test_wipe_then_round_repushes_every_live_edge():
    program = [
        ("add", 1, 0),
        ("converge", 0, 0),
        ("down", 3, 0),
        ("wipe", 0, 0),
        ("round", 0, 0),
    ]
    assert divergence(ProbabilisticLocator, _line(5), (2, 64, 2), program) is None
    network = Network(Kernel(), _line(5))
    locator = ProbabilisticLocator(network, depth=2, width=64, hashes=2)
    locator.converge()
    network.set_down(3)
    locator.wipe_neighbor_filters()
    locator.refresh_round()
    received = {n: sorted(locator._nodes[n].neighbor_filters) for n in range(5)}
    # 3 is down, so edges 2<->3 and 3<->4 carry nothing after the wipe.
    assert received == {0: [1], 1: [0, 2], 2: [1], 3: [], 4: []}


def test_advertisements_are_shared_not_copied():
    network = Network(Kernel(), _line(3))
    locator = ProbabilisticLocator(network, depth=2, width=64, hashes=2)
    locator.add_object(1, GUIDS[0])
    locator.converge()
    ad = locator._nodes[1].advertisement
    assert locator._nodes[0].neighbor_filters[1] is ad
    assert locator._nodes[2].neighbor_filters[1] is ad


def test_quiet_rounds_recompute_nothing_but_charge_full_broadcast():
    network = Network(Kernel(), _line(4))
    locator = ProbabilisticLocator(network, depth=3, width=64, hashes=2)
    locator.add_object(0, GUIDS[0])
    locator.converge()
    assert not locator._dirty
    before = locator.stats_refresh_bytes
    locator.refresh_round()
    # 3 undirected edges = 6 directed, each one 3-level, 8-byte-level ad.
    assert locator.stats_refresh_bytes - before == 6 * 3 * 8
