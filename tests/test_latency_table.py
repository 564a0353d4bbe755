"""Differential tests: the all-pairs latency table against networkx Dijkstra.

:class:`repro.sim.network.LatencyTable` relaxes every source at once to
a fixpoint and claims to reproduce, bit for bit, the float path sums
Dijkstra computes.  networkx's ``single_source_dijkstra_path_length``
stays here as the test-local reference: random weighted graphs
(disconnected ones, and edges without ``latency_ms``, which networkx
weighs 1) and transit-stub topologies must agree on every ordered pair.

The negative control is a table that stops after one relaxation sweep;
``hypothesis.find`` must turn up a graph on which it disagrees with the
reference, or the property could not catch an early-stopping fixpoint.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from repro.core import DeploymentConfig, OceanStoreSystem
from repro.sim import Kernel, Network, TopologyParams, build_transit_stub_topology
from repro.sim.network import LatencyTable


def dijkstra_reference(graph: nx.Graph) -> dict:
    return {
        src: nx.single_source_dijkstra_path_length(graph, src, weight="latency_ms")
        for src in graph
    }


def disagreements(network: Network, reference: dict) -> list[tuple]:
    """Every (src, dst, got, want) where the network's latency differs."""
    bad = []
    for src in network.graph:
        for dst in network.graph:
            want = reference[src].get(dst)
            try:
                got = network.latency_ms(src, dst)
            except ValueError:
                got = None
            if src == dst:
                want = 0.0
            if got != want or (got is not None and type(got) is not float):
                bad.append((src, dst, got, want))
    return bad


@st.composite
def weighted_graphs(draw, max_nodes: int = 12) -> nx.Graph:
    """Random undirected graphs: any edge subset, so often disconnected,
    with jittered float weights, repeated weights, or no weight at all."""
    n = draw(st.integers(1, max_nodes))
    graph = nx.Graph()
    # node ids need not be 0..n-1 nor inserted in order
    ids = draw(st.permutations(range(0, 3 * n, 3)))
    graph.add_nodes_from(ids)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i:]]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    weight = st.one_of(
        st.none(),
        st.floats(0.001, 100.0, allow_nan=False),
        st.sampled_from([0.1, 0.2, 0.3, 1.0, 5.0]),
        st.integers(0, 3),
    )
    for a, b in chosen:
        w = draw(weight)
        if w is None:
            graph.add_edge(a, b)
        else:
            graph.add_edge(a, b, latency_ms=w)
    return graph


class TestRandomGraphs:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(weighted_graphs())
    def test_every_pair_matches_dijkstra(self, graph):
        network = Network(Kernel(), graph)
        assert disagreements(network, dijkstra_reference(graph)) == []

    @settings(max_examples=100, deadline=None)
    @given(weighted_graphs())
    def test_send_delay_is_latency_plus_overhead(self, graph):
        kernel = Kernel()
        network = Network(kernel, graph)
        reference = dijkstra_reference(graph)
        arrivals = {}
        for node in graph:
            network.register(node, lambda m: arrivals.setdefault((m.src, m.dst), kernel.now))
        for src in graph:
            for dst in graph:
                if dst in reference[src]:
                    network.send(src, dst, "probe", size_bytes=1)
                else:
                    with pytest.raises(ValueError, match="no path"):
                        network.send(src, dst, "probe", size_bytes=1)
        kernel.run()
        for (src, dst), at in arrivals.items():
            expect = 0.0 if src == dst else reference[src][dst]
            assert at == expect + Network.PER_MESSAGE_OVERHEAD_MS


class TestEdgeCases:
    def test_self_latency_is_float_zero(self):
        network = Network(Kernel(), nx.path_graph(3))
        for node in range(3):
            assert network.latency_ms(node, node) == 0.0
            assert type(network.latency_ms(node, node)) is float

    def test_unreachable_and_unknown_nodes_raise(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, latency_ms=2.5)
        graph.add_node(2)
        network = Network(Kernel(), graph)
        assert network.latency_ms(1, 0) == 2.5
        for src, dst in ((0, 2), (2, 0), (0, 99), (99, 0)):
            with pytest.raises(ValueError, match="no path"):
                network.latency_ms(src, dst)

    def test_negative_latency_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, latency_ms=-1.0)
        with pytest.raises(ValueError, match="negative"):
            Network(Kernel(), graph).latency_ms(0, 1)

    def test_blocks_of_sources_give_the_same_table(self, monkeypatch):
        graph = build_transit_stub_topology(
            TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5),
            random.Random(7),
        )
        whole = LatencyTable.build(graph)
        monkeypatch.setattr(LatencyTable, "BLOCK_ENTRIES", 5 * graph.number_of_nodes())
        blocked = LatencyTable.build(graph)
        assert [r.tobytes() for r in blocked.rows] == [r.tobytes() for r in whole.rows]

    def test_deployment_never_calls_networkx_dijkstra(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("latency computed through networkx")

        monkeypatch.setattr(nx, "single_source_dijkstra_path_length", forbidden)
        system = OceanStoreSystem(
            DeploymentConfig(
                topology=TopologyParams(
                    transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5
                )
            )
        )
        system.settle()
        assert system.network.latency_ms(0, 43) > 0.0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "shape", [(4, 2, 5), (8, 4, 5), (8, 8, 10)], ids=["44", "168", "648"]
)
def test_transit_stub_topologies_match_dijkstra(shape, seed):
    transit, stubs, per_stub = shape
    graph = build_transit_stub_topology(
        TopologyParams(
            transit_nodes=transit, stubs_per_transit=stubs, nodes_per_stub=per_stub
        ),
        random.Random(seed),
    )
    reference = dijkstra_reference(graph)
    table = Network(Kernel(), graph).latency_table
    for src, row in zip(table.nodes, table.rows):
        want = reference[src]
        assert row.tolist() == [want[dst] for dst in table.nodes]
    assert all(math.isfinite(x) for row in table.rows for x in row)


class OneSweepTable(LatencyTable):
    """Mutant: stops after the first relaxation sweep."""

    @staticmethod
    def sweep(dist, adjacency):
        LatencyTable.sweep(dist, adjacency)
        return False


def test_negative_control_one_sweep_mutant_is_found():
    def mutant_disagrees(graph: nx.Graph) -> bool:
        reference = dijkstra_reference(graph)
        table = OneSweepTable.build(graph)
        return any(
            row[table.index[dst]] != want
            for src, row in zip(table.nodes, table.rows)
            for dst, want in reference[src].items()
        )

    witness = find(
        weighted_graphs(),
        mutant_disagrees,
        settings=settings(max_examples=1000, deadline=None, database=None),
    )
    assert mutant_disagrees(witness)
    # the real fixpoint agrees on the very graph that exposes the mutant
    assert disagreements(Network(Kernel(), witness), dijkstra_reference(witness)) == []
