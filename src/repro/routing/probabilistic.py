"""Probabilistic data location by hill-climbing (Section 4.3.2, Figure 2).

"The probabilistic algorithm is fully distributed and uses a constant
amount of storage per server.  It is based on the idea of hill-climbing;
if a query cannot be satisfied by a server, local information is used to
route the query to a likely neighbor."

Every node keeps, for each directed edge, the attenuated Bloom filter its
neighbor last advertised.  A query at a node first checks local content,
then forwards along the edge whose filter claims the object at the
smallest distance.  Queries carry a TTL and a visited set (loop
avoidance); if no filter matches, the query *fails over* to the
deterministic global algorithm (Section 4.3.1's two-tier design).

Per the paper, "'reliability factors' can be applied locally to increase
the distance to nodes that have abused the protocol in the past,
automatically routing around certain classes of attacks": each node
tracks a penalty per neighbor, added to the filter distance during
next-hop selection, so neighbors that advertise objects they cannot
produce stop attracting queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.routing.bloom import AttenuatedBloomFilter, BloomFilter
from repro.sim.network import Network, NodeId
from repro.telemetry import coalesce
from repro.util.ids import GUID


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Outcome of one probabilistic query."""

    found: bool
    location: NodeId | None
    path: tuple[NodeId, ...]
    latency_ms: float

    @property
    def hops(self) -> int:
        return max(len(self.path) - 1, 0)


@dataclass
class _NodeState:
    content: set[GUID] = field(default_factory=set)
    local_filter: BloomFilter | None = None
    #: filter this node advertises to its neighbors
    advertisement: AttenuatedBloomFilter | None = None
    #: filters received from each neighbor, keyed by neighbor id
    neighbor_filters: dict[NodeId, AttenuatedBloomFilter] = field(default_factory=dict)
    #: reliability penalty per neighbor (added to filter distance)
    penalties: dict[NodeId, float] = field(default_factory=dict)


class ProbabilisticLocator:
    """Attenuated-Bloom-filter location layer over a simulated network.

    Filter state converges via :meth:`refresh_round`: each round, every
    node rebuilds its advertisement from neighbors' previous
    advertisements, so information propagates one hop per round (run
    ``depth`` rounds after content changes for full convergence --
    exactly the soft-state maintenance cost the design trades for
    constant storage).

    The *simulator* skips work that cannot change a bit: a round
    recomputes only advertisements whose inputs changed and hands only
    changed advertisements to neighbors.  The *modelled* protocol still
    broadcasts every advertisement on every live edge each round, and
    that full broadcast is what ``stats_refresh_bytes`` and the
    ``bloom_refresh_*`` counters charge.
    """

    def __init__(
        self,
        network: Network,
        depth: int = 3,
        width: int = 2048,
        hashes: int = 4,
        telemetry=None,
    ) -> None:
        self.network = network
        self.telemetry = coalesce(telemetry)
        self.depth = depth
        self.width = width
        self.hashes = hashes
        self._nodes: dict[NodeId, _NodeState] = {}
        for node in network.nodes():
            state = _NodeState()
            state.local_filter = BloomFilter(width, hashes)
            state.advertisement = AttenuatedBloomFilter(depth, width, hashes)
            self._nodes[node] = state
        self.stats_refresh_bytes = 0
        #: sorted adjacency, read once: the topology is immutable for a run
        self._adjacency = {
            node: tuple(network.neighbors(node)) for node in self._nodes
        }
        self._ad_bytes = AttenuatedBloomFilter(depth, width, hashes).size_bytes()
        #: nodes whose advertisement the next round must recompute
        self._dirty: set[NodeId] = set()
        #: when set, the next round pushes every advertisement, changed or not
        self._push_all = False
        #: down set the last round ran under; ``None`` makes the first
        #: round recompute and push everything
        self._down: frozenset[NodeId] | None = None
        self._live_edges = 0

    # -- content management -------------------------------------------------

    def add_object(self, node: NodeId, guid: GUID) -> None:
        state = self._nodes[node]
        state.content.add(guid)
        state.local_filter.add(guid)
        self._dirty.add(node)

    def remove_object(self, node: NodeId, guid: GUID) -> None:
        """Remove content; the local filter is rebuilt (no counting filters)."""
        state = self._nodes[node]
        state.content.discard(guid)
        state.local_filter = BloomFilter(self.width, self.hashes)
        for g in state.content:
            state.local_filter.add(g)
        self._dirty.add(node)

    def objects_at(self, node: NodeId) -> set[GUID]:
        return set(self._nodes[node].content)

    # -- filter maintenance ---------------------------------------------------

    def refresh_round(self) -> None:
        """One synchronous advertisement round.

        Each node rebuilds its advertisement from neighbors' *previous*
        advertisements and pushes it to every live neighbor.  The result
        is exactly that, but the simulator only recomputes a node whose
        local filter changed or whose neighbor's advertisement changed
        last round (every node when the set of down nodes changed), and
        only re-delivers advertisements whose bits changed.  Published
        advertisements are never mutated, so neighbors share one object.
        ``stats_refresh_bytes`` charges the full broadcast: one
        advertisement per live directed edge.
        """
        nodes = self._nodes
        adjacency = self._adjacency
        down = self.network.down_nodes()
        if down != self._down:
            # Liveness changed: any advertisement may change, and edges
            # to revived nodes have missed pushes.
            self._down = down
            self._live_edges = sum(
                1
                for node, neighbors in adjacency.items()
                if node not in down
                for n in neighbors
                if n not in down
            )
            self._dirty = set(nodes)
            self._push_all = True
        dirty, self._dirty = self._dirty, set()
        changed: dict[NodeId, AttenuatedBloomFilter] = {}
        for node in dirty:
            state = nodes[node]
            ad = AttenuatedBloomFilter.from_local_and_neighbors(
                self.depth,
                self.width,
                self.hashes,
                state.local_filter,
                [nodes[n].advertisement for n in adjacency[node] if n not in down],
            )
            if ad.levels != state.advertisement.levels:
                changed[node] = ad
        for node, ad in changed.items():
            nodes[node].advertisement = ad
            self._dirty.update(adjacency[node])
        senders = nodes if self._push_all else changed
        self._push_all = False
        for node in senders:
            if node in down:
                continue
            ad = nodes[node].advertisement
            for neighbor in adjacency[node]:
                if neighbor not in down:
                    nodes[neighbor].neighbor_filters[node] = ad
        sent = self._live_edges * self._ad_bytes
        self.stats_refresh_bytes += sent
        tel = self.telemetry
        if tel.enabled:
            tel.count("bloom_refresh_rounds_total")
            tel.count("bloom_refresh_bytes_total", sent)

    def converge(self) -> None:
        """Run enough rounds for full depth-D convergence."""
        for _ in range(self.depth + 1):
            self.refresh_round()

    def wipe_neighbor_filters(self) -> None:
        """Forget every received filter (a soft-state TTL-expiry storm).

        Advertisements survive; the next round re-pushes them on every
        live edge, exactly as a full broadcast would.
        """
        for state in self._nodes.values():
            state.neighbor_filters.clear()
        self._push_all = True

    # -- querying --------------------------------------------------------------

    def query(
        self, start: NodeId, guid: GUID, ttl: int | None = None
    ) -> QueryResult:
        """Hill-climb from ``start`` toward ``guid`` (Figure 2).

        ``ttl`` bounds the number of forwarding hops; the default is
        ``2 * depth`` -- beyond that the filters carry no signal and the
        query should fall back to the global algorithm.
        """
        tel = self.telemetry
        if not tel.enabled:
            return self._query(start, guid, ttl)
        with tel.span("bloom.query", start=start):
            result = self._query(start, guid, ttl)
        tel.count("bloom_queries_total", result="hit" if result.found else "miss")
        tel.observe("bloom_query_hops", result.hops)
        tel.observe("bloom_query_latency_ms", result.latency_ms)
        return result

    def _query(self, start: NodeId, guid: GUID, ttl: int | None) -> QueryResult:
        if ttl is None:
            ttl = 2 * self.depth
        path = [start]
        latency = 0.0
        visited = {start}
        current = start
        for _ in range(ttl + 1):
            state = self._nodes[current]
            if guid in state.content:
                return QueryResult(True, current, tuple(path), latency)
            best: tuple[float, float, NodeId] | None = None
            for neighbor, filt in state.neighbor_filters.items():
                if neighbor in visited or self.network.is_down(neighbor):
                    continue
                match = filt.first_match(guid)
                if match is None:
                    continue
                hop_latency = self.network.latency_ms(current, neighbor)
                effective = match.distance + state.penalties.get(neighbor, 0.0)
                candidate = (effective, hop_latency, neighbor)
                if best is None or candidate < best:
                    best = candidate
            if best is None:
                break
            _, hop_latency, neighbor = best
            latency += hop_latency
            current = neighbor
            visited.add(current)
            path.append(current)
        return QueryResult(False, None, tuple(path), latency)

    # -- reliability factors ----------------------------------------------------

    def penalize(self, node: NodeId, neighbor: NodeId, amount: float = 1.0) -> None:
        """Record protocol abuse: ``node`` distrusts ``neighbor``.

        The penalty inflates the neighbor's apparent filter distance, so
        hill-climbing prefers honest edges ("automatically routing around
        certain classes of attacks").
        """
        if amount < 0:
            raise ValueError("penalty must be non-negative")
        state = self._nodes[node]
        state.penalties[neighbor] = state.penalties.get(neighbor, 0.0) + amount

    def forgive(self, node: NodeId, neighbor: NodeId) -> None:
        """Reset a neighbor's penalty (e.g. after sustained good service)."""
        self._nodes[node].penalties.pop(neighbor, None)

    def penalty(self, node: NodeId, neighbor: NodeId) -> float:
        return self._nodes[node].penalties.get(neighbor, 0.0)
