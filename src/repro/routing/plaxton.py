"""The Plaxton-style global data-location mesh (Section 4.3.3, Figure 3).

Every server gets a random node-ID; neighbor tables are built per
(level, digit): the level-N entries of node X point at the closest nodes
whose IDs match the lowest N digits of X's ID and differ in combinations
of digit N ("closest" in underlying network latency).  The links form
random embedded trees; resolving a GUID one digit at a time from any
start converges on the GUID's unique *root* node.

Data location uses the mesh in two phases:

* **publish**: when a replica is placed, a publish message routes from
  its server toward the object's root, depositing a location pointer at
  every hop (O(log n) hops).
* **locate**: a query climbs toward the root and, at the first node
  holding a pointer, routes directly to the (closest) replica.  Plaxton
  et al. prove the distance traveled is proportional to the distance to
  the closest replica; most searches never reach the root.

We add OceanStore's redundancy on top (Section 4.3.3, "Achieving Fault
Tolerance"): multiple backup links per table entry and routing that jumps
past dead neighbors; salted multi-root publishing lives in
:mod:`repro.routing.salt`, and dynamic membership in
:mod:`repro.routing.membership`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from repro.sim.network import Network, NodeId
from repro.telemetry import coalesce
from repro.util.ids import DIGIT_BITS, GUID, GUID_BITS, GUID_DIGITS
from repro.util.rng import random_guid_value

DIGIT_BASE = 1 << DIGIT_BITS

T = TypeVar("T")


class RoutingError(RuntimeError):
    """Routing failed (disconnected mesh or exhausted redundancy)."""


@dataclass(frozen=True, slots=True)
class LocationPointer:
    """A (object GUID -> replica server) pointer deposited along a
    publish path."""

    object_guid: GUID
    replica_node: NodeId


@dataclass
class RouteTrace:
    """Diagnostics for one routing operation."""

    path: list[NodeId] = field(default_factory=list)
    latency_ms: float = 0.0
    reached_root: bool = False

    @property
    def hops(self) -> int:
        return max(len(self.path) - 1, 0)


@dataclass(frozen=True, slots=True)
class LocateResult:
    found: bool
    replica_node: NodeId | None
    trace: RouteTrace


class PlaxtonNode:
    """Per-server routing state: the neighbor table and pointer store."""

    #: Number of backup neighbors kept per (level, digit) entry
    #: (the "additional neighbor links" redundancy of Section 4.3.3).
    BACKUPS = 3

    def __init__(self, node_id: GUID, network_id: NodeId) -> None:
        self.node_id = node_id
        self.network_id = network_id
        #: table[level][digit] -> ordered list of candidate network ids,
        #: closest first (primary + backups).
        self.table: list[list[list[NodeId]]] = []
        #: location pointers deposited by publish paths
        self.pointers: dict[GUID, set[NodeId]] = {}

    def entry(self, level: int, digit: int) -> list[NodeId]:
        if level >= len(self.table):
            return []
        return self.table[level][digit]

    def add_pointer(self, pointer: LocationPointer) -> None:
        self.pointers.setdefault(pointer.object_guid, set()).add(pointer.replica_node)

    def remove_pointer(self, object_guid: GUID, replica_node: NodeId) -> None:
        locations = self.pointers.get(object_guid)
        if locations is not None:
            locations.discard(replica_node)
            if not locations:
                del self.pointers[object_guid]

    def pointer_count(self) -> int:
        return sum(len(v) for v in self.pointers.values())


def nearest(candidates: Iterable[T], latency: Callable[[T], float]) -> list[T]:
    """The :attr:`PlaxtonNode.BACKUPS` candidates of lowest ``latency``,
    closest first: the mesh's one neighbour ranking.

    Candidates must come in node-ID value order; the sort is stable, so
    latency ties keep that order, i.e. break on node-ID value.
    """
    return sorted(candidates, key=latency)[: PlaxtonNode.BACKUPS]


class PlaxtonMesh:
    """The global mesh: all nodes' tables, plus publish/locate/route.

    Tables are built from global knowledge for the initial deployment
    (the paper's static Plaxton construction); dynamic insertion/removal
    uses :mod:`repro.routing.membership`, which maintains the same
    invariants incrementally.
    """

    def __init__(self, network: Network, rng: random.Random, telemetry=None) -> None:
        self.network = network
        self.rng = rng
        self.telemetry = coalesce(telemetry)
        self.nodes: dict[NodeId, PlaxtonNode] = {}
        self._by_guid: dict[GUID, NodeId] = {}
        self.stats_publish_messages = 0
        self.stats_locate_messages = 0

    # -- construction --------------------------------------------------------

    def add_server(self, network_id: NodeId, node_id: GUID | None = None) -> PlaxtonNode:
        """Register a server (does not build tables; see build_tables)."""
        if network_id in self.nodes:
            raise ValueError(f"server {network_id} already in mesh")
        if node_id is None:
            while True:
                node_id = GUID(random_guid_value(self.rng, GUID_BITS))
                if node_id not in self._by_guid:
                    break
        elif node_id in self._by_guid:
            raise ValueError(f"node-ID collision: {node_id}")
        node = PlaxtonNode(node_id, network_id)
        self.nodes[network_id] = node
        self._by_guid[node_id] = network_id
        return node

    def populate(self, network_ids: list[NodeId]) -> None:
        """Add many servers with random IDs and build all tables."""
        for nid in network_ids:
            self.add_server(nid)
        self.build_tables()

    @property
    def table_height(self) -> int:
        """Number of levels needed to distinguish all current node-IDs."""
        guids = list(self._by_guid)
        if len(guids) <= 1:
            return 1
        # Levels needed = longest shared suffix between any two distinct
        # IDs, plus one.  Computed by grouping by suffix until singletons.
        level = 0
        groups: dict[tuple[int, ...], int] = {(): len(guids)}
        by_suffix: dict[tuple[int, ...], list[GUID]] = {(): guids}
        while any(len(g) > 1 for g in by_suffix.values()) and level < GUID_DIGITS:
            next_by_suffix: dict[tuple[int, ...], list[GUID]] = {}
            for suffix, members in by_suffix.items():
                if len(members) <= 1:
                    continue
                for guid in members:
                    key = suffix + (guid.digit(level),)
                    next_by_suffix.setdefault(key, []).append(guid)
            by_suffix = next_by_suffix
            level += 1
        return max(level, 1)

    def build_tables(self) -> None:
        """(Re)build every node's neighbor table from scratch."""
        height = self.table_height + 1
        groups = self.suffix_groups(height)
        for node in self.nodes.values():
            node.table = self.table_rows(node, range(height), groups)

    def suffix_groups(self, height: int) -> list[dict[tuple[int, ...], list[int]]]:
        """Per level ``L < height``: the members' latency-table indices,
        grouped by their lowest ``L + 1`` digits, in node-ID value order."""
        index = self.network.latency_table.index
        groups: list[dict[tuple[int, ...], list[int]]] = [{} for _ in range(height)]
        for guid, nid in sorted(self._by_guid.items()):
            digits = guid.digits()
            for level, by_suffix in enumerate(groups):
                by_suffix.setdefault(digits[: level + 1], []).append(index[nid])
        return groups

    def table_rows(
        self,
        node: PlaxtonNode,
        levels: range,
        groups: list[dict[tuple[int, ...], list[int]]],
    ) -> list[list[list[NodeId]]]:
        """``node``'s neighbor-table rows for ``levels``: per digit, the
        closest members extending its own lowest digits by that digit.

        Reads the node's latency row directly, one ranking per entry.
        """
        table = self.network.latency_table
        latency = table.rows[table.index[node.network_id]].__getitem__
        nodes = table.nodes
        own_digits = node.node_id.digits()
        rows: list[list[list[NodeId]]] = []
        for level in levels:
            by_suffix = groups[level]
            prefix = own_digits[:level]
            row: list[list[NodeId]] = []
            for digit in range(DIGIT_BASE):
                group = by_suffix.get(prefix + (digit,))
                row.append([nodes[i] for i in nearest(group, latency)] if group else [])
            rows.append(row)
        return rows

    # -- routing ----------------------------------------------------------------

    def server_for_guid(self, node_id: GUID) -> NodeId | None:
        return self._by_guid.get(node_id)

    def _next_hop(
        self, current: PlaxtonNode, target: GUID, level: int
    ) -> tuple[NodeId | None, int]:
        """One routing decision: the next hop (or None if current is the
        root) and the level the route continues at.

        Scans digits cyclically starting from the target's digit at this
        level (deterministic surrogate routing, so every route for a GUID
        converges on the same root).  Dead neighbors are skipped in favor
        of backups -- the redundancy of Section 4.3.3.
        """
        height = len(current.table)
        lvl = level
        while lvl < height:
            desired = target.digit(lvl)
            for offset in range(DIGIT_BASE):
                digit = (desired + offset) % DIGIT_BASE
                for candidate in current.entry(lvl, digit):
                    if candidate == current.network_id:
                        # Loopback: this digit resolves to ourselves; the
                        # route continues at the next level.
                        break
                    if self.network.is_down(candidate):
                        continue
                    return candidate, lvl + 1
                else:
                    continue  # no live candidate for this digit; next digit
                break  # hit loopback; consume the level
            else:
                # No live entries anywhere at this level: consume it.
                pass
            lvl += 1
        return None, lvl

    def route_to_root(self, start: NodeId, target: GUID) -> RouteTrace:
        """Route from ``start`` toward the root node for ``target``.

        Returns the trace; the last node on the path is the root.  Raises
        :class:`RoutingError` if the start node is unknown or dead.
        """
        if start not in self.nodes:
            raise RoutingError(f"unknown start node {start}")
        if self.network.is_down(start):
            raise RoutingError(f"start node {start} is down")
        trace = RouteTrace(path=[start])
        current = self.nodes[start]
        level = 0
        for _ in range(GUID_DIGITS + len(self.nodes)):
            next_id, level = self._next_hop(current, target, level)
            if next_id is None:
                trace.reached_root = True
                return trace
            trace.latency_ms += self.network.latency_ms(current.network_id, next_id)
            trace.path.append(next_id)
            current = self.nodes[next_id]
        raise RoutingError(f"route for {target} did not converge")

    def root_of(self, target: GUID) -> NodeId:
        """The unique root node for a GUID (routing from an arbitrary node)."""
        start = self._any_live_node()
        return self.route_to_root(start, target).path[-1]

    def _any_live_node(self) -> NodeId:
        for nid in sorted(self.nodes):
            if not self.network.is_down(nid):
                return nid
        raise RoutingError("no live nodes in mesh")

    # -- publish / locate -----------------------------------------------------

    def publish(self, replica_node: NodeId, object_guid: GUID) -> RouteTrace:
        """Deposit pointers from the replica's server up to the root."""
        tel = self.telemetry
        with tel.span("plaxton.publish", replica=replica_node):
            trace = self.route_to_root(replica_node, object_guid)
            pointer = LocationPointer(
                object_guid=object_guid, replica_node=replica_node
            )
            for nid in trace.path:
                self.nodes[nid].add_pointer(pointer)
                self.stats_publish_messages += 1
        if tel.enabled:
            tel.count("plaxton_publishes_total")
            tel.observe("plaxton_publish_hops", trace.hops)
        return trace

    def unpublish(self, replica_node: NodeId, object_guid: GUID) -> None:
        """Remove this replica's pointers along its current publish path."""
        trace = self.route_to_root(replica_node, object_guid)
        for nid in trace.path:
            self.nodes[nid].remove_pointer(object_guid, replica_node)

    def locate(self, start: NodeId, object_guid: GUID) -> LocateResult:
        """Climb toward the root; stop at the first pointer found.

        The result's trace covers the climb plus the final direct hop to
        the replica.  "Most object searches do not travel all the way to
        the root" (Figure 3 caption) -- ``trace.reached_root`` records
        whether this one did.
        """
        tel = self.telemetry
        if not tel.enabled:
            return self._locate(start, object_guid)
        with tel.span("plaxton.locate", start=start):
            result = self._locate(start, object_guid)
        tel.count(
            "plaxton_locates_total", result="hit" if result.found else "miss"
        )
        tel.observe("plaxton_locate_hops", result.trace.hops)
        tel.observe("plaxton_locate_latency_ms", result.trace.latency_ms)
        return result

    def _locate(self, start: NodeId, object_guid: GUID) -> LocateResult:
        if start not in self.nodes:
            raise RoutingError(f"unknown start node {start}")
        if self.network.is_down(start):
            raise RoutingError(f"start node {start} is down")
        trace = RouteTrace(path=[start])
        current = self.nodes[start]
        level = 0
        for _ in range(GUID_DIGITS + len(self.nodes)):
            self.stats_locate_messages += 1
            locations = {
                loc
                for loc in current.pointers.get(object_guid, ())
                if not self.network.is_down(loc)
            }
            if locations:
                best = min(
                    locations,
                    key=lambda loc: (
                        self.network.latency_ms(current.network_id, loc),
                        loc,
                    ),
                )
                if best != current.network_id:
                    trace.latency_ms += self.network.latency_ms(
                        current.network_id, best
                    )
                    trace.path.append(best)
                return LocateResult(True, best, trace)
            next_id, level = self._next_hop(current, target=object_guid, level=level)
            if next_id is None:
                trace.reached_root = True
                return LocateResult(False, None, trace)
            trace.latency_ms += self.network.latency_ms(current.network_id, next_id)
            trace.path.append(next_id)
            current = self.nodes[next_id]
        raise RoutingError(f"locate for {object_guid} did not converge")
