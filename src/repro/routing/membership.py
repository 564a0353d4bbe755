"""Dynamic mesh membership: insertion, removal, and repair.

Section 4.3.3, "Achieving Maintenance-Free Operation": the original
Plaxton work assumed a static mesh; OceanStore adds recursive node
insertion and removal, soft-state beacons for fault detection, a
second-chance policy before declaring nodes dead, and continuous repair
that republishes pointers and reconstructs data on permanent departure.

:class:`MembershipManager` maintains the invariants of
:class:`~repro.routing.plaxton.PlaxtonMesh` incrementally:

* **insert**: build the new node's table from the existing mesh; then
  offer the new node to every existing node's relevant table entries
  (it is inserted where it is closer than a current candidate or fills a
  hole).  Publish paths that should now pass through the new node are
  lazily repaired by the periodic republish sweep.
* **remove**: drop the node from all tables (backups take over), and
  republish every pointer the departed node held so location state
  survives.
* **beacons**: each node probes its table neighbors; a neighbor missing
  ``SECOND_CHANCE`` consecutive beacons is declared dead and removed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.routing.plaxton import PlaxtonMesh, PlaxtonNode, RoutingError, nearest
from repro.sim.network import NodeId
from repro.util.ids import GUID


@dataclass
class BeaconState:
    """Soft-state failure detector for one (observer, neighbor) pair."""

    missed: int = 0


class MembershipManager:
    """Online insert/remove/repair for a Plaxton mesh."""

    #: Consecutive missed beacons before declaring a node dead (the
    #: paper's "second-chance algorithm" avoids evicting nodes on a
    #: single missed probe).
    SECOND_CHANCE = 2

    def __init__(self, mesh: PlaxtonMesh) -> None:
        self.mesh = mesh
        self._beacons: dict[tuple[NodeId, NodeId], BeaconState] = {}
        self.stats_inserted = 0
        self.stats_removed = 0
        self.stats_repaired_pointers = 0

    # -- insertion ------------------------------------------------------------

    def insert(self, network_id: NodeId, node_id: GUID | None = None) -> PlaxtonNode:
        """Insert a server into a live mesh.

        The new node's table is computed against current members; existing
        members then consider the new node for their own tables.  This is
        the global-knowledge rendering of the paper's recursive insertion:
        the information used (who matches which suffix, who is closest) is
        exactly what the recursive algorithm gathers hop by hop.
        """
        node = self.mesh.add_server(network_id, node_id)
        height = self.mesh.table_height + 1
        groups = self.mesh.suffix_groups(height)
        node.table = self.mesh.table_rows(node, range(height), groups)
        self._offer_to_others(node, height)
        self._extend_heights(height, groups)
        self.stats_inserted += 1
        return node

    def _offer_to_others(self, new_node: PlaxtonNode, height: int) -> None:
        """Let existing nodes adopt the new node into matching entries."""
        new_digits = new_node.node_id.digits()
        nodes = self.mesh.nodes
        for other in nodes.values():
            if other is new_node:
                continue
            other_digits = other.node_id.digits()
            max_level = min(len(other.table), height)
            for level in range(max_level):
                if other_digits[:level] != new_digits[:level]:
                    break  # suffix no longer matches; higher levels cannot
                digit = new_digits[level]
                entry = other.table[level][digit]
                if new_node.network_id in entry:
                    continue
                by_id = sorted(
                    entry + [new_node.network_id],
                    key=lambda nid: nodes[nid].node_id.value,
                )
                entry[:] = nearest(
                    by_id, functools.partial(self.mesh.network.latency_ms, other.network_id)
                )

    def _extend_heights(
        self, height: int, groups: list[dict[tuple[int, ...], list[int]]]
    ) -> None:
        """Ensure every node's table has at least ``height`` levels."""
        for node in self.mesh.nodes.values():
            if len(node.table) < height:
                node.table += self.mesh.table_rows(
                    node, range(len(node.table), height), groups
                )

    # -- removal ----------------------------------------------------------------

    def remove(self, network_id: NodeId) -> None:
        """Remove a server permanently: scrub tables, republish its pointers.

        Pointers *held by* the departed node are republished from their
        replica servers so location state survives (the paper: "servers
        slowly repeat the publishing process to repair pointers").
        """
        departed = self.mesh.nodes.pop(network_id, None)
        if departed is None:
            raise KeyError(f"node {network_id} not in mesh")
        del self.mesh._by_guid[departed.node_id]
        for node in self.mesh.nodes.values():
            for row in node.table:
                for entry in row:
                    if network_id in entry:
                        entry.remove(network_id)
        # Republishing: every replica the departed node pointed at re-runs
        # its publish path against the shrunken mesh.
        republished = set()
        for object_guid, replicas in departed.pointers.items():
            for replica in replicas:
                if (object_guid, replica) in republished:
                    continue
                republished.add((object_guid, replica))
                if replica in self.mesh.nodes and not self.mesh.network.is_down(replica):
                    self.mesh.publish(replica, object_guid)
                    self.stats_repaired_pointers += 1
        self.stats_removed += 1

    # -- beacons / failure detection ----------------------------------------------

    def beacon_round(self) -> list[NodeId]:
        """One soft-state probe round; returns nodes declared dead.

        Every node probes the neighbors in its table.  A down neighbor
        accrues a miss; after ``SECOND_CHANCE`` consecutive misses it is
        declared dead and removed from the mesh (triggering repair).  A
        successful probe resets the counter -- the second chance.
        """
        pairs: set[tuple[NodeId, NodeId]] = set()
        for node in self.mesh.nodes.values():
            for row in node.table:
                for entry in row:
                    for neighbor in entry:
                        if neighbor != node.network_id:
                            pairs.add((node.network_id, neighbor))
        suspects: dict[NodeId, int] = {}
        for key in pairs:
            _, neighbor = key
            state = self._beacons.setdefault(key, BeaconState())
            if self.mesh.network.is_down(neighbor):
                state.missed += 1
                suspects[neighbor] = max(suspects.get(neighbor, 0), state.missed)
            else:
                state.missed = 0
        declared_dead = [
            nid for nid, missed in suspects.items() if missed >= self.SECOND_CHANCE
        ]
        for nid in declared_dead:
            if nid in self.mesh.nodes:
                self.remove(nid)
        return declared_dead

    # -- continuous repair ---------------------------------------------------------

    def republish_sweep(self, replicas: dict[GUID, set[NodeId]]) -> int:
        """Repeat the publishing process for every known replica.

        ``replicas`` maps object GUID -> the servers currently holding a
        replica (in the full system this comes from each server's local
        store).  Repairs pointer paths invalidated by membership changes.
        Returns the number of publishes performed.
        """
        count = 0
        for object_guid, servers in replicas.items():
            for server in servers:
                if server in self.mesh.nodes and not self.mesh.network.is_down(server):
                    try:
                        self.mesh.publish(server, object_guid)
                        count += 1
                    except RoutingError:
                        continue
        return count
