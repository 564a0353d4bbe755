"""Per-node server state (Section 2: "pools" of servers).

An :class:`OceanStoreServer` is the container for everything one
simulated host stores and observes: floating-replica object state, an
archival fragment store, the access checker honest servers run, and the
node's introspection machinery.

Server principals are minted on first use by one shared
:class:`ServerIdentities` per deployment: only the servers that sign
(the inner ring) ever pay for RSA key generation, yet every key is the
one an up-front mint of all servers would have produced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.access.policy import AccessChecker
from repro.archival.reconstruction import FragmentStore
from repro.crypto.keys import Principal, make_principal
from repro.data.objects import PersistentObject
from repro.introspect.hierarchy import IntrospectionNode
from repro.sim.network import NodeId
from repro.telemetry import coalesce
from repro.util.ids import GUID


class ServerIdentities:
    """Server principals, minted lazily but in a fixed order.

    Every server key is drawn from one ``rng`` stream in sorted node
    order.  Asking for node *k* first mints every lower node not yet
    minted, so each key is bit-identical to an up-front mint of all
    servers, whatever order they are asked for in.
    """

    def __init__(self, nodes: Iterable[NodeId], rng: random.Random, bits: int) -> None:
        self._order = sorted(nodes)
        self._rank = {node: rank for rank, node in enumerate(self._order)}
        self._rng = rng
        self._bits = bits
        #: principals of the first ``len(_minted)`` nodes in sorted order
        self._minted: list[Principal] = []

    def __getitem__(self, node: NodeId) -> Principal:
        rank = self._rank[node]
        minted = self._minted
        while len(minted) <= rank:
            nxt = self._order[len(minted)]
            minted.append(make_principal(f"server-{nxt}", self._rng, bits=self._bits))
        return minted[rank]


@dataclass
class OceanStoreServer:
    """One server in the global utility."""

    network_id: NodeId
    identities: ServerIdentities = field(repr=False)
    objects: dict[GUID, PersistentObject] = field(default_factory=dict)
    fragments: FragmentStore = field(default_factory=FragmentStore)
    access: AccessChecker = field(default_factory=AccessChecker)
    introspection: IntrospectionNode = None  # set in __post_init__
    telemetry: object = None

    def __post_init__(self) -> None:
        if self.introspection is None:
            self.introspection = IntrospectionNode(node_id=self.network_id)
        self.telemetry = coalesce(self.telemetry)

    @property
    def principal(self) -> Principal:
        """This server's identity, minted on first use."""
        return self.identities[self.network_id]

    @property
    def guid(self) -> GUID:
        """Server GUID: the secure hash of its public key (Section 4.1)."""
        return self.principal.guid

    def get_or_create_object(self, guid: GUID) -> PersistentObject:
        obj = self.objects.get(guid)
        if obj is None:
            obj = PersistentObject(guid=guid)
            self.objects[guid] = obj
            if self.telemetry.enabled:
                self.telemetry.count("server_objects_created_total")
        return obj

    def has_object(self, guid: GUID) -> bool:
        return guid in self.objects
