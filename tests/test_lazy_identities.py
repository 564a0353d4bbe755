"""Server principals are minted on first use, yet bit-identical to an
up-front mint.

The test-local eager reference draws every server key from the same
``identities`` stream in sorted node order, as deployments did before
keys were minted lazily.  Whatever order servers are asked for in, each
``servers[n].principal`` must equal the reference; a deployment must
only mint the inner-ring keys it signs with; and a ring handoff onto
fresh transit nodes must get the keys the eager loop would have given.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.server as server_module
from repro.core import DeploymentConfig, OceanStoreSystem, RecoveryConfig
from repro.core.server import ServerIdentities
from repro.crypto.keys import make_principal
from repro.sim import TopologyParams
from repro.util.rng import SeedSequence

SMALL = TopologyParams(transit_nodes=4, stubs_per_transit=2, nodes_per_stub=5)


def eager_principals(config: DeploymentConfig, nodes) -> dict:
    """The reference: every server minted up front, in sorted node order."""
    rng = SeedSequence(config.seed).derive("identities")
    return {
        node: make_principal(f"server-{node}", rng, bits=config.key_bits)
        for node in sorted(nodes)
    }


@pytest.fixture
def mint_counter(monkeypatch):
    """Counts server keygens (the module-level name the mint calls)."""
    calls = []

    def counting(name, rng, bits=512):
        calls.append(name)
        return make_principal(name, rng, bits=bits)

    monkeypatch.setattr(server_module, "make_principal", counting)
    return calls


class TestServerIdentities:
    @settings(max_examples=60, deadline=None)
    @given(
        nodes=st.lists(st.integers(0, 10_000), min_size=1, max_size=12, unique=True),
        data=st.data(),
    )
    def test_any_access_order_matches_the_eager_mint(self, nodes, data):
        config = DeploymentConfig(seed=data.draw(st.integers(0, 3)))
        reference = eager_principals(config, nodes)
        identities = ServerIdentities(
            nodes, SeedSequence(config.seed).derive("identities"), bits=config.key_bits
        )
        order = data.draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=3 * len(nodes))
        )
        for node in order:
            assert identities[node] == reference[node]

    def test_unknown_node_raises(self):
        identities = ServerIdentities([1, 2], SeedSequence(0).derive("identities"), bits=256)
        with pytest.raises(KeyError):
            identities[3]


class TestDeployment:
    def test_high_ids_first_match_the_eager_mint(self):
        system = OceanStoreSystem(DeploymentConfig(seed=5, topology=SMALL))
        reference = eager_principals(system.config, system.servers)
        for node in sorted(system.servers, reverse=True):
            assert system.servers[node].principal == reference[node]
            assert system.servers[node].guid == reference[node].guid

    @pytest.mark.parametrize(
        "ring_count, topology",
        [
            (1, SMALL),
            (2, TopologyParams(transit_nodes=8, stubs_per_transit=2, nodes_per_stub=5)),
        ],
    )
    def test_only_inner_ring_keys_are_minted(self, mint_counter, ring_count, topology):
        system = OceanStoreSystem(
            DeploymentConfig(topology=topology, ring_count=ring_count)
        )
        ring_size = system.config.ring_size
        assert len(mint_counter) == ring_size * ring_count
        # the rings sit on the lowest transit ids: exactly those are minted
        assert mint_counter == [f"server-{n}" for n in range(ring_size * ring_count)]
        reference = eager_principals(system.config, system.servers)
        for shard in system.rings.shards:
            for replica in shard.ring.replicas:
                assert replica.principal == reference[replica.network_id]

    def test_handoff_ring_gets_the_eager_keys(self, mint_counter):
        system = OceanStoreSystem(
            DeploymentConfig(
                seed=3,
                ring_count=2,
                archive_every_commit=False,
                topology=TopologyParams(
                    transit_nodes=12, stubs_per_transit=1, nodes_per_stub=2
                ),
                recovery=RecoveryConfig(
                    enabled=True,
                    heartbeat_interval_ms=1_000.0,
                    heartbeat_timeout_ms=600.0,
                    suspicion_threshold=2,
                    refresh_interval_ms=10_000.0,
                ),
            )
        )
        shard = system.rings.shards[1]
        old_members = list(shard.members)
        system.injector.crash(old_members[-1])
        system.settle(60_000.0)

        assert shard.epoch >= 1
        fresh = [m for m in shard.members if m not in old_members]
        assert fresh, "the handoff seated no new member"
        reference = eager_principals(system.config, system.servers)
        for replica in shard.ring.replicas:
            assert replica.principal == reference[replica.network_id]
        # minting stopped at the highest member ever seated
        assert len(mint_counter) == max(shard.members) + 1
