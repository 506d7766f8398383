"""Tests for the routing tier (single-ring and sharded ring federation)."""

from __future__ import annotations

import pytest

from repro.dht.hashspace import HashSpace
from repro.dht.ring import ChordRing
from repro.dht.router import ShardedRingRouter, SingleRingRouter, build_router
from repro.keys.identifier import IdentifierKey
from repro.util.rng import RandomStream

KEY_BITS = 12


def key(value: int) -> IdentifierKey:
    return IdentifierKey(value=value, width=KEY_BITS)


@pytest.fixture
def space() -> HashSpace:
    return HashSpace(bits=16)


class TestBuildRouter:
    def test_one_shard_builds_the_single_ring_router(self, space):
        router = build_router(1, space=space, key_bits=KEY_BITS)
        assert isinstance(router, SingleRingRouter)
        assert router.shard_count == 1

    def test_many_shards_build_the_sharded_router(self, space):
        router = build_router(4, space=space, key_bits=KEY_BITS)
        assert isinstance(router, ShardedRingRouter)
        assert router.shard_count == 4

    def test_rejects_non_positive_counts(self, space):
        with pytest.raises(ValueError):
            build_router(0, space=space, key_bits=KEY_BITS)


class TestSingleRingRouter:
    def test_delegates_to_one_chord_ring_identically(self, space):
        """Lookup for lookup, the router is the wrapped ring."""
        router = build_router(1, space=space, key_bits=KEY_BITS)
        reference = ChordRing(space=HashSpace(bits=16))
        for name in ("alpha", "beta", "gamma", "delta"):
            router.add_server(name)
            reference.add_node(name)
        router.stabilise()
        reference.stabilise()
        rng = RandomStream(7)
        for _ in range(50):
            probe = key(rng.randbits(KEY_BITS))
            assert router.lookup(probe) == reference.lookup_key(probe)
            assert router.owner_of_key(probe) == reference.owner_of(
                reference.hash_function.hash_key(probe)
            )
        assert router.node_ids() == reference.node_ids()

    def test_every_key_maps_to_shard_zero(self, space):
        router = build_router(1, space=space, key_bits=KEY_BITS)
        router.add_server("only")
        router.stabilise()
        assert router.shard_of_key(key(0)) == 0
        assert router.shard_of_key(key((1 << KEY_BITS) - 1)) == 0
        assert router.server_shard("only") == 0
        assert "only" in router

    def test_refuses_to_remove_the_last_server(self, space):
        router = build_router(1, space=space, key_bits=KEY_BITS)
        router.add_server("a")
        router.add_server("b")
        router.stabilise()
        assert router.can_remove("a")
        router.remove_server("a")
        assert not router.can_remove("b")
        with pytest.raises(ValueError):
            router.remove_server("b")


class TestShardedRingRouter:
    def test_rejects_non_power_of_two_shard_counts(self, space):
        with pytest.raises(ValueError):
            ShardedRingRouter(space=space, shard_count=3, key_bits=KEY_BITS)

    def test_rejects_more_shard_bits_than_key_bits(self, space):
        with pytest.raises(ValueError):
            ShardedRingRouter(space=space, shard_count=8, key_bits=2)

    def test_keys_partition_by_leading_bits(self, space):
        router = ShardedRingRouter(space=space, shard_count=4, key_bits=KEY_BITS)
        # Top two of twelve bits select the shard.
        assert router.shard_bits == 2
        assert router.shard_of_key(key(0b000000000000)) == 0
        assert router.shard_of_key(key(0b010000000001)) == 1
        assert router.shard_of_key(key(0b101111111111)) == 2
        assert router.shard_of_key(key(0b110000000000)) == 3

    def test_rejects_keys_of_the_wrong_width(self, space):
        router = ShardedRingRouter(space=space, shard_count=4, key_bits=KEY_BITS)
        with pytest.raises(ValueError):
            router.shard_of_key(IdentifierKey(value=0, width=KEY_BITS + 1))

    def test_servers_balance_across_shards(self, space):
        router = ShardedRingRouter(space=space, shard_count=4, key_bits=KEY_BITS)
        for index in range(10):
            router.add_server(f"s{index}")
        router.stabilise()
        sizes = sorted(len(router.servers_in_shard(shard)) for shard in range(4))
        assert sizes == [2, 2, 3, 3]
        # Deterministic: the first four servers fill shards 0..3 in order.
        assert [router.server_shard(f"s{index}") for index in range(4)] == [0, 1, 2, 3]

    def test_lookup_owner_lives_on_the_keys_shard(self, space):
        router = ShardedRingRouter(space=space, shard_count=4, key_bits=KEY_BITS)
        for index in range(12):
            router.add_server(f"s{index}")
        router.stabilise()
        rng = RandomStream(21)
        for _ in range(100):
            probe = key(rng.randbits(KEY_BITS))
            result = router.lookup(probe)
            shard = router.shard_of_key(probe)
            assert result.owner in router.servers_in_shard(shard)
            assert router.owner_of_key(probe) == result.owner

    def test_node_ids_aggregate_every_shard(self, space):
        router = ShardedRingRouter(space=space, shard_count=2, key_bits=KEY_BITS)
        for index in range(6):
            router.add_server(f"s{index}")
        router.stabilise()
        expected = sorted(
            node_id for ring in router.rings() for node_id in ring.node_ids()
        )
        assert router.node_ids() == expected

    def test_has_node_id_sees_every_shard(self, space):
        router = ShardedRingRouter(space=space, shard_count=2, key_bits=KEY_BITS)
        router.add_server("a", node_id=10)
        router.add_server("b", node_id=20)
        assert [len(ring) for ring in router.rings()] == [1, 1]
        assert router.has_node_id(10) and router.has_node_id(20)
        assert not router.has_node_id(15)

    def test_refuses_to_drain_a_shard(self, space):
        router = ShardedRingRouter(space=space, shard_count=2, key_bits=KEY_BITS)
        for name in ("a", "b", "c"):
            router.add_server(name)
        router.stabilise()
        # "a" landed on shard 0, "b" on shard 1, "c" on shard 0.
        assert router.can_remove("a")
        assert not router.can_remove("b")
        with pytest.raises(ValueError):
            router.remove_server("b")
        router.remove_server("a")
        assert not router.can_remove("c")

    def test_single_ring_property_raises(self, space):
        router = ShardedRingRouter(space=space, shard_count=2, key_bits=KEY_BITS)
        with pytest.raises(AttributeError):
            _ = router.ring

    def test_duplicate_server_rejected(self, space):
        router = ShardedRingRouter(space=space, shard_count=2, key_bits=KEY_BITS)
        router.add_server("dup")
        with pytest.raises(ValueError):
            router.add_server("dup")

    def test_removal_restabilises_only_the_touched_shard(self, space):
        router = ShardedRingRouter(space=space, shard_count=2, key_bits=KEY_BITS)
        for index in range(8):
            router.add_server(f"s{index}")
        router.stabilise()
        before = {
            shard: router.servers_in_shard(shard) for shard in range(2)
        }
        victim = router.servers_in_shard(0)[0]
        router.remove_server(victim)
        assert victim not in router
        assert router.servers_in_shard(1) == before[1]
        assert victim not in router.servers_in_shard(0)
        # Lookups on both shards still resolve.
        rng = RandomStream(5)
        for _ in range(20):
            probe = key(rng.randbits(KEY_BITS))
            assert router.lookup(probe).owner in router.servers_in_shard(
                router.shard_of_key(probe)
            )
