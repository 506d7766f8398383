"""Incremental stabilisation is bit-identical to a from-scratch rebuild.

The incremental repair in :meth:`ChordRing.stabilise` claims to produce
exactly the state a full rebuild would — fingers, successor lists,
predecessors and lookup hop charges alike.  These tests hold it to that
claim after every event of randomized membership sequences, through bulk
batches, across the small-ring fallback threshold, and for the memo entries
that survive selective invalidation.  The reference is a fresh ring with
``tests/reference/``'s rebuild-on-every-event twin installed.
"""

from __future__ import annotations

import pytest
from reference.naive_clash import rebuild_on_every_event

from repro.dht.hashspace import HashSpace
from repro.dht.ring import ChordRing
from repro.dht.router import ShardedRingRouter
from repro.util.rng import RandomStream

BITS = 16
SPACE = HashSpace(bits=BITS)


def build_ring(members: dict[str, int], naive: bool = False) -> ChordRing:
    """A stabilised ring with exactly the given name → id membership."""
    ring = ChordRing(space=HashSpace(bits=BITS))
    if naive:
        rebuild_on_every_event(ring)
    for name, node_id in members.items():
        ring.add_node(name, node_id=node_id)
    ring.stabilise()
    if naive:
        assert ring.stabilise_stats()["incremental_events"] == 0
    return ring


def ring_state(ring: ChordRing) -> dict[str, tuple]:
    """Every node's complete routing state, keyed by name."""
    state = {}
    for name in ring.node_names():
        node = ring.node(name)
        state[name] = (
            node.node_id,
            node.predecessor,
            tuple(node.successor_list),
            tuple(node.fingers),
        )
    return state


def assert_matches_reference(ring: ChordRing, members: dict[str, int]) -> None:
    """The ring's routing state equals a freshly rebuilt ring's, lookups included."""
    reference = build_ring(members, naive=True)
    assert ring_state(ring) == ring_state(reference)
    rng = RandomStream(4242)
    names = sorted(members)
    for _ in range(20):
        key = rng.randbits(BITS)
        start = names[rng.randint(0, len(names) - 1)]
        got = ring.find_successor(key, start=start)
        want = reference.find_successor(key, start=start)
        assert (got.owner, got.hops, got.path) == (want.owner, want.hops, want.path)


def random_members(rng: RandomStream, count: int, prefix: str = "n") -> dict[str, int]:
    members: dict[str, int] = {}
    used: set[int] = set()
    for index in range(count):
        node_id = rng.randbits(BITS)
        while node_id in used:
            node_id = rng.randbits(BITS)
        used.add(node_id)
        members[f"{prefix}{index}"] = node_id
    return members


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_state_matches_fresh_rebuild_after_every_event(self, seed: int):
        rng = RandomStream(seed)
        members = random_members(rng, 48)
        ring = build_ring(members)
        next_index = 48
        for _ in range(60):
            if members and rng.uniform() < 0.5:
                name = sorted(members)[rng.randint(0, len(members) - 1)]
                ring.remove_node(name)
                del members[name]
            else:
                node_id = rng.randbits(BITS)
                while node_id in {n.node_id for n in map(ring.node, members)}:
                    node_id = rng.randbits(BITS)
                name = f"n{next_index}"
                next_index += 1
                ring.add_node(name, node_id=node_id)
                members[name] = node_id
            ring.stabilise()
            assert_matches_reference(ring, members)
        # The sequence must actually have exercised the incremental path.
        assert ring.stabilise_stats()["incremental_events"] > 0

    def test_batched_events_match_fresh_rebuild(self):
        rng = RandomStream(99)
        members = random_members(rng, 64)
        ring = build_ring(members)
        # A small batch (below the bulk-fallback threshold) applied in one go.
        for name in ["n3", "n17", "n40"]:
            ring.remove_node(name)
            del members[name]
        for index, node_id in enumerate([11, 222, 3333]):
            while node_id in members.values():
                node_id += 1
            name = f"extra{index}"
            ring.add_node(name, node_id=node_id)
            members[name] = node_id
        ring.stabilise()
        assert ring.stabilise_stats()["incremental_events"] == 6
        assert_matches_reference(ring, members)

    def test_add_then_remove_same_node_within_one_batch(self):
        rng = RandomStream(5)
        members = random_members(rng, 32)
        ring = build_ring(members)
        node_id = rng.randbits(BITS)
        while node_id in members.values():
            node_id = rng.randbits(BITS)
        ring.add_node("transient", node_id=node_id)
        ring.remove_node("transient")
        ring.stabilise()
        assert_matches_reference(ring, members)

    def test_bulk_batch_falls_back_to_full_rebuild(self):
        rng = RandomStream(13)
        members = random_members(rng, 20)
        ring = build_ring(members)
        rebuilds_before = ring.stabilise_stats()["full_rebuilds"]
        extra = random_members(rng, 10, prefix="bulk")
        for name, node_id in extra.items():
            while node_id in members.values():
                node_id = (node_id + 1) % SPACE.size
            ring.add_node(name, node_id=node_id)
            members[name] = node_id
        ring.stabilise()
        assert ring.stabilise_stats()["full_rebuilds"] == rebuilds_before + 1
        assert_matches_reference(ring, members)


class TestSmallRingFallback:
    def test_shrink_below_threshold_and_regrow(self):
        rng = RandomStream(31)
        members = random_members(rng, 24)
        ring = build_ring(members)
        # Shrink to a handful of nodes (below successor_list_length + 2) ...
        for name in sorted(members)[: len(members) - 3]:
            ring.remove_node(name)
            del members[name]
            ring.stabilise()
            assert_matches_reference(ring, members)
        # ... and grow back past the threshold, checking at every step.
        for index in range(12):
            node_id = rng.randbits(BITS)
            while node_id in members.values():
                node_id = rng.randbits(BITS)
            name = f"regrow{index}"
            ring.add_node(name, node_id=node_id)
            members[name] = node_id
            ring.stabilise()
            assert_matches_reference(ring, members)

    def test_empty_ring_edges(self):
        ring = ChordRing(space=HashSpace(bits=BITS))
        ring.stabilise()  # stabilising an empty ring is a no-op, not an error
        with pytest.raises(ValueError):
            ring.owner_of(1)
        ring.add_node("a", node_id=100)
        ring.stabilise()
        assert ring.owner_of(1) == "a"
        ring.remove_node("a")
        ring.stabilise()
        with pytest.raises(ValueError):
            ring.owner_of(1)
        # The ring is usable again after refilling from empty.
        members = {"x": 7, "y": 4000, "z": 60000}
        for name, node_id in members.items():
            ring.add_node(name, node_id=node_id)
        ring.stabilise()
        assert_matches_reference(ring, members)

    def test_duplicate_id_rejected_mid_sequence(self):
        rng = RandomStream(77)
        members = random_members(rng, 16)
        ring = build_ring(members)
        taken = next(iter(members.values()))
        with pytest.raises(ValueError):
            ring.add_node("clash", node_id=taken)
        # The rejected add must not have left a phantom pending event.
        ring.stabilise()
        assert_matches_reference(ring, members)


class TestSelectiveMemoInvalidation:
    def test_surviving_entries_replay_exactly_and_some_survive(self):
        rng = RandomStream(55)
        members = random_members(rng, 64)
        ring = build_ring(members)
        keys = [rng.randbits(BITS) for _ in range(200)]
        for key in keys:
            ring.find_successor(key)
        warm = ring.memo_stats()["entries"]
        # One entry per owner arc the keys fall in, each walked once.
        assert warm == len({ring.owner_of(key) for key in keys}) < len(set(keys))
        assert ring.memo_stats()["misses"] == warm
        # One membership event: only entries whose path crosses repaired
        # nodes may be dropped.
        victim = sorted(members)[10]
        ring.remove_node(victim)
        del members[victim]
        ring.stabilise()
        stats = ring.memo_stats()
        assert 0 < stats["invalidations"] < warm  # selective, not wholesale
        assert stats["entries"] == warm - stats["invalidations"]
        hits_before = stats["hits"]
        reference = build_ring(members, naive=True)
        for key in keys:
            got = ring.find_successor(key)
            want = reference.find_successor(key)
            assert (got.owner, got.hops, got.path) == (want.owner, want.hops, want.path)
        assert ring.memo_stats()["hits"] > hits_before  # survivors were reused

    def test_default_start_entries_invalidated_when_first_node_changes(self):
        members = {"a": 100, "b": 2000, "c": 30000}
        ring = build_ring(members)
        # Grow the ring so the incremental path is eligible, then memoize a
        # default-start lookup and change the first node in ring order.
        for index in range(8):
            members[f"pad{index}"] = 40000 + index * 1000
            ring.add_node(f"pad{index}", node_id=members[f"pad{index}"])
        ring.stabilise()
        result = ring.find_successor(500)  # default start = node "a" (id 100)
        assert result.path[0] == "a"
        ring.add_node("front", node_id=5)  # new first node in ring order
        members["front"] = 5
        ring.stabilise()
        fresh = ring.find_successor(500)
        assert fresh.path[0] == "front"
        assert_matches_reference(ring, members)


def fresh_walk(ring: ChordRing, key: int, start: str | None):
    """``find_successor`` walked with the lookup memo cleared (then restored)."""
    memo, paths = ring._lookup_memo, ring._memo_paths
    ring._lookup_memo, ring._memo_paths = {}, {}
    try:
        return ring.find_successor(key, start=start)
    finally:
        ring._lookup_memo, ring._memo_paths = memo, paths


class TestArcMemoProperty:
    """The per-arc memo under random churn: every hit replays a fresh walk."""

    @pytest.mark.parametrize("seed", [3, 14, 15, 92, 65])
    def test_memoised_routes_equal_fresh_walks_under_churn(self, seed: int):
        rng = RandomStream(seed)
        members = random_members(rng, 16 + rng.randint(0, 32))
        ring = build_ring(members)
        # A small key pool, so later lookups land in arcs the memo knows.
        pool = [rng.randbits(BITS) for _ in range(64)]
        starts: set[str | None] = set()
        next_index = len(members)
        for _ in range(40):
            # One or two joins / leaves per stabilise (incremental path).
            for _ in range(1 + rng.randint(0, 1)):
                if rng.uniform() < 0.5 and len(members) > 12:
                    name = sorted(members)[rng.randint(0, len(members) - 1)]
                    ring.remove_node(name)
                    del members[name]
                else:
                    node_id = rng.randbits(BITS)
                    while node_id in members.values():
                        node_id = rng.randbits(BITS)
                    name = f"n{next_index}"
                    next_index += 1
                    ring.add_node(name, node_id=node_id)
                    members[name] = node_id
            ring.stabilise()
            names = sorted(members)
            for _ in range(30):
                key = pool[rng.randint(0, len(pool) - 1)]
                if rng.uniform() < 0.5:
                    key = rng.randbits(BITS)
                start = None if rng.uniform() < 0.2 else names[rng.randint(0, len(names) - 1)]
                starts.add(start)
                got = ring.find_successor(key, start=start)
                want = fresh_walk(ring, key, start)
                assert (got.owner, got.hops, got.path) == (want.owner, want.hops, want.path)
                assert got.owner == ring.owner_of(key)
            assert ring.memo_stats()["entries"] <= len(ring) * len(starts)
        stats = ring.memo_stats()
        assert stats["hits"] > 0 and stats["invalidations"] > 0
        assert ring.stabilise_stats()["incremental_events"] > 0


class TestShardedRouterIncremental:
    def test_randomized_churn_touches_only_dirty_shards(self):
        space = HashSpace(bits=BITS)
        router = ShardedRingRouter(shard_count=4, space=space, key_bits=24)
        rng = RandomStream(11)
        names = [f"s{i}" for i in range(48)]
        for name in names:
            router.add_server(name)
        router.stabilise()
        # Rebuild counters per shard ring: churn one server and check only
        # its shard's ring did any stabilisation work.
        work_before = [
            (r.stabilise_stats()["full_rebuilds"], r.stabilise_stats()["incremental_events"])
            for r in router.rings()
        ]
        victim = names[7]
        shard = router.server_shard(victim)
        router.remove_server(victim)
        router.stabilise()
        router.add_server(victim)
        router.stabilise()
        for index, ring in enumerate(router.rings()):
            rebuilds, events = (
                ring.stabilise_stats()["full_rebuilds"],
                ring.stabilise_stats()["incremental_events"],
            )
            if index == shard:
                assert (rebuilds, events) != work_before[index]
            else:
                assert (rebuilds, events) == work_before[index]

    def test_sharded_state_matches_fresh_routers_after_churn(self):
        space = HashSpace(bits=BITS)
        router = ShardedRingRouter(shard_count=4, space=space, key_bits=24)
        rng = RandomStream(21)
        active = [f"s{i}" for i in range(40)]
        for name in active:
            router.add_server(name)
        router.stabilise()
        next_index = 40
        for _ in range(12):
            if rng.uniform() < 0.5 and len(active) > 30:
                name = active.pop(rng.randint(0, len(active) - 1))
                router.remove_server(name)
            else:
                name = f"s{next_index}"
                next_index += 1
                router.add_server(name)
                active.append(name)
            router.stabilise()
            # Shard placement is order-dependent, so the reference for each
            # shard is a fresh ring with that shard's exact membership.
            for shard_ring in router.rings():
                if len(shard_ring) == 0:
                    continue
                shard_members = {
                    name: shard_ring.node(name).node_id
                    for name in shard_ring.node_names()
                }
                reference = build_ring(shard_members, naive=True)
                assert ring_state(shard_ring) == ring_state(reference)
