"""Unit and behavioural tests for the Chord ring substrate."""

from __future__ import annotations

import pytest

from repro.dht.hashspace import HashSpace
from repro.dht.ring import ChordRing
from repro.keys.hashing import Sha1HashFunction
from repro.keys.identifier import IdentifierKey
from repro.util.rng import RandomStream


@pytest.fixture
def ring() -> ChordRing:
    space = HashSpace(bits=16)
    return ChordRing.build(node_count=32, space=space, rng=RandomStream(99))


class TestMembership:
    def test_build_creates_named_nodes(self, ring: ChordRing):
        assert len(ring) == 32
        assert "s0" in ring and "s31" in ring
        assert len(ring.node_names()) == 32

    def test_duplicate_name_rejected(self, ring: ChordRing):
        with pytest.raises(ValueError):
            ring.add_node("s0")

    def test_duplicate_id_rejected(self):
        space = HashSpace(bits=16)
        ring = ChordRing(space=space)
        ring.add_node("a", node_id=100)
        with pytest.raises(ValueError):
            ring.add_node("b", node_id=100)

    def test_remove_node(self, ring: ChordRing):
        ring.remove_node("s5")
        ring.stabilise()
        assert "s5" not in ring
        assert len(ring) == 31

    def test_remove_unknown_node(self, ring: ChordRing):
        with pytest.raises(KeyError):
            ring.remove_node("nope")

    def test_empty_name_rejected(self):
        ring = ChordRing(space=HashSpace(bits=8))
        with pytest.raises(ValueError):
            ring.add_node("")

    def test_node_id_defaults_to_name_hash(self):
        space = HashSpace(bits=16)
        ring = ChordRing(space=space)
        node = ring.add_node("server-x")
        assert node.node_id == ring.hash_function.hash_string("server-x")

    def test_too_many_nodes_for_space(self):
        space = HashSpace(bits=2)
        with pytest.raises(ValueError):
            ChordRing.build(node_count=5, space=space, rng=RandomStream(1))

    def test_hash_function_width_must_match(self):
        with pytest.raises(ValueError):
            ChordRing(space=HashSpace(bits=16), hash_function=Sha1HashFunction(hash_bits=8))


class TestStabilisation:
    def test_ring_order_is_consistent(self, ring: ChordRing):
        ids = ring.node_ids()
        assert ids == sorted(ids)
        names = ring.node_names()
        assert len(names) == len(ids)

    def test_successors_and_predecessors_form_a_cycle(self, ring: ChordRing):
        ids = ring.node_ids()
        for index, node_id in enumerate(ids):
            name = ring.node_names()[index]
            node = ring.node(name)
            assert node.predecessor == ids[(index - 1) % len(ids)]
            assert node.successor == ids[(index + 1) % len(ids)]

    def test_single_node_ring(self):
        ring = ChordRing(space=HashSpace(bits=8))
        ring.add_node("only", node_id=42)
        ring.stabilise()
        node = ring.node("only")
        assert node.successor == 42
        assert node.predecessor == 42
        assert ring.owner_of(7) == "only"
        assert ring.owned_arc("only") == (42, 42)  # the whole ring

    def test_owned_arc_is_the_owner_of_rule(self):
        """``(predecessor, node]`` holds exactly the keys ``owner_of`` gives the node."""
        space = HashSpace(bits=8)
        ring = ChordRing.build(node_count=7, space=space, rng=RandomStream(5))
        for name in ring.node_names():
            low, high = ring.owned_arc(name)
            for key in range(space.size):
                owns = space.in_half_open_interval(key, low, high)
                assert owns == (ring.owner_of(key) == name)

    def test_owned_arc_follows_joins_and_leaves(self, ring: ChordRing):
        ids = ring.node_ids()
        node_id = ids[0] - 1 if ids[0] > 0 else ids[-1] + 1
        ring.add_node("edge", node_id=node_id)
        assert ring.owned_arc("edge") == (ids[-1], node_id)  # stabilises first
        ring.remove_node("edge")
        first = ring.node_names()[0]
        assert ring.owned_arc(first) == (ids[-1], ids[0])
        with pytest.raises(KeyError):
            ring.owned_arc("edge")

    def test_has_node_id_is_exact_before_stabilisation(self, ring: ChordRing):
        ids = ring.node_ids()
        taken = ids[3]
        free = next(value for value in range(1 << 16) if value not in ids)
        assert ring.has_node_id(taken) and not ring.has_node_id(free)
        ring.add_node("pending", node_id=free)
        assert ring.has_node_id(free)
        ring.remove_node("pending")
        assert not ring.has_node_id(free)

    def test_fingers_point_to_successor_of_start(self, ring: ChordRing):
        space = ring.space
        for name in ring.node_names():
            node = ring.node(name)
            assert len(node.fingers) == space.bits
            for index, finger in enumerate(node.fingers):
                start = space.finger_start(node.node_id, index)
                assert finger == ring.node(ring.owner_of(start)).node_id


class TestLookups:
    def test_owner_matches_find_successor(self, ring: ChordRing):
        rng = RandomStream(7)
        for _ in range(50):
            key = rng.randbits(16)
            assert ring.find_successor(key).owner == ring.owner_of(key)

    def test_lookup_from_any_start_agrees(self, ring: ChordRing):
        rng = RandomStream(8)
        for _ in range(20):
            key = rng.randbits(16)
            owners = {
                ring.find_successor(key, start=start).owner
                for start in ["s0", "s7", "s15", "s31"]
            }
            assert len(owners) == 1

    def test_hops_are_logarithmic(self, ring: ChordRing):
        rng = RandomStream(9)
        hops = [ring.find_successor(rng.randbits(16)).hops for _ in range(200)]
        # 32 nodes -> at most log2(32) + small slack hops on average.
        assert sum(hops) / len(hops) <= 6
        assert max(hops) <= 16

    def test_path_starts_at_start_and_ends_at_owner(self, ring: ChordRing):
        result = ring.find_successor(12345, start="s3")
        assert result.path[0] == "s3"
        assert result.path[-1] == result.owner
        assert result.hops == len(result.path) - 1

    def test_lookup_key_uses_hash_function(self, ring: ChordRing):
        key = IdentifierKey(value=999, width=24)
        expected = ring.owner_of(ring.hash_function.hash_key(key))
        assert ring.lookup_key(key).owner == expected

    def test_owner_is_first_node_clockwise(self):
        ring = ChordRing(space=HashSpace(bits=8))
        for name, node_id in [("a", 10), ("b", 100), ("c", 200)]:
            ring.add_node(name, node_id=node_id)
        ring.stabilise()
        assert ring.owner_of(5) == "a"
        assert ring.owner_of(10) == "a"
        assert ring.owner_of(11) == "b"
        assert ring.owner_of(150) == "c"
        assert ring.owner_of(201) == "a"  # wraps around

    def test_unknown_start_rejected(self, ring: ChordRing):
        with pytest.raises(KeyError):
            ring.find_successor(1, start="unknown")

    def test_validation_runs_before_the_lookup_memo(self, ring: ChordRing):
        """A warm memo entry for the same key must not let an invalid call
        silently succeed where a cold-cache call would raise."""
        key = 12345
        ring.find_successor(key)  # warm the (key, None) memo entry
        with pytest.raises(ValueError):
            ring.find_successor(1 << 16)  # outside the 16-bit space
        with pytest.raises(KeyError):
            ring.find_successor(key, start="ghost")
        ident = IdentifierKey(value=7, width=16)
        ring.lookup_key(ident)  # warm the identifier-key memo entry
        with pytest.raises(KeyError):
            ring.lookup_key(ident, start="ghost")
        # The warm entries themselves still answer correctly.
        assert ring.find_successor(key).owner == ring.owner_of(key)

    def test_empty_ring_rejected(self):
        ring = ChordRing(space=HashSpace(bits=8))
        with pytest.raises(ValueError):
            ring.owner_of(3)

    def test_expected_hops_scales_with_log(self):
        small = ChordRing.build(node_count=8, space=HashSpace(bits=16), rng=RandomStream(1))
        large = ChordRing.build(node_count=128, space=HashSpace(bits=16), rng=RandomStream(2))
        assert large.expected_hops() > small.expected_hops()


class TestLookupMemo:
    def test_overflow_evicts_oldest_not_everything(self, ring: ChordRing):
        ring._memo_limit = 8
        rng = RandomStream(12)
        # The memo holds one entry per owner arc: pick keys in nine distinct arcs.
        keys: list[int] = []
        owners: set[str] = set()
        while len(keys) < 9:
            key = rng.randbits(16)
            if ring.owner_of(key) not in owners:
                owners.add(ring.owner_of(key))
                keys.append(key)
        keys, overflow_key = keys[:8], keys[8]
        expected = {key: ring.find_successor(key) for key in keys}
        assert ring.memo_stats()["entries"] == 8
        # One more distinct arc displaces exactly the oldest-inserted entry.
        ring.find_successor(overflow_key)
        stats = ring.memo_stats()
        assert stats["entries"] == 8
        assert stats["evictions"] == 1
        # The seven hot (most recently inserted) entries survived ...
        hits_before = ring.memo_stats()["hits"]
        for key in keys[1:]:
            result = ring.find_successor(key)
            assert (result.owner, result.hops, result.path) == (
                expected[key].owner,
                expected[key].hops,
                expected[key].path,
            )
        assert ring.memo_stats()["hits"] == hits_before + 7
        # ... and the evicted entry still answers identically when re-walked.
        rewalked = ring.find_successor(keys[0])
        assert (rewalked.owner, rewalked.hops, rewalked.path) == (
            expected[keys[0]].owner,
            expected[keys[0]].hops,
            expected[keys[0]].path,
        )

    def test_memo_stats_counters(self, ring: ChordRing):
        stats = ring.memo_stats()
        assert stats == {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "evictions": 0,
        }
        ring.find_successor(1234)
        ring.find_successor(1234)
        ring.find_successor(1234, start="s3")
        stats = ring.memo_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["entries"] == 2
        # Another key in 1234's arc — here the owner's own id — replays the
        # same entry.
        _, owner_id = ring.owned_arc(ring.owner_of(1234))
        assert owner_id != 1234
        assert ring.find_successor(owner_id) is ring.find_successor(1234)
        stats = ring.memo_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (3, 2, 2)
        # lookup_key hashes through a memo outside these counters and then
        # asks the same arc memo: a miss is counted once, a repeat is a hit.
        ident = next(
            IdentifierKey(value=value, width=16)
            for value in range(100)
            if ring.owner_of(ring.hash_function.hash_value(value, 16)) != ring.owner_of(1234)
        )
        ring.lookup_key(ident)
        ring.lookup_key(ident)
        stats = ring.memo_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (4, 3, 3)
        ring.remove_node("s9")
        ring.stabilise()
        assert ring.memo_stats()["invalidations"] >= 0
        assert ring.stabilise_stats()["incremental_events"] >= 1

    def test_stabilise_stats_count_full_and_incremental_work(self):
        space = HashSpace(bits=16)
        ring = ChordRing.build(node_count=32, space=space, rng=RandomStream(3))
        stats = ring.stabilise_stats()
        assert stats["full_rebuilds"] == 1
        assert stats["finger_recomputations"] == 32 * 16
        assert stats["incremental_events"] == 0
        ring.add_node("late", node_id=next(
            i for i in range(space.size) if i not in set(ring.node_ids())
        ))
        ring.stabilise()
        stats = ring.stabilise_stats()
        assert stats["full_rebuilds"] == 1
        assert stats["incremental_events"] == 1
        # The single join recomputed far fewer fingers than a rebuild would.
        assert stats["finger_recomputations"] < 32 * 16 + 32 * 16 // 3


class TestChurn:
    def test_keys_fall_to_successor_after_leave(self, ring: ChordRing):
        key = 54321
        owner = ring.owner_of(key)
        ring.remove_node(owner)
        ring.stabilise()
        new_owner = ring.owner_of(key)
        assert new_owner != owner
        assert new_owner in ring

    def test_join_takes_over_part_of_interval(self, ring: ChordRing):
        rng = RandomStream(10)
        before = {key: ring.owner_of(key) for key in [rng.randbits(16) for _ in range(100)]}
        ring.add_node("newcomer", node_id=before and sorted(before)[50])
        ring.stabilise()
        changed = sum(1 for key, owner in before.items() if ring.owner_of(key) != owner)
        # A single join must not reshuffle the whole mapping.
        assert changed < len(before) // 2

    def test_lookups_still_converge_after_churn(self, ring: ChordRing):
        rng = RandomStream(11)
        for index in range(5):
            ring.remove_node(f"s{index}")
        ring.stabilise()
        for _ in range(30):
            key = rng.randbits(16)
            assert ring.find_successor(key).owner == ring.owner_of(key)
