"""Unit tests for repro.dht.node."""

from __future__ import annotations

import itertools

import pytest

from repro.dht.hashspace import HashSpace
from repro.dht.node import ChordNode
from repro.dht.ring import ChordRing
from repro.util.rng import RandomStream


def reference_closest_preceding_finger(node: ChordNode, space: HashSpace, target: int) -> int:
    """The routing step as it was first written: one validated
    ``in_open_interval`` call per finger."""
    for finger_id in reversed(node.fingers):
        if space.in_open_interval(finger_id, node.node_id, target):
            return finger_id
    return node.node_id


def reference_walk(ring: ChordRing, key: int, start: str) -> tuple[str, ...]:
    """``ChordRing.find_successor``'s forwarding path, stepped with the reference."""
    space = ring.space
    by_id = {ring.node(name).node_id: ring.node(name) for name in ring.node_names()}
    current = ring.node(start)
    path = [current.name]
    while not current.owns(space, key):
        next_id = reference_closest_preceding_finger(current, space, key)
        if next_id == current.node_id:
            next_id = current.successor
        current = by_id[next_id]
        path.append(current.name)
    return tuple(path)


class TestChordNode:
    def test_successor_requires_successor_list(self):
        node = ChordNode(node_id=5, name="s0")
        with pytest.raises(ValueError):
            _ = node.successor
        node.successor_list = [9, 12]
        assert node.successor == 9

    def test_owns_interval(self):
        space = HashSpace(bits=4)
        node = ChordNode(node_id=8, name="s0", predecessor=4)
        assert node.owns(space, 8)
        assert node.owns(space, 5)
        assert not node.owns(space, 4)
        assert not node.owns(space, 9)

    def test_owns_with_wraparound(self):
        space = HashSpace(bits=4)
        node = ChordNode(node_id=1, name="s0", predecessor=13)
        assert node.owns(space, 0)
        assert node.owns(space, 14)
        assert node.owns(space, 1)
        assert not node.owns(space, 7)

    def test_owns_requires_predecessor(self):
        space = HashSpace(bits=4)
        with pytest.raises(ValueError):
            ChordNode(node_id=1, name="s0").owns(space, 0)

    def test_closest_preceding_finger(self):
        space = HashSpace(bits=4)
        node = ChordNode(node_id=0, name="s0", fingers=[2, 2, 5, 9])
        # Target 8: finger 5 is the closest one strictly inside (0, 8).
        assert node.closest_preceding_finger(space, 8) == 5
        # Target 12: finger 9 precedes it.
        assert node.closest_preceding_finger(space, 12) == 9
        # Target 1: no finger in (0, 1) -> fall back to self.
        assert node.closest_preceding_finger(space, 1) == 0

    def test_closest_preceding_finger_empty_table(self):
        space = HashSpace(bits=4)
        node = ChordNode(node_id=3, name="s0")
        assert node.closest_preceding_finger(space, 9) == 3

    def test_target_must_be_a_ring_point(self):
        space = HashSpace(bits=4)
        node = ChordNode(node_id=3, name="s0", fingers=[5])
        for target in (-1, 16, 2.0, True):
            with pytest.raises(ValueError):
                node.closest_preceding_finger(space, target)

    def test_every_node_finger_target_triple_matches_the_interval_test(self):
        """Exhaustive over a 16-point ring: wrap-around, ``target == node_id``
        (the whole ring but the node) and a finger equal to either end."""
        space = HashSpace(bits=4)
        for node_id, finger, target in itertools.product(range(space.size), repeat=3):
            node = ChordNode(node_id=node_id, name="n", fingers=[finger])
            assert node.closest_preceding_finger(space, target) == (
                reference_closest_preceding_finger(node, space, target)
            ), (node_id, finger, target)

    def test_every_key_predecessor_node_triple_matches_the_interval_test(self):
        """``owns`` against ``in_half_open_interval`` over a 16-point ring:
        wrap-around, a key on either end and ``predecessor == node_id`` (the
        single-node ring, which owns everything)."""
        space = HashSpace(bits=4)
        for key, predecessor, node_id in itertools.product(range(space.size), repeat=3):
            node = ChordNode(node_id=node_id, name="n", predecessor=predecessor)
            assert node.owns(space, key) == space.in_half_open_interval(
                key, predecessor, node_id
            ), (key, predecessor, node_id)

    def test_owns_validates_the_key(self):
        space = HashSpace(bits=4)
        node = ChordNode(node_id=3, name="s0", predecessor=3)
        for key in (-1, 16, 2.0, True, None):
            with pytest.raises(ValueError):
                node.owns(space, key)
        # With no predecessor the node cannot answer, whatever the key.
        for key in (0, 16):
            with pytest.raises(ValueError, match="no predecessor"):
                ChordNode(node_id=3, name="s0").owns(space, key)

    @pytest.mark.parametrize("node_count", [1, 2, 3, 7, 16])
    def test_walks_on_small_rings_match_the_reference_walk(self, node_count):
        """Every (start, key) lookup on a 6-bit ring: same hops, same path."""
        space = HashSpace(bits=6)
        ring = ChordRing.build(node_count=node_count, space=space, rng=RandomStream(node_count))
        for start in ring.node_names():
            for key in range(space.size):
                result = ring.find_successor(key, start=start)
                assert result.path == reference_walk(ring, key, start), (start, key)
                assert result.hops == len(result.path) - 1

    def test_describe(self):
        node = ChordNode(node_id=7, name="s7", successor_list=[9], predecessor=5, fingers=[9])
        snapshot = node.describe()
        assert snapshot["name"] == "s7"
        assert snapshot["successor"] == 9
        assert snapshot["finger_count"] == 1
