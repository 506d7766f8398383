"""Every finger equals a linear-scan successor of its start, on tiny rings.

The from-scratch rebuild and the incremental repair take a node's finger
table from the same helper, so holding one path to the other cannot catch a
bug they share, and ``ChordRing.owner_of`` resolves through the same
bisection.  The oracle here recomputes every finger the slow way: walk the
ring point by point from ``HashSpace.finger_start`` until a member id is met.
Hash spaces of 3–8 bits make wrap-around through zero, full rings and
single-node rings common rather than rare.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from reference.naive_clash import rebuild_on_every_event

from repro.dht.hashspace import HashSpace
from repro.dht.ring import ChordRing


def linear_successor(ids: set[int], start: int, space: HashSpace) -> int:
    """The first member id at or clockwise after ``start``."""
    for step in range(space.size):
        point = (start + step) % space.size
        if point in ids:
            return point
    raise AssertionError("the ring has no members")


def assert_fingers_exact(ring: ChordRing, members: dict[str, int]) -> None:
    space = ring.space
    ids = set(members.values())
    for name, node_id in members.items():
        expected = [
            linear_successor(ids, space.finger_start(node_id, index), space)
            for index in range(space.bits)
        ]
        assert ring.node(name).fingers == expected, f"fingers of {name} ({node_id})"


# One membership event: add a node at a point (skipped when taken) or remove
# the member picked by index; ``settle`` stabilises and checks right after it,
# so runs mix single-event incremental repairs with batched rebuilds.
_events = st.lists(
    st.tuples(st.booleans(), st.integers(0, 255), st.booleans()),
    min_size=1,
    max_size=60,
)


@given(bits=st.integers(3, 8), events=_events, naive=st.booleans())
@settings(max_examples=300, deadline=None)
def test_every_finger_is_the_linear_successor_of_its_start(bits, events, naive):
    """Both the production ring and the rebuild-on-every-event twin."""
    space = HashSpace(bits=bits)
    ring = ChordRing(space=space)
    if naive:
        rebuild_on_every_event(ring)
    members: dict[str, int] = {}
    for serial, (add, point, settle) in enumerate(events):
        if add or len(members) <= 1:
            point %= space.size
            if point in members.values():
                continue
            name = f"n{serial}"
            ring.add_node(name, node_id=point)
            members[name] = point
        else:
            victim = sorted(members)[point % len(members)]
            ring.remove_node(victim)
            del members[victim]
        if settle:
            ring.stabilise()
            assert_fingers_exact(ring, members)
    ring.stabilise()
    assert_fingers_exact(ring, members)
    if naive:
        assert ring.stabilise_stats()["incremental_events"] == 0


def test_single_node_ring_points_every_finger_at_itself():
    space = HashSpace(bits=3)
    ring = ChordRing(space=space)
    ring.add_node("only", node_id=5)
    ring.stabilise()
    assert ring.node("only").fingers == [5, 5, 5]
    assert_fingers_exact(ring, {"only": 5})


def test_the_incremental_repair_is_held_to_the_oracle():
    """Grow and shrink a 6-bit ring one stabilised event at a time, so every
    event past the small-ring floor goes through the incremental repair."""
    space = HashSpace(bits=6)
    ring = ChordRing(space=space)
    members: dict[str, int] = {}
    for point in range(1, 64, 3):
        ring.add_node(f"n{point}", node_id=point)
        members[f"n{point}"] = point
        ring.stabilise()
        assert_fingers_exact(ring, members)
    for name in sorted(members)[::2]:
        ring.remove_node(name)
        del members[name]
        ring.stabilise()
        assert_fingers_exact(ring, members)
    assert ring.stabilise_stats()["incremental_events"] > 20
