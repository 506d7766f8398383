"""The join handoff selects its movers by ring arc; the naive scan is the oracle.

``ClashSystem.handle_server_join`` picks the groups a joiner takes over by
slicing the joiner's arc ``(predecessor, joiner]`` out of the position-sorted
arc index and sorts only the movers.  The from-scratch rule it replaced —
sort the whole registry, resolve every group's owner through the router —
lives here, as the reference every case is compared against, handoff order
included.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.config import ClashConfig
from repro.core.messages import ReleaseKeyGroup
from repro.core.protocol import ClashSystem
from repro.dht.partition import PartitionMap
from repro.dht.router import RingRouter
from repro.keys.hashing import Sha1HashFunction
from repro.keys.keygroup import KeyGroup
from repro.util.rng import RandomStream

# 12-bit keys bootstrapped at depth 4: sixteen root blocks of 256 keys, so a
# four-shard partition map has room to move its boundaries.
CONFIG = ClashConfig.small_scale().with_overrides(initial_depth=4)
KEY_BITS = CONFIG.key_bits
BLOCKS = 1 << CONFIG.initial_depth
BLOCK = 1 << (KEY_BITS - CONFIG.initial_depth)
RING_SIZE = 1 << CONFIG.hash_bits


def _system(server_count: int, shards: int = 1, seed: int = 55) -> ClashSystem:
    return ClashSystem.create(
        CONFIG, server_count=server_count, rng=RandomStream(seed), shards=shards
    )


def _position(system: ClashSystem, group: KeyGroup) -> int:
    """The group's point on the hash ring, computed from scratch."""
    return system.router.rings()[0].hash_function.hash_key(group.virtual_key)


def _split_groups(system: ClashSystem, count: int, seed: int = 3) -> None:
    rng = RandomStream(seed)
    for _ in range(count):
        groups = sorted(system.active_groups().items())
        group, owner = groups[rng.randint(0, len(groups) - 1)]
        system.server(owner).set_group_rate(group, 3 * CONFIG.server_capacity)
        system.split_server(owner)


def _partition(cuts: list[int], version: int) -> PartitionMap:
    """The map whose interior boundaries sit after the given block counts."""
    return PartitionMap(
        boundaries=(0, *(cut * BLOCK for cut in cuts), 1 << KEY_BITS),
        key_bits=KEY_BITS,
        granularity_depth=CONFIG.initial_depth,
        version=version,
    )


def naive_join_movers(
    system: ClashSystem, joiner: str, node_id: int
) -> list[tuple[KeyGroup, str]]:
    """The reference selection: full registry sort, one owner resolution each.

    Runs against a copy of the routing tier that already contains the joiner,
    so the deployment under test is untouched.
    """
    router = copy.deepcopy(system.router)
    router.add_server(joiner, node_id=node_id)
    router.stabilise()
    return [
        (group, owner)
        for group, owner in sorted(system.active_groups().items())
        if router.owner_of_key(group.virtual_key) == joiner and owner != joiner
    ]


def join_and_check(system: ClashSystem, joiner: str, node_id: int) -> dict[KeyGroup, str]:
    """Join ``joiner`` and hold the handoff to the oracle, order included."""
    expected = naive_join_movers(system, joiner, node_id)
    handed = system.handle_server_join(joiner, node_id=node_id)
    assert list(handed.items()) == expected
    for group, _former in expected:
        assert system.owner_of_group(group) == joiner
    system.verify_invariants()
    return handed


def _free_id_near(system: ClashSystem, node_id: int) -> int:
    while system.router.has_node_id(node_id):
        node_id = (node_id + 1) % RING_SIZE
    return node_id


# ---------------------------------------------------------------------- #
# Property: arc selection == naive scan, over random deployments
# ---------------------------------------------------------------------- #

_events = st.one_of(
    st.tuples(st.just("join"), st.integers(0, RING_SIZE - 1)),
    # Join at (or one step either side of) an active group's own ring point:
    # the inclusive and exclusive ends of an arc.
    st.tuples(st.just("join_at"), st.integers(0, 1 << 16), st.sampled_from([-1, 0, 1])),
    st.tuples(st.just("split"), st.integers(0, 1 << 16)),
    st.tuples(st.just("fail"), st.integers(0, 1 << 16)),
    st.tuples(
        st.just("rebalance"),
        st.lists(st.integers(1, BLOCKS - 1), min_size=3, max_size=3, unique=True),
    ),
)


@given(
    shards=st.sampled_from([1, 2, 4]),
    extra_servers=st.integers(0, 12),
    seed=st.integers(0, 1 << 16),
    events=st.lists(_events, min_size=1, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_arc_selection_equals_the_naive_scan(shards, extra_servers, seed, events):
    system = _system(shards + extra_servers, shards=shards, seed=seed)
    joins = 0
    version = 0
    for event in events:
        kind = event[0]
        if kind in ("join", "join_at"):
            if kind == "join":
                node_id = event[1]
            else:
                groups = sorted(system.active_groups())
                group = groups[event[1] % len(groups)]
                node_id = (_position(system, group) + event[2]) % RING_SIZE
            if system.router.has_node_id(node_id):
                continue
            join_and_check(system, f"j{joins}", node_id)
            joins += 1
        elif kind == "split":
            _split_groups(system, 1, seed=event[1])
        elif kind == "fail":
            names = system.sorted_server_names()
            victim = names[event[1] % len(names)]
            if len(names) > 1 and system.can_remove_server(victim):
                system.handle_server_failure(victim)
        elif shards > 1:
            version += 1
            system.rebalance_partition(
                _partition(sorted(event[1][: shards - 1]), version)
            )
    system.verify_invariants()


# ---------------------------------------------------------------------- #
# Explicit arcs
# ---------------------------------------------------------------------- #


class TestArcEdges:
    def test_wrap_around_arc_of_the_smallest_id(self):
        """A joiner below every other id owns ``(largest id, size) ∪ [0, id]``."""
        system = _system(6, seed=4)
        _split_groups(system, 40)
        ids = system.router.node_ids()
        node_id = ids[0] - 1
        assert node_id >= 0
        positions = [_position(system, group) for group in system.active_groups()]
        # The case is only worth its name when groups sit on both sides of zero.
        assert any(position > ids[-1] for position in positions)
        assert any(position <= node_id for position in positions)
        handed = join_and_check(system, "lowest", node_id)
        moved = {_position(system, group) for group in handed}
        assert any(position > ids[-1] for position in moved)
        assert any(position <= node_id for position in moved)

    def test_joiner_id_is_inclusive_and_predecessor_id_exclusive(self):
        system = _system(8)
        _split_groups(system, 20)
        target = sorted(system.active_groups())[5]
        point = _position(system, target)
        assert not system.router.has_node_id(point)
        assert not system.router.has_node_id((point + 1) % RING_SIZE)
        # A group sitting exactly on the joiner's id belongs to the joiner…
        handed = join_and_check(system, "on-the-point", point)
        assert target in handed
        # …and one sitting exactly on the predecessor's id does not move.
        later = join_and_check(system, "one-past", (point + 1) % RING_SIZE)
        assert system.ring.owned_arc("one-past") == (point, (point + 1) % RING_SIZE)
        assert target not in later
        assert system.owner_of_group(target) == "on-the-point"

    def test_two_node_shard_ring(self):
        """One server a shard: the joiner's predecessor is its only neighbour."""
        system = _system(4, shards=4)
        _split_groups(system, 30)
        assert [len(ring) for ring in system.router.rings()] == [1, 1, 1, 1]
        moved = {True: 0, False: 0}
        for index in range(4):
            node_id = _free_id_near(system, 9973 * (index + 1) % RING_SIZE)
            handed = join_and_check(system, f"j{index}", node_id)
            ring = system.router.rings()[index]
            assert len(ring) == 2
            low, high = ring.owned_arc(f"j{index}")
            assert {low, high} == set(ring.node_ids())
            moved[low > high] += len(handed)
        # Both shapes of arc — through zero and not — carried groups.
        assert moved[True] and moved[False], moved

    def test_join_right_after_a_rebalance(self):
        """Positions stay memoised across a map change; the shard check does not."""
        system = _system(8, shards=4)
        _split_groups(system, 30)
        join_and_check(system, "warm-up", _free_id_near(system, 1234))
        memo_before = dict(system._ring_positions)
        assert memo_before
        system.rebalance_partition(_partition([2, 6, 13], version=1))
        assert system._ring_positions == memo_before
        node_id = _free_id_near(system, 40000)
        expected = naive_join_movers(system, "after", node_id)
        # Groups the old map kept on the joiner's shard but the new one does
        # not (or the reverse) are exactly what a memoised shard would get
        # wrong, so make sure the arc holds candidates the shard check rejects.
        router = copy.deepcopy(system.router)
        ring = router.rings()[router.add_server("after", node_id=node_id)]
        in_arc = [
            group
            for group in system.active_groups()
            if ring.owner_of(_position(system, group)) == "after"
        ]
        assert len(in_arc) > len(expected)
        handed = system.handle_server_join("after", node_id=node_id)
        assert list(handed.items()) == expected
        system.verify_invariants()

    def test_group_left_on_a_stale_owner_by_a_refused_release(self):
        system = _system(8)
        _split_groups(system, 20)
        target = sorted(system.active_groups())[7]
        former = system.owner_of_group(target)
        point = _position(system, target)
        assert not any(
            system.router.has_node_id((point + step) % RING_SIZE) for step in range(4)
        )
        endpoint = system._make_endpoint(system.server(former))

        def refusing(envelope):
            payload = envelope.payload
            if isinstance(payload, ReleaseKeyGroup) and payload.group == target:
                return None
            return endpoint(envelope)

        system.transport.bind(former, refusing, shard=0)
        expected = naive_join_movers(system, "refused", (point + 3) % RING_SIZE)
        handed = system.handle_server_join("refused", node_id=(point + 3) % RING_SIZE)
        assert (target, former) in expected
        assert list(handed.items()) == [pair for pair in expected if pair[0] != target]
        # The refusal left the group on an owner its key no longer hashes to.
        assert system.owner_of_group(target) == former
        assert system.router.owner_of_key(target.virtual_key) == "refused"
        system.transport.bind(former, endpoint, shard=0)
        # A join elsewhere leaves it alone; one whose arc covers it takes it
        # from the stale owner, not from the server its key hashed to.
        elsewhere = join_and_check(
            system, "elsewhere", _free_id_near(system, (point + RING_SIZE // 2) % RING_SIZE)
        )
        assert target not in elsewhere
        handed = join_and_check(system, "covering", point)
        assert handed[target] == former
        assert system.owner_of_group(target) == "covering"


# ---------------------------------------------------------------------- #
# Work: what a join may and may not compute
# ---------------------------------------------------------------------- #


class _JoinWork:
    """Counts the expensive primitives the old selection spent its time in."""

    def __init__(self, monkeypatch) -> None:
        self.hashed: list[int] = []
        self.comparisons = 0
        self.owner_resolutions = 0
        hash_value = Sha1HashFunction.hash_value
        less_than = KeyGroup.__lt__

        def counting_hash(function, value, width):
            self.hashed.append(value)
            return hash_value(function, value, width)

        def counting_lt(group, other):
            self.comparisons += 1
            return less_than(group, other)

        monkeypatch.setattr(Sha1HashFunction, "hash_value", counting_hash)
        monkeypatch.setattr(KeyGroup, "__lt__", counting_lt)
        for router_class in RingRouter.__subclasses__():
            owner_of_key = router_class.owner_of_key

            def counting_owner(router, key, owner_of_key=owner_of_key):
                self.owner_resolutions += 1
                return owner_of_key(router, key)

            monkeypatch.setattr(router_class, "owner_of_key", counting_owner)

    def reset(self) -> None:
        self.hashed.clear()
        self.comparisons = 0
        self.owner_resolutions = 0


@pytest.mark.parametrize("shards", [1, 4])
def test_a_join_hashes_nothing_and_resolves_no_owner(monkeypatch, shards):
    """Every registered group already has its row in the arc index."""
    system = _system(12, shards=shards)
    _split_groups(system, 30)
    work = _JoinWork(monkeypatch)
    moved = 0
    for name, point in (("first", 1000), ("second", 30000), ("third", 50000)):
        work.reset()
        handed = system.handle_server_join(name, node_id=_free_id_near(system, point))
        assert work.hashed == []
        assert work.owner_resolutions == 0
        # Only the movers are ordered: far fewer comparisons than one pass of
        # a full-registry sort would need.
        assert work.comparisons <= len(handed) * len(handed).bit_length()
        assert work.comparisons < len(system.active_groups())
        moved += len(handed)
        _split_groups(system, 5, seed=len(name))
    assert moved, "joins that move nothing prove nothing"
    system.verify_invariants()


def _record_position_hashes(system: ClashSystem) -> list[int]:
    """Every virtual key the registry hashes onto the ring from now on."""
    hashed: list[int] = []
    inner = system._position_hash

    def hash_value(value, width):
        hashed.append(value)
        return inner.hash_value(value, width)

    system._position_hash = SimpleNamespace(hash_value=hash_value)
    return hashed


@pytest.mark.parametrize("shards", [1, 4])
def test_a_split_hashes_at_most_its_new_right_children(shards):
    """A left child shares its parent's virtual key, hence its memo entry.

    A split that collides with itself splits its right child again, so the
    right children it creates are every group on the path from the chosen
    group down to the outcome's right child.
    """
    system = _system(12, shards=shards)
    _split_groups(system, 10)
    hashed = _record_position_hashes(system)
    rng = RandomStream(17)
    splits = hashed_total = 0
    for _ in range(20):
        groups = sorted(system.active_groups().items())
        group, owner = groups[rng.randint(0, len(groups) - 1)]
        system.server(owner).set_group_rate(group, 3 * CONFIG.server_capacity)
        chosen = system.server(owner).choose_group_to_split()
        hashed.clear()
        outcome = system.split_server(owner)
        if outcome is None:
            assert hashed == []
            continue
        new_rights = set()
        step = outcome.right
        while step.depth > chosen.depth:
            new_rights.add(step.virtual_key.value)
            step = step.parent()
        assert set(hashed) <= new_rights
        assert len(hashed) == len(set(hashed))
        splits += 1
        hashed_total += len(hashed)
    # Not vacuous: splits hashed their right children and nothing else.
    assert splits and hashed_total
    system.verify_invariants()


def test_memo_is_cleared_at_its_limit(monkeypatch):
    monkeypatch.setattr(protocol, "RING_POSITION_MEMO_LIMIT", 4)
    system = _system(8)
    assert 0 < len(system._ring_positions) <= 4
    _split_groups(system, 10)
    assert 0 < len(system._ring_positions) <= 4
    # The arc index keeps every row through a clear: joins still select
    # exactly what the oracle does.
    join_and_check(system, "a", _free_id_near(system, 1000))
    join_and_check(system, "b", _free_id_near(system, 30000))
    assert 0 < len(system._ring_positions) <= 4


# ---------------------------------------------------------------------- #
# The invariant oracle sees the memo and the arc index
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("shards", [1, 2])
def test_verify_invariants_catches_a_corrupt_memo_entry(shards):
    system = _system(8, shards=shards)
    _split_groups(system, 10)
    system.handle_server_join("joiner", node_id=_free_id_near(system, 1000))
    system.verify_invariants()
    group = sorted(system.active_groups())[3]
    value = group.virtual_key.value
    system._ring_positions[value] = (system._ring_positions[value] + 1) % RING_SIZE
    with pytest.raises(AssertionError, match="memoised ring position"):
        system.verify_invariants()


def _drop_arc_row(system: ClashSystem) -> None:
    del system._arc_index[3]


def _shift_arc_row(system: ClashSystem) -> None:
    """One row keeps its group but moves one point along the ring."""
    position, group = system._arc_index[3]
    system._arc_index[3] = ((position + 1) % RING_SIZE, group)


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("corrupt", [_drop_arc_row, _shift_arc_row])
def test_verify_invariants_catches_a_corrupt_arc_index(shards, corrupt):
    system = _system(8, shards=shards)
    _split_groups(system, 10)
    system.handle_server_join("joiner", node_id=_free_id_near(system, 1000))
    system.verify_invariants()
    corrupt(system)
    with pytest.raises(AssertionError, match="arc index is stale"):
        system.verify_invariants()
