"""The membership path's ``DeliveryFailed`` handlers, each reached on purpose.

A join's handoff and a failure's re-issued transfer can meet a server that
dies with the request in flight.  Time-modelling transports produce that
only when a schedule happens to line it up; :class:`FailNthRequest` produces
it on demand: it wraps a transport, lets every request through except the
n-th one it selects, kills that request's destination the way a concurrent
failure would, and raises the typed :class:`DeliveryFailed`.  Each test below
ends in a state only its handler produces, so it fails when that handler's
body is replaced by ``raise``:

* ``_hand_over``'s release to a dead former owner;
* ``_hand_over``'s transfer to a dead receiver (restart as a root);
* ``handle_server_failure``'s re-issue to a dead new owner;
* ``consolidate_server``'s put-back to a child that died after releasing
  (restart as a root).

Three more tests kill a former owner that still has movers queued behind the
failed one, in a join and in a partition rebalance: its failure recovery
re-homes those movers, so the handoff skips them, and a recovery running
under a freshly installed partition map re-links no orphan across shards.
"""

from __future__ import annotations

import copy
from collections.abc import Callable

from repro.app.query_store import Query
from repro.core.config import ClashConfig
from repro.core.messages import AcceptKeyGroup, MessageCategory, ReleaseKeyGroup
from repro.core.protocol import ClashSystem
from repro.dht.partition import PartitionMap
from repro.keys.keygroup import KeyGroup
from repro.net.envelope import Envelope
from repro.net.inline import InlineTransport
from repro.net.transport import DeliveryFailed, Transport
from repro.util.rng import RandomStream

CONFIG = ClashConfig.small_scale()


class FailNthRequest:
    """A transport decorator that fails the ``n``-th request it selects.

    Disarmed it forwards everything to ``inner``.  Once armed, requests for
    which ``selects`` is true are counted; the ``n``-th runs ``kill`` on its
    envelope (the destination dies with the request in flight) and raises
    :class:`DeliveryFailed` instead of being delivered.  :meth:`before`
    stages a concurrent change that lands while an earlier request travels.
    """

    def __init__(self, inner: Transport) -> None:
        self._inner = inner
        self._n = 0
        self._selects: Callable[[Envelope], bool] = lambda envelope: False
        self._kill: Callable[[Envelope], None] = lambda envelope: None
        self._before: tuple[Callable[[Envelope], bool], Callable[[], None]] | None = None
        self.selected = 0
        self.failed: list[Envelope] = []

    def arm(self, n: int, selects, kill) -> None:
        self._n, self._selects, self._kill = n, selects, kill
        self.selected = 0

    def before(self, selects, change) -> None:
        """Run ``change()`` once, just before the first request ``selects``
        picks is delivered (that request itself is delivered normally)."""
        self._before = (selects, change)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def request(self, envelope: Envelope):
        if self._before is not None and self._before[0](envelope):
            change = self._before[1]
            self._before = None
            change()
        if self._selects(envelope):
            self.selected += 1
            if self.selected == self._n:
                self.failed.append(envelope)
                self._kill(envelope)
                raise DeliveryFailed(envelope.destination, envelope)
        return self._inner.request(envelope)


def _system(
    server_count: int = 12, seed: int = 55, shards: int = 1
) -> tuple[ClashSystem, FailNthRequest]:
    transport = FailNthRequest(InlineTransport())
    system = ClashSystem.create(
        CONFIG,
        server_count=server_count,
        rng=RandomStream(seed),
        transport=transport,
        shards=shards,
    )
    rng = RandomStream(3)
    for _ in range(30):
        groups = sorted(system.active_groups().items())
        group, owner = groups[rng.randint(0, len(groups) - 1)]
        system.server(owner).set_group_rate(group, 3 * CONFIG.server_capacity)
        system.split_server(owner)
    system.verify_invariants()
    return system, transport


def _movers(system: ClashSystem, joiner: str, node_id: int) -> list[tuple[KeyGroup, str]]:
    """What a join at ``node_id`` will hand over, in handoff order."""
    router = copy.deepcopy(system.router)
    router.add_server(joiner, node_id=node_id)
    router.stabilise()
    return [
        (group, owner)
        for group, owner in sorted(system.active_groups().items())
        if router.owner_of_key(group.virtual_key) == joiner
    ]


def _joiner_id(system: ClashSystem, wanted) -> int:
    """A free ring id whose join would hand over a ``wanted`` mover list."""
    for node_id in range(7, 1 << CONFIG.hash_bits, 4099):
        if not system.router.has_node_id(node_id):
            if wanted(_movers(system, "joiner", node_id)):
                return node_id
    raise AssertionError("no arc holds the movers wanted")


def _merges(system: ClashSystem) -> float:
    return system.messages.counts[MessageCategory.MERGE]


def _splits(system: ClashSystem) -> float:
    return system.messages.counts[MessageCategory.SPLIT]


def _kill(system: ClashSystem):
    return lambda envelope: system.handle_server_failure(envelope.destination)


def test_release_to_a_dead_former_owner_charges_one_merge_and_moves_nothing():
    system, transport = _system()
    node_id = _joiner_id(system, lambda movers: len(movers) >= 3)
    movers = _movers(system, "joiner", node_id)
    # The last release fails, so the former owner's death strands no later
    # handoff from it.
    group, former = movers[-1]
    transport.arm(
        len(movers),
        selects=lambda envelope: isinstance(envelope.payload, ReleaseKeyGroup),
        kill=_kill(system),
    )
    merges = _merges(system)
    handed = system.handle_server_join("joiner", node_id=node_id)

    assert [envelope.destination for envelope in transport.failed] == [former]
    assert former not in system.servers()
    assert group not in handed
    assert list(handed) == [g for g, _owner in movers if g != group]
    # The former owner's failure recovery re-homed the group onto the joiner.
    assert system.owner_of_group(group) == "joiner"
    # Each completed handoff charges a release request and its reply; the
    # lost release charges the one request that was sent.
    assert _merges(system) - merges == 2 * len(handed) + 1
    system.verify_invariants()


def test_transfer_to_a_dead_receiver_restarts_the_group_as_a_root():
    system, transport = _system()
    node_id = _joiner_id(system, lambda movers: len(movers) >= 3)
    movers = _movers(system, "joiner", node_id)
    group, former = movers[-1]
    transport.arm(
        len(movers),
        selects=lambda envelope: isinstance(envelope.payload, AcceptKeyGroup)
        and envelope.destination == "joiner",
        kill=_kill(system),
    )
    merges = _merges(system)
    handed = system.handle_server_join("joiner", node_id=node_id)

    assert [envelope.payload.group for envelope in transport.failed] == [group]
    assert "joiner" not in system.servers()
    # The group left its former owner (the release went through) …
    assert handed[group] == former
    # … and restarted as a root on whoever owns its key without the joiner.
    owner = system.owner_of_group(group)
    assert owner == system.router.owner_of_key(group.virtual_key)
    assert system.server(owner).table.entry(group).is_root
    assert _merges(system) - merges == 2 * len(movers)
    system.verify_invariants()


def _remote_parent_link(system: ClashSystem):
    """A parent entry whose right child's server, once failed, leaves the
    group to a third server: ``(parent, parent entry, child, right, heir)``."""
    for name in system.sorted_server_names():
        for entry in system.server(name).table.entries():
            child = entry.right_child_id
            if entry.active or child in (None, name):
                continue
            right = entry.group.split()[1]
            if system.owner_of_group(right) != child:
                continue
            router = copy.deepcopy(system.router)
            router.remove_server(child)
            router.stabilise()
            heir = router.owner_of_key(right.virtual_key)
            if heir != name:
                return name, entry, child, right, heir
    raise AssertionError("no remote parent link to break")


def test_reissue_to_a_dead_new_owner_restarts_the_group_as_a_root():
    system, transport = _system()
    parent, parent_entry, child, right, heir = _remote_parent_link(system)
    orphans = len(system.server(child).active_groups())
    heir_orphans: list[int] = []

    def kill_heir(envelope: Envelope) -> None:
        # Counted at death: the heir may already hold earlier orphans.
        heir_orphans.append(len(system.server(heir).active_groups()))
        system.handle_server_failure(heir)

    transport.arm(
        1,
        selects=lambda envelope: isinstance(envelope.payload, AcceptKeyGroup)
        and envelope.payload.group == right,
        kill=kill_heir,
    )
    splits = _splits(system)
    reassigned = system.handle_server_failure(child)

    assert [envelope.destination for envelope in transport.failed] == [heir]
    assert heir not in system.servers()
    owner = system.owner_of_group(right)
    assert reassigned[right] == owner
    assert owner == system.router.owner_of_key(right.virtual_key)
    assert system.server(owner).table.entry(right).is_root
    # The parent's entry was not pointed at a server that never took the group.
    assert system.server(parent).table.entry(parent_entry.group).right_child_id == child
    # Two per re-homed group of both failures, plus the lost transfer.
    assert _splits(system) - splits == 2 * (orphans + heir_orphans[0]) + 1
    system.verify_invariants()


def _first_release_kills_its_owner(system: ClashSystem, transport: FailNthRequest) -> None:
    transport.arm(
        1,
        selects=lambda envelope: isinstance(envelope.payload, ReleaseKeyGroup),
        kill=_kill(system),
    )


def test_a_join_skips_the_movers_its_dead_former_owner_re_homed():
    system, transport = _system()
    node_id = _joiner_id(
        system, lambda movers: sum(owner == movers[0][1] for _g, owner in movers) >= 2
    )
    movers = _movers(system, "joiner", node_id)
    former = movers[0][1]
    _first_release_kills_its_owner(system, transport)
    handed = system.handle_server_join("joiner", node_id=node_id)

    assert [envelope.destination for envelope in transport.failed] == [former]
    assert former not in system.servers()
    # The failure re-homed every mover of the dead owner onto the joiner;
    # the handoff moved the others itself.
    assert list(handed) == [g for g, owner in movers if owner != former]
    for group, _owner in movers:
        assert system.owner_of_group(group) == "joiner"
    system.verify_invariants()


# small_scale: 12-bit keys, initial_depth=2 → four depth-2 blocks of 1024 keys.
BLOCK = 1 << (CONFIG.key_bits - CONFIG.initial_depth)


def _two_shard_map(cut_blocks: int) -> PartitionMap:
    """A two-shard map cutting after ``cut_blocks`` depth-2 blocks."""
    return PartitionMap(
        boundaries=(0, cut_blocks * BLOCK, 1 << CONFIG.key_bits),
        key_bits=CONFIG.key_bits,
        granularity_depth=CONFIG.initial_depth,
        version=1,
    )


def _rebalance_killing_the_first_former(cut_blocks: int) -> ClashSystem:
    system, transport = _system(server_count=16, shards=2)
    new_map = _two_shard_map(cut_blocks)
    current = system.router.partition
    moving = [
        (group, owner)
        for group, owner in sorted(system.active_groups().items())
        if new_map.shard_of_key(group.virtual_key) != current.shard_of_key(group.virtual_key)
    ]
    former = moving[0][1]
    assert sum(owner == former for _g, owner in moving) >= 2, "no mover left behind"
    _first_release_kills_its_owner(system, transport)
    migrated = system.rebalance_partition(new_map)

    assert [envelope.destination for envelope in transport.failed] == [former]
    assert former not in system.servers()
    assert list(migrated) == [g for g, owner in moving if owner != former]
    router = system.router
    for group, _owner in moving:
        owner = system.owner_of_group(group)
        assert router.server_shard(owner) == router.shard_of_key(group.virtual_key)
    return system


def test_a_rebalance_skips_the_movers_its_dead_former_owner_re_homed():
    _rebalance_killing_the_first_former(cut_blocks=3).verify_invariants()


def test_a_failure_under_a_new_partition_map_links_no_orphan_across_shards():
    """The dead owner's orphans now hash to the other shard: their recorded
    parents stay behind on the old one, so they restart as roots."""
    _rebalance_killing_the_first_former(cut_blocks=1).verify_invariants()


def test_a_put_back_to_a_child_that_died_restarts_the_group_as_a_root():
    system, transport = _system()
    # Cool the deployment and let every child report, so parents see
    # consolidation candidates.
    for member in system.servers().values():
        member.reset_interval()
        for active in member.active_groups():
            member.set_group_rate(active, 0.0)
    system.exchange_load_reports()
    parent = next(
        name
        for name in system.sorted_server_names()
        if system.server(name).consolidation_candidates()
    )
    parent_group = system.server(parent).consolidation_candidates()[0]
    left, right = parent_group.split()
    child = system.server(parent).table.entry(parent_group).right_child_id
    query = Query(query_id=1, key=right.virtual_key)
    system.server(child).store_query(query)

    def split_left() -> None:
        # The parent's left child splits while the release travels, so the
        # parent can no longer take the pair back and must return the right.
        system.server(parent).set_group_rate(left, 3 * CONFIG.server_capacity)
        assert system.split_server(parent).group == left

    transport.before(
        lambda envelope: isinstance(envelope.payload, ReleaseKeyGroup)
        and envelope.payload.group == right,
        split_left,
    )
    transport.arm(
        1,
        selects=lambda envelope: isinstance(envelope.payload, AcceptKeyGroup)
        and envelope.payload.group == right,
        kill=_kill(system),
    )
    merges = _merges(system)
    outcomes = system.consolidate_server(parent)

    assert [envelope.destination for envelope in transport.failed] == [child]
    assert child not in system.servers()
    assert all(outcome.parent_group != parent_group for outcome in outcomes)
    # The released group and its query restarted as a root on whoever owns
    # its key without the child.
    owner = system.owner_of_group(right)
    assert owner == system.router.owner_of_key(right.virtual_key)
    assert system.server(owner).table.entry(right).is_root
    assert query in system.server(owner).query_store.queries()
    # The lost put-back charges the one request that was sent.
    assert _merges(system) - merges == 1 + 2 * len(outcomes)
    system.verify_invariants()
