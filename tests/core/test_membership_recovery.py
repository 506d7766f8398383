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
* ``handle_server_failure``'s re-issue to a dead new owner.
"""

from __future__ import annotations

import copy
from collections.abc import Callable

from repro.core.config import ClashConfig
from repro.core.messages import AcceptKeyGroup, MessageCategory, ReleaseKeyGroup
from repro.core.protocol import ClashSystem
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
    :class:`DeliveryFailed` instead of being delivered.
    """

    def __init__(self, inner: Transport) -> None:
        self._inner = inner
        self._n = 0
        self._selects: Callable[[Envelope], bool] = lambda envelope: False
        self._kill: Callable[[Envelope], None] = lambda envelope: None
        self.selected = 0
        self.failed: list[Envelope] = []

    def arm(self, n: int, selects, kill) -> None:
        self._n, self._selects, self._kill = n, selects, kill
        self.selected = 0

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def request(self, envelope: Envelope):
        if self._selects(envelope):
            self.selected += 1
            if self.selected == self._n:
                self.failed.append(envelope)
                self._kill(envelope)
                raise DeliveryFailed(envelope.destination, envelope)
        return self._inner.request(envelope)


def _system(server_count: int = 12, seed: int = 55) -> tuple[ClashSystem, FailNthRequest]:
    transport = FailNthRequest(InlineTransport())
    system = ClashSystem.create(
        CONFIG, server_count=server_count, rng=RandomStream(seed), transport=transport
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
