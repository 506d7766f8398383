"""The ACCEPT_OBJECT probe path against the construction it replaced.

``ClashSystem.route_accept_object`` names its destination by a shift pair and
a memoised :class:`DhtAddress`, and ``ClashServer.handle_accept_object``
shares one frozen reply per ``(status, depth)``.  The naive construction —
``KeyGroup.from_key(key, depth).virtual_key`` wrapped in a fresh address,
resolved by a separate copy of the routing tier, answered with a fresh reply
built from the owner's table queries — lives here as the reference every
probe is held to: same reply, same server, same hop charge, same message
count, and the lookup memo stepping in lockstep with the copy's.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.config import ClashConfig
from repro.core.messages import (
    AcceptObject,
    AcceptObjectReply,
    MessageCategory,
    ReplyStatus,
)
from repro.core.protocol import ClashSystem
from repro.core.server import ClashServer
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup
from repro.net.envelope import DhtAddress
from repro.net.inline import InlineTransport
from repro.util.rng import RandomStream

# 12-bit keys bootstrapped at depth 4 (room for four shards), routing hops
# charged so the hop count shows up in the message totals.
CONFIG = ClashConfig.small_scale().with_overrides(initial_depth=4, count_routing_hops=True)
KEY_BITS = CONFIG.key_bits
RING_SIZE = 1 << CONFIG.hash_bits


def reference_address(key: IdentifierKey, depth: int) -> DhtAddress:
    """The destination as first written: group → virtual key → address."""
    return DhtAddress(KeyGroup.from_key(key, depth).virtual_key)


def reference_reply(server: ClashServer, key: IdentifierKey, depth: int) -> AcceptObjectReply:
    """A fresh reply from the server's two table queries (paper cases a–c)."""
    table = server.table
    matching = table.active_group_for(key)
    if matching is None:
        return AcceptObjectReply(
            ReplyStatus.INCORRECT_DEPTH,
            server.name,
            longest_prefix_match=table.longest_prefix_match(key),
        )
    status = ReplyStatus.OK if matching.depth == depth else ReplyStatus.OK_CORRECTED_DEPTH
    return AcceptObjectReply(status, server.name, correct_depth=matching.depth)


def reply_depth(reply: AcceptObjectReply) -> int:
    if reply.status is ReplyStatus.INCORRECT_DEPTH:
        return reply.longest_prefix_match
    return reply.correct_depth


def probe_and_check(system: ClashSystem, reference_router, key: IdentifierKey, depth: int):
    """One probe through the system, held to the reference construction."""
    lookup = reference_router.lookup(reference_address(key, depth).virtual_key)
    expected = reference_reply(system.server(lookup.owner), key, depth)
    messages = system.messages.snapshot()
    delivered = system.transport.envelopes_delivered
    reply, cost = system.route_accept_object(key, depth, "c0")
    assert reply == expected
    assert reply.server == lookup.owner
    assert cost == 2 + lookup.hops
    after = system.messages.snapshot()
    assert after[MessageCategory.LOOKUP.value] - messages[MessageCategory.LOOKUP.value] == 2
    assert (
        after[MessageCategory.DHT_ROUTING.value] - messages[MessageCategory.DHT_ROUTING.value]
        == lookup.hops
    )
    assert system.transport.envelopes_delivered == delivered + 1
    # Both sides asked their memo the same question from the same state.
    assert system.router.memo_stats() == reference_router.memo_stats()
    return reply


def _split_one(system: ClashSystem, pick: int) -> None:
    groups = sorted(system.active_groups().items())
    group, owner = groups[pick % len(groups)]
    system.server(owner).set_group_rate(group, 3 * CONFIG.server_capacity)
    system.split_server(owner)


def _quiet_check(system: ClashSystem) -> None:
    """A whole quiet interval: every group measures 0, cold pairs consolidate."""
    for server in system.servers().values():
        server.reset_interval()
    system.run_load_check()


_events = st.one_of(
    st.tuples(st.just("split"), st.integers(0, 1 << 16)),
    st.tuples(st.just("quiet"), st.just(0)),
    st.tuples(st.just("join"), st.integers(0, RING_SIZE - 1)),
    st.tuples(st.just("fail"), st.integers(0, 1 << 16)),
)


@given(
    shards=st.sampled_from([1, 4]),
    extra_servers=st.integers(0, 10),
    seed=st.integers(0, 1 << 16),
    events=st.lists(_events, min_size=1, max_size=8),
    keys=st.lists(st.integers(0, (1 << KEY_BITS) - 1), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_every_probe_equals_the_reference_construction(shards, extra_servers, seed, events, keys):
    system = ClashSystem.create(
        CONFIG, server_count=shards + extra_servers, rng=RandomStream(seed), shards=shards
    )
    joins = 0
    for kind, argument in events:
        if kind == "split":
            _split_one(system, argument)
        elif kind == "quiet":
            _quiet_check(system)
        elif kind == "join":
            if system.router.has_node_id(argument):
                continue
            system.handle_server_join(f"j{joins}", node_id=argument)
            joins += 1
        else:
            names = system.sorted_server_names()
            victim = names[argument % len(names)]
            if system.can_remove_server(victim):
                system.handle_server_failure(victim)
        # A copy of the routing tier taken at this quiescent point resolves
        # every probe the naive way without touching the deployment's memo.
        reference_router = copy.deepcopy(system.router)
        for value in keys:
            key = IdentifierKey(value=value, width=KEY_BITS)
            for depth in range(KEY_BITS + 1):
                probe_and_check(system, reference_router, key, depth)
        # The client's search, built on those probes, lands on the registry's group.
        for value in keys:
            key = IdentifierKey(value=value, width=KEY_BITS)
            assert system.make_client("c1").find_group(key).group == (
                system.find_active_group(key)[0]
            )
    system.verify_invariants()


class _RecordingTransport(InlineTransport):
    """Inline delivery that remembers every request's destination."""

    def __init__(self) -> None:
        super().__init__()
        self.destinations: list = []

    def request(self, envelope):
        self.destinations.append(envelope.destination)
        return super().request(envelope)


def _system(transport=None, server_count: int = 8) -> ClashSystem:
    return ClashSystem.create(
        CONFIG, server_count=server_count, rng=RandomStream(9), transport=transport
    )


class TestProbeAddresses:
    def test_probes_of_one_virtual_key_share_one_address(self):
        transport = _RecordingTransport()
        system = _system(transport)
        base = 0b1010 << (KEY_BITS - 4)
        probes = [
            (IdentifierKey(value=base, width=KEY_BITS), 4),
            # Bit 4 is zero, so depth 5 names the same virtual key…
            (IdentifierKey(value=base, width=KEY_BITS), 5),
            # …and a different key under the same depth-4 prefix does too.
            (IdentifierKey(value=base | 0b101, width=KEY_BITS), 4),
        ]
        for key, depth in probes:
            system.route_accept_object(key, depth, "c0")
        first = transport.destinations[0]
        assert first == reference_address(*probes[0])
        assert all(destination is first for destination in transport.destinations)
        assert list(system._probe_addresses) == [base]
        # A different virtual key gets a different address.
        system.route_accept_object(IdentifierKey(value=base | (1 << 7), width=KEY_BITS), 5, "c0")
        assert transport.destinations[-1] is not first
        assert transport.destinations[-1] == reference_address(
            IdentifierKey(value=base | (1 << 7), width=KEY_BITS), 5
        )

    def test_the_address_memo_clears_at_its_limit_and_answers_stay_equal(self, monkeypatch):
        monkeypatch.setattr(protocol, "RING_POSITION_MEMO_LIMIT", 4)
        system = _system()
        reference_router = copy.deepcopy(system.router)
        sizes = []
        rng = RandomStream(4)
        for _ in range(40):
            key = IdentifierKey(value=rng.randbits(KEY_BITS), width=KEY_BITS)
            for depth in (KEY_BITS, 6, 3):
                probe_and_check(system, reference_router, key, depth)
                sizes.append(len(system._probe_addresses))
        assert max(sizes) == 4
        # It was cleared (and refilled) along the way, never grown past the limit.
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_a_membership_change_needs_no_address_invalidation(self):
        """An address is a name: after a join the same object routes to the new owner."""
        transport = _RecordingTransport()
        system = _system(transport)
        key = IdentifierKey(value=0, width=KEY_BITS)
        system.route_accept_object(key, CONFIG.initial_depth, "c0")
        address = transport.destinations[-1]
        point = system.router.rings()[0].hash_function.hash_key(address.virtual_key)
        assert not system.router.has_node_id(point)
        system.handle_server_join("joiner", node_id=point)
        reply, _cost = system.route_accept_object(key, CONFIG.initial_depth, "c0")
        assert transport.destinations[-1] is address
        assert reply.server == "joiner"
        assert reply.status is ReplyStatus.OK


class TestSharedReplies:
    def test_a_reply_is_shared_only_between_equal_status_and_depth(self):
        system = _system()
        for pick in range(30):
            _split_one(system, pick)
        rng = RandomStream(12)
        by_identity: dict[int, set] = {}
        by_meaning: dict[tuple, set] = {}
        keep = []
        for _ in range(150):
            key = IdentifierKey(value=rng.randbits(KEY_BITS), width=KEY_BITS)
            for depth in range(KEY_BITS + 1):
                reply, _cost = system.route_accept_object(key, depth, "c0")
                keep.append(reply)
                meaning = (reply.server, reply.status, reply_depth(reply))
                by_identity.setdefault(id(reply), set()).add(meaning)
                by_meaning.setdefault(meaning, set()).add(id(reply))
        assert all(len(meanings) == 1 for meanings in by_identity.values())
        assert all(len(identities) == 1 for identities in by_meaning.values())
        # All three cases were exercised, and no server holds more than its bound.
        assert {status for _server, status, _depth in by_meaning} == set(ReplyStatus)
        for server in system.servers().values():
            assert len(server._replies) <= 3 * (KEY_BITS + 1)

    def test_the_handler_returns_the_same_frozen_reply_for_the_same_answer(self):
        system = _system()
        group, owner = sorted(system.active_groups().items())[0]
        server = system.server(owner)
        key = group.virtual_key
        first = server.handle_accept_object(AcceptObject(key, group.depth, "c0"))
        again = server.handle_accept_object(AcceptObject(key, group.depth, "c1"))
        corrected = server.handle_accept_object(AcceptObject(key, group.depth + 1, "c0"))
        assert first is again
        assert first == AcceptObjectReply(ReplyStatus.OK, owner, correct_depth=group.depth)
        assert corrected is not first
        assert corrected == AcceptObjectReply(
            ReplyStatus.OK_CORRECTED_DEPTH, owner, correct_depth=group.depth
        )
