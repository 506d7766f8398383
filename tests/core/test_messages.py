"""Unit tests for repro.core.messages."""

from __future__ import annotations

import pickle

import pytest

from repro.core.messages import (
    AcceptKeyGroup,
    AcceptObject,
    AcceptObjectReply,
    LoadReport,
    MessageCategory,
    MessageStats,
    ReleaseKeyGroup,
    ReplyStatus,
)
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup


def _key() -> IdentifierKey:
    return IdentifierKey.from_bits("0110001")


def _group() -> KeyGroup:
    return KeyGroup.from_wildcard("0110*", width=7)


class TestReplies:
    def test_ok_reply_requires_depth(self):
        with pytest.raises(ValueError):
            AcceptObjectReply(status=ReplyStatus.OK, server="s1")
        reply = AcceptObjectReply(status=ReplyStatus.OK, server="s1", correct_depth=5)
        assert reply.correct_depth == 5

    def test_corrected_depth_reply_requires_depth(self):
        with pytest.raises(ValueError):
            AcceptObjectReply(status=ReplyStatus.OK_CORRECTED_DEPTH, server="s1")

    def test_incorrect_depth_reply_requires_prefix_match(self):
        with pytest.raises(ValueError):
            AcceptObjectReply(status=ReplyStatus.INCORRECT_DEPTH, server="s1")
        reply = AcceptObjectReply(
            status=ReplyStatus.INCORRECT_DEPTH, server="s1", longest_prefix_match=4
        )
        assert reply.longest_prefix_match == 4

    def test_request_and_transfer_messages_carry_payloads(self):
        request = AcceptObject(key=_key(), estimated_depth=5, sender="c0")
        assert request.key == _key()
        transfer = AcceptKeyGroup(group=_group(), parent_server="s0", migrated_queries=3)
        assert transfer.migrated_queries == 3
        release = ReleaseKeyGroup(group=_group(), child_server="s9")
        assert release.migrated_queries == 0
        report = LoadReport(group=_group(), child_server="s9", load=123.0)
        assert report.load == 123.0


class TestMessageStats:
    def test_counters_start_at_zero(self):
        stats = MessageStats()
        assert stats.total() == 0.0
        assert all(count == 0.0 for count in stats.counts.values())

    def test_add_and_total(self):
        stats = MessageStats()
        stats.add(MessageCategory.LOOKUP, 3)
        stats.add(MessageCategory.SPLIT)
        assert stats.total() == 4.0
        assert stats.total(include={MessageCategory.LOOKUP}) == 3.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MessageStats().add(MessageCategory.DATA, -1)

    def test_signalling_excludes_data(self):
        stats = MessageStats()
        stats.add(MessageCategory.DATA, 1000)
        stats.add(MessageCategory.LOOKUP, 5)
        stats.add(MessageCategory.STATE_TRANSFER, 2)
        assert stats.signalling_total() == 7.0

    def test_merge_accumulates(self):
        a = MessageStats()
        a.add(MessageCategory.SPLIT, 2)
        b = MessageStats()
        b.add(MessageCategory.SPLIT, 3)
        b.add(MessageCategory.MERGE, 1)
        a.merge(b)
        assert a.counts[MessageCategory.SPLIT] == 5
        assert a.counts[MessageCategory.MERGE] == 1

    def test_reset(self):
        stats = MessageStats()
        stats.add(MessageCategory.LOOKUP, 9)
        stats.reset()
        assert stats.total() == 0.0

    def test_snapshot_uses_category_values(self):
        stats = MessageStats()
        stats.add(MessageCategory.DHT_ROUTING, 4)
        snapshot = stats.snapshot()
        assert snapshot["dht_routing"] == 4.0
        assert set(snapshot) == {category.value for category in MessageCategory}


class TestEnumHashing:
    @pytest.mark.parametrize("enum_type", [MessageCategory, ReplyStatus])
    def test_members_key_dicts_across_a_pickle_round_trip(self, enum_type):
        """Identity hashing stays exact where members cross a process boundary."""
        table = {member: index for index, member in enumerate(enum_type)}
        for index, member in enumerate(enum_type):
            copied = pickle.loads(pickle.dumps(member))
            assert copied is member
            assert table[copied] == index
        assert len({*enum_type, *enum_type}) == len(enum_type)
