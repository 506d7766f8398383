"""Unit tests for repro.core.server (ClashServer behaviour)."""

from __future__ import annotations

import pytest

from repro.app.query_store import Query
from repro.core.config import ClashConfig
from repro.core.messages import AcceptKeyGroup, AcceptObject, LoadReport, ReplyStatus
from repro.core.server import ClashServer
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup

CONFIG = ClashConfig(
    key_bits=8,
    hash_bits=16,
    base_bits=4,
    initial_depth=2,
    min_depth=1,
    server_capacity=100.0,
    query_load_weight=1.0,
)


def group(pattern: str) -> KeyGroup:
    return KeyGroup.from_wildcard(pattern, width=8)


def key(bits: str) -> IdentifierKey:
    return IdentifierKey.from_bits(bits)


@pytest.fixture
def server() -> ClashServer:
    instance = ClashServer(name="s0", config=CONFIG)
    instance.assign_root_group(group("01*"))
    return instance


class TestLoadBookkeeping:
    def test_initial_load_is_zero(self, server: ClashServer):
        assert server.total_load() == 0.0
        assert server.load_percent() == 0.0
        assert not server.is_overloaded()
        assert server.is_underloaded()

    def test_set_group_rate_contributes_linearly(self, server: ClashServer):
        server.set_group_rate(group("01*"), 50.0)
        assert server.total_load() == pytest.approx(50.0)
        assert server.load_percent() == pytest.approx(50.0)

    def test_query_count_contributes_logarithmically(self, server: ClashServer):
        server.store_query(Query(query_id=1, key=key("01000000")))
        server.store_query(Query(query_id=2, key=key("01100000")))
        loads = server.group_loads()
        assert loads[group("01*")].query_count == 2
        assert loads[group("01*")].load == pytest.approx(CONFIG.query_load_weight * 1.585, rel=1e-3)

    def test_query_count_override_takes_precedence(self, server: ClashServer):
        server.set_group_query_count(group("01*"), 7.0)
        assert server.group_loads()[group("01*")].query_count == 7

    def test_overload_and_underload_thresholds(self, server: ClashServer):
        server.set_group_rate(group("01*"), 95.0)
        assert server.is_overloaded()
        server.set_group_rate(group("01*"), 60.0)
        assert not server.is_overloaded()
        assert not server.is_underloaded()
        server.set_group_rate(group("01*"), 10.0)
        assert server.is_underloaded()

    def test_rate_for_unmanaged_group_rejected(self, server: ClashServer):
        with pytest.raises(KeyError):
            server.set_group_rate(group("10*"), 5.0)

    def test_negative_rate_rejected(self, server: ClashServer):
        with pytest.raises(ValueError):
            server.set_group_rate(group("01*"), -1.0)

    def test_add_group_rate_accumulates(self, server: ClashServer):
        server.add_group_rate(group("01*"), 5.0)
        server.add_group_rate(group("01*"), 7.0)
        assert server.total_load() == pytest.approx(12.0)

    def test_reset_interval_clears_rates(self, server: ClashServer):
        server.set_group_rate(group("01*"), 42.0)
        server.reset_interval()
        assert server.total_load() == 0.0


class TestAcceptObject:
    def test_case_a_correct_depth(self, server: ClashServer):
        reply = server.handle_accept_object(
            AcceptObject(key=key("01010101"), estimated_depth=2, sender="c")
        )
        assert reply.status is ReplyStatus.OK
        assert reply.correct_depth == 2

    def test_case_b_wrong_depth_same_server(self, server: ClashServer):
        reply = server.handle_accept_object(
            AcceptObject(key=key("01010101"), estimated_depth=6, sender="c")
        )
        assert reply.status is ReplyStatus.OK_CORRECTED_DEPTH
        assert reply.correct_depth == 2

    def test_case_c_not_responsible(self, server: ClashServer):
        reply = server.handle_accept_object(
            AcceptObject(key=key("11010101"), estimated_depth=2, sender="c")
        )
        assert reply.status is ReplyStatus.INCORRECT_DEPTH
        assert reply.longest_prefix_match == 0

    def test_store_query_requires_managed_group(self, server: ClashServer):
        with pytest.raises(ValueError):
            server.store_query(Query(query_id=9, key=key("11111111")))


class TestSplitting:
    def test_choose_group_to_split_uses_hottest(self, server: ClashServer):
        server.assign_root_group(group("10*"))
        server.set_group_rate(group("01*"), 20.0)
        server.set_group_rate(group("10*"), 80.0)
        assert server.choose_group_to_split() == group("10*")

    def test_choose_group_when_empty(self):
        empty = ClashServer(name="sx", config=CONFIG)
        assert empty.choose_group_to_split() is None

    def test_perform_split_moves_right_queries(self, server: ClashServer):
        left_key = key("01000001")
        right_key = key("01100001")
        server.store_query(Query(query_id=1, key=left_key))
        server.store_query(Query(query_id=2, key=right_key))
        server.set_group_rate(group("01*"), 60.0)
        left, right, migrated = server.perform_split(group("01*"), right_child_server="s9")
        assert left == group("010*")
        assert right == group("011*")
        assert [query.query_id for query in migrated] == [2]
        assert len(server.query_store) == 1
        assert server.splits_performed == 1
        # Half of the measured rate is attributed to the retained left child.
        assert server.group_loads()[left].data_rate == pytest.approx(30.0)
        server.table.check_invariants()

    def test_perform_local_split_keeps_both_children(self, server: ClashServer):
        server.set_group_rate(group("01*"), 60.0)
        left, right = server.perform_local_split(group("01*"))
        assert server.table.entry(left).active
        assert server.table.entry(right).active
        assert server.table.entry(right).parent_id == "self"
        assert server.group_loads()[left].data_rate == pytest.approx(30.0)
        assert server.group_loads()[right].data_rate == pytest.approx(30.0)
        server.table.check_invariants()

    def test_accept_keygroup_is_mandatory_and_adds_entry(self):
        receiver = ClashServer(name="s9", config=CONFIG)
        queries = [Query(query_id=5, key=key("01100001"))]
        receiver.accept_keygroup(
            AcceptKeyGroup(group=group("011*"), parent_server="s0", migrated_queries=1),
            queries=queries,
        )
        assert group("011*") in receiver.table
        assert receiver.table.entry(group("011*")).parent_id == "s0"
        assert len(receiver.query_store) == 1


class TestConsolidation:
    def _split_setup(self) -> tuple[ClashServer, ClashServer]:
        parent = ClashServer(name="s0", config=CONFIG)
        parent.assign_root_group(group("01*"))
        child = ClashServer(name="s9", config=CONFIG)
        _left, right, migrated = parent.perform_split(group("01*"), right_child_server="s9")
        child.accept_keygroup(
            AcceptKeyGroup(group=right, parent_server="s0", migrated_queries=len(migrated)),
            queries=migrated,
        )
        return parent, child

    def test_load_reports_generated_for_remote_parents(self):
        parent, child = self._split_setup()
        child.set_group_rate(group("011*"), 5.0)
        reports = child.build_load_reports()
        assert len(reports) == 1
        assert reports[0].group == group("011*")
        assert reports[0].child_server == "s9"
        # The parent's own left child does not generate a report.
        assert parent.build_load_reports() == []

    def test_consolidation_candidates_require_cold_children(self):
        parent, child = self._split_setup()
        parent.set_group_rate(group("010*"), 5.0)
        parent.receive_load_report(
            LoadReport(group=group("011*"), child_server="s9", load=5.0)
        )
        assert parent.consolidation_candidates() == [group("01*")]
        # Hot children block consolidation.
        parent.receive_load_report(
            LoadReport(group=group("011*"), child_server="s9", load=80.0)
        )
        assert parent.consolidation_candidates() == []

    def test_consolidation_blocked_when_it_would_overload_parent(self):
        parent, child = self._split_setup()
        parent.assign_root_group(group("10*"))
        parent.set_group_rate(group("10*"), 80.0)
        parent.set_group_rate(group("010*"), 5.0)
        parent.receive_load_report(
            LoadReport(group=group("011*"), child_server="s9", load=20.0)
        )
        assert parent.consolidation_candidates() == []

    def test_release_and_accept_back_round_trip(self):
        parent, child = self._split_setup()
        child.store_query(Query(query_id=77, key=key("01100001")))
        returned = child.release_group(group("011*"))
        assert [query.query_id for query in returned] == [77]
        assert group("011*") not in child.table
        parent.accept_keygroup_back(group("01*"), queries=returned)
        assert parent.table.entry(group("01*")).active
        assert len(parent.query_store) == 1
        assert parent.merges_performed == 1
        parent.table.check_invariants()

    def test_release_of_split_group_rejected(self):
        parent, child = self._split_setup()
        child.perform_local_split(group("011*"))
        with pytest.raises(ValueError):
            child.release_group(group("011*"))

    def test_build_release_request(self):
        parent, _child = self._split_setup()
        request = parent.build_release_request(group("01*"))
        assert request.group == group("011*")
        assert request.child_server == "s9"

    def test_choose_group_to_consolidate_uses_coldest(self):
        server = ClashServer(name="s0", config=CONFIG)
        server.assign_root_group(group("010*"))
        server.assign_root_group(group("100*"))
        server.set_group_rate(group("010*"), 1.0)
        server.set_group_rate(group("100*"), 2.0)
        assert server.choose_group_to_consolidate() == group("010*")


class TestUnmeasuredGroups:
    """A load report is a measurement; a group taken on since the last one has none."""

    def _accepting_child(self, parent_server: str | None = "s0") -> ClashServer:
        child = ClashServer(name="s9", config=CONFIG)
        child.accept_keygroup(AcceptKeyGroup(group=group("011*"), parent_server=parent_server))
        return child

    def test_accepted_group_reports_only_once_a_rate_is_set(self):
        child = self._accepting_child()
        assert child.addressed_load_reports() == []
        child.set_group_rate(group("011*"), 5.0)
        [(parent, report)] = child.addressed_load_reports()
        assert (parent, report.group, report.load) == ("s0", group("011*"), 5.0)

    def test_a_whole_quiet_interval_measures_zero(self):
        child = self._accepting_child()
        child.reset_interval()
        [(_parent, report)] = child.addressed_load_reports()
        assert report.load == 0.0

    def test_query_load_alone_is_not_a_measurement(self):
        child = self._accepting_child()
        child.store_query(Query(query_id=1, key=key("01100001")))
        child.store_query(Query(query_id=2, key=key("01110001")))
        assert child.total_load() > 0.0
        assert child.addressed_load_reports() == []

    def test_released_group_leaves_nothing_behind(self):
        child = self._accepting_child()
        child.release_group(group("011*"))
        # Taken on again as a root (failure recovery re-homes orphans so): a
        # stale mark must not be waiting for it.
        child.assign_root_group(group("011*"))
        assert group("011*") not in child._unmeasured

    def test_group_reactivated_by_a_merge_reports_only_once_measured(self):
        # s9 holds 011* for s0, sheds 0111* to s5, then takes it back.
        child = self._accepting_child()
        child.set_group_rate(group("011*"), 8.0)
        child.perform_split(group("011*"), right_child_server="s5")
        child.accept_keygroup_back(group("011*"))
        assert child.table.entry(group("011*")).active
        assert child.addressed_load_reports() == []
        child.set_group_rate(group("011*"), 8.0)
        assert [report.group for _p, report in child.addressed_load_reports()] == [group("011*")]

    def test_group_reactivated_by_undo_split_reports_only_once_measured(self):
        child = self._accepting_child()
        child.set_group_rate(group("011*"), 8.0)
        _left, _right, migrated = child.perform_split(group("011*"), right_child_server="s5")
        child.undo_split(group("011*"), queries=migrated)
        assert child.addressed_load_reports() == []
        child.set_group_rate(group("011*"), 8.0)
        assert len(child.addressed_load_reports()) == 1

    def test_pair_with_an_unmeasured_local_child_is_no_candidate(self):
        parent = ClashServer(name="s0", config=CONFIG)
        parent.assign_root_group(group("01*"))
        parent.perform_local_split(group("01*"))
        assert parent.consolidation_candidates() == [group("01*")]
        # The left half splits again and merges straight back: 010* is active
        # once more, but nobody has measured it since.
        parent.perform_split(group("010*"), right_child_server="s5")
        parent.accept_keygroup_back(group("010*"))
        assert parent.consolidation_candidates() == []
        parent.set_group_rate(group("010*"), 1.0)
        assert parent.consolidation_candidates() == [group("01*")]


class TestDescribe:
    def test_describe_contains_summary_fields(self, server: ClashServer):
        snapshot = server.describe()
        assert snapshot["name"] == "s0"
        assert snapshot["active_groups"] == ["01*"]
        assert snapshot["splits_performed"] == 0

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ClashServer(name="", config=CONFIG)
