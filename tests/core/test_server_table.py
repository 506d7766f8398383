"""Unit tests for repro.core.server_table (Figure 2 of the paper)."""

from __future__ import annotations

import pytest

from repro.core.server_table import SELF_PARENT, ServerTable, ServerTableEntry
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup


def group(pattern: str) -> KeyGroup:
    return KeyGroup.from_wildcard(pattern, width=7)


def key(bits: str) -> IdentifierKey:
    return IdentifierKey.from_bits(bits)


@pytest.fixture
def figure2_table() -> ServerTable:
    """The exact table of Figure 2 (server s25)."""
    table = ServerTable(key_bits=7)
    table.add_entry(
        ServerTableEntry(group=group("011*"), parent_id=None, right_child_id="45", active=False)
    )
    table.add_entry(
        ServerTableEntry(group=group("01011*"), parent_id="22", right_child_id="26", active=False)
    )
    table.add_entry(ServerTableEntry(group=group("010110*"), parent_id=SELF_PARENT, active=True))
    table.add_entry(
        ServerTableEntry(
            group=group("0110*"), parent_id=SELF_PARENT, right_child_id="11", active=False
        )
    )
    table.add_entry(ServerTableEntry(group=group("01100*"), parent_id=SELF_PARENT, active=True))
    return table


class TestEntry:
    def test_describe_matches_figure2_columns(self):
        entry = ServerTableEntry(group=group("011*"), parent_id=None, right_child_id="45", active=False)
        description = entry.describe()
        assert description == {
            "VirtualKeyGroup": "011*",
            "Depth": 3,
            "ParentID": -1,
            "RightChildID": "45",
            "Active": "N",
        }

    def test_is_root(self):
        assert ServerTableEntry(group=group("011*"), parent_id=None).is_root
        assert not ServerTableEntry(group=group("011*"), parent_id="s1").is_root


class TestFigure2Semantics:
    def test_active_groups(self, figure2_table: ServerTable):
        assert figure2_table.active_groups() == sorted([group("010110*"), group("01100*")])
        assert len(figure2_table.inactive_groups()) == 3

    def test_case_a_right_depth(self, figure2_table: ServerTable):
        """Client sends '0110001' with depth 5: s25 manages '01100*'."""
        matched = figure2_table.active_group_for(key("0110001"))
        assert matched == group("01100*")
        assert matched.depth == 5

    def test_case_c_wrong_server_prefix_match(self, figure2_table: ServerTable):
        """Client sends '0101010': the longest prefix match in the table is 4."""
        assert figure2_table.active_group_for(key("0101010")) is None
        assert figure2_table.longest_prefix_match(key("0101010")) == 4

    def test_longest_prefix_match_counts_inactive_entries(self, figure2_table: ServerTable):
        # "0111111" matches the inactive root entry "011*" in 3 bits.
        assert figure2_table.longest_prefix_match(key("0111111")) == 3

    def test_describe_rows(self, figure2_table: ServerTable):
        rows = figure2_table.describe()
        assert len(rows) == 5
        assert any(row["VirtualKeyGroup"] == "01011*" and row["ParentID"] == "22" for row in rows)


class TestMutation:
    def test_add_rejects_overlapping_active_groups(self):
        table = ServerTable(key_bits=7)
        table.add_entry(ServerTableEntry(group=group("011*"), parent_id=None))
        with pytest.raises(ValueError):
            table.add_entry(ServerTableEntry(group=group("0110*"), parent_id=SELF_PARENT))

    def test_add_allows_inactive_ancestor(self):
        table = ServerTable(key_bits=7)
        table.add_entry(
            ServerTableEntry(group=group("011*"), parent_id=None, right_child_id="x", active=False)
        )
        table.add_entry(ServerTableEntry(group=group("0110*"), parent_id=SELF_PARENT))
        table.check_invariants()

    def test_add_duplicate_rejected(self):
        table = ServerTable(key_bits=7)
        table.add_entry(ServerTableEntry(group=group("011*"), parent_id=None))
        with pytest.raises(ValueError):
            table.add_entry(ServerTableEntry(group=group("011*"), parent_id=None))

    def test_add_rejects_width_mismatch(self):
        table = ServerTable(key_bits=7)
        with pytest.raises(ValueError):
            table.add_entry(
                ServerTableEntry(group=KeyGroup.from_wildcard("011*", width=8), parent_id=None)
            )

    def test_record_split_keeps_left_and_marks_parent(self):
        table = ServerTable(key_bits=7)
        table.add_entry(ServerTableEntry(group=group("011*"), parent_id=None))
        left, right = table.record_split(group("011*"), right_child_server="s12")
        assert left == group("0110*")
        assert right == group("0111*")
        parent_entry = table.entry(group("011*"))
        assert not parent_entry.active
        assert parent_entry.right_child_id == "s12"
        left_entry = table.entry(left)
        assert left_entry.active
        assert left_entry.parent_id == SELF_PARENT
        assert right not in table
        table.check_invariants()

    def test_record_split_requires_active_entry(self):
        table = ServerTable(key_bits=7)
        table.add_entry(
            ServerTableEntry(group=group("011*"), parent_id=None, right_child_id="x", active=False)
        )
        with pytest.raises(ValueError):
            table.record_split(group("011*"), right_child_server="s1")

    def test_record_consolidation_restores_parent(self):
        table = ServerTable(key_bits=7)
        table.add_entry(ServerTableEntry(group=group("011*"), parent_id=None))
        table.record_split(group("011*"), right_child_server="s12")
        removed_left = table.record_consolidation(group("011*"))
        assert removed_left == group("0110*")
        entry = table.entry(group("011*"))
        assert entry.active
        assert entry.right_child_id is None
        assert group("0110*") not in table
        table.check_invariants()

    def test_consolidation_requires_unsplit_left_child(self):
        table = ServerTable(key_bits=7)
        table.add_entry(ServerTableEntry(group=group("011*"), parent_id=None))
        table.record_split(group("011*"), right_child_server="s12")
        table.record_split(group("0110*"), right_child_server="s13")
        with pytest.raises(ValueError):
            table.record_consolidation(group("011*"))

    def test_consolidation_of_active_group_rejected(self):
        table = ServerTable(key_bits=7)
        table.add_entry(ServerTableEntry(group=group("011*"), parent_id=None))
        with pytest.raises(ValueError):
            table.record_consolidation(group("011*"))

    def test_consolidation_requires_left_child_present(self):
        table = ServerTable(key_bits=7)
        table.add_entry(
            ServerTableEntry(group=group("011*"), parent_id=None, right_child_id="x", active=False)
        )
        with pytest.raises(KeyError):
            table.record_consolidation(group("011*"))

    def test_refused_split_leaves_the_table_untouched(self):
        """The left child's row already exists: the parent must stay active."""
        table = ServerTable(key_bits=7)
        table.add_entry(
            ServerTableEntry(group=group("010*"), parent_id=None, right_child_id="x", active=False)
        )
        table.add_entry(ServerTableEntry(group=group("01*"), parent_id=None))
        before = table.describe()
        with pytest.raises(ValueError):
            table.record_split(group("01*"), right_child_server="s12")
        assert table.describe() == before
        assert table.active_group_for(key("0101010")) == group("01*")
        table.check_invariants()

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([("011*", True)], ValueError),  # already active
            ([("011*", False)], KeyError),  # left child absent
            ([("011*", False), ("0110*", False)], ValueError),  # left child split further
            # an active row under the right half would overlap the restored parent
            ([("011*", False), ("0110*", True), ("01111*", True)], ValueError),
        ],
    )
    def test_refused_consolidation_leaves_the_table_untouched(self, rows, error):
        table = ServerTable(key_bits=7)
        for pattern, active in rows:
            table.add_entry(
                ServerTableEntry(
                    group=group(pattern),
                    parent_id=None,
                    right_child_id=None if active else "x",
                    active=active,
                )
            )
        before = table.describe()
        with pytest.raises(error):
            table.record_consolidation(group("011*"))
        assert table.describe() == before
        table.check_invariants()

    def test_remove_entry(self):
        table = ServerTable(key_bits=7)
        table.add_entry(ServerTableEntry(group=group("011*"), parent_id=None))
        removed = table.remove_entry(group("011*"))
        assert removed.group == group("011*")
        assert len(table) == 0
        with pytest.raises(KeyError):
            table.remove_entry(group("011*"))

    def test_entry_lookup_unknown_group(self):
        with pytest.raises(KeyError):
            ServerTable(key_bits=7).entry(group("011*"))

    def test_invalid_key_bits(self):
        with pytest.raises(ValueError):
            ServerTable(key_bits=0)

    def test_queries_reject_wrong_width_keys(self, figure2_table: ServerTable):
        with pytest.raises(ValueError):
            figure2_table.active_group_for(IdentifierKey.from_bits("01100010"))
        with pytest.raises(ValueError):
            figure2_table.longest_prefix_match(IdentifierKey.from_bits("01100010"))
