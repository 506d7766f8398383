"""The ordered ``ServerTable`` against the scan-every-row reference.

A hypothesis state machine drives random ``add_entry`` / ``remove_entry`` /
``record_split`` / ``record_consolidation`` sequences through a real table and
through :class:`table_oracle.ReferenceTable`, and after every step requires the
two to agree on both ACCEPT_OBJECT queries, every ordered view and which
mutations are refused (a refused mutation must leave the table untouched).
Groups are drawn next to the rows already present — a row again, its parent,
sibling, children, a deeper descendant — so overlaps, duplicates and inactive
rows with and without active descendants all occur; keys are probed at 0, at
all-ones and on both sides of every row's arc boundaries.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from table_oracle import ReferenceTable

from repro.core.server_table import ServerTable, ServerTableEntry
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup


class TableMachine(RuleBasedStateMachine):
    WIDTH = 7

    def __init__(self) -> None:
        super().__init__()
        self.table = ServerTable(key_bits=self.WIDTH)
        self.reference = ReferenceTable()

    # -------------------------------------------------------------- #
    # Drawing groups and keys
    # -------------------------------------------------------------- #

    def _draw_group(self, data) -> KeyGroup:
        width = self.WIDTH
        if self.reference.rows and data.draw(st.booleans(), label="near an existing row"):
            base = data.draw(st.sampled_from(list(self.reference.rows)), label="base")
            moves = ["same"]
            if base.depth > 0:
                moves += ["parent", "sibling"]
            if base.depth < width:
                moves += ["left", "right", "descendant"]
            move = data.draw(st.sampled_from(moves), label="move")
            if move == "same":  # equal, but never the stored object
                return KeyGroup(prefix=base.prefix, depth=base.depth, width=width)
            if move == "parent":
                return base.parent()
            if move == "sibling":
                return base.sibling()
            if move in ("left", "right"):
                return base.child(0 if move == "left" else 1)
            extra = data.draw(st.integers(1, width - base.depth), label="extra depth")
            tail = data.draw(st.integers(0, (1 << extra) - 1), label="tail")
            return KeyGroup(prefix=(base.prefix << extra) | tail, depth=base.depth + extra, width=width)
        depth = data.draw(st.integers(0, width), label="depth")
        top = (1 << depth) - 1
        prefix = data.draw(st.sampled_from([0, top]) | st.integers(0, top), label="prefix")
        return KeyGroup(prefix=prefix, depth=depth, width=width)

    def _boundary_keys(self) -> list[IdentifierKey]:
        top = (1 << self.WIDTH) - 1
        values = {0, top}
        for group in self.reference.rows:
            first = group.prefix << (self.WIDTH - group.depth)
            values.update((first - 1, first, first + group.size - 1, first + group.size))
        return [IdentifierKey(value, self.WIDTH) for value in sorted(values) if 0 <= value <= top]

    # -------------------------------------------------------------- #
    # Mutations: same verdict as the reference, refusals change nothing
    # -------------------------------------------------------------- #

    def _apply(self, mutate, expected: type[Exception] | None) -> bool:
        """Run ``mutate`` on the table; True when it went through."""
        before = self.table.describe()
        try:
            mutate()
        except (KeyError, ValueError) as error:
            assert expected is not None, f"unexpected refusal: {error!r}"
            assert type(error) is expected
            assert self.table.describe() == before
            return False
        assert expected is None, f"expected {expected.__name__}"
        return True

    @rule(data=st.data(), active=st.booleans())
    def add(self, data, active: bool) -> None:
        group = self._draw_group(data)
        refused = group in self.reference.rows or (
            active and self.reference.overlapping_active(group)
        )
        entry = ServerTableEntry(
            group=group, parent_id=None, right_child_id=None if active else "elsewhere", active=active
        )
        if self._apply(lambda: self.table.add_entry(entry), ValueError if refused else None):
            self.reference.rows[group] = active

    @rule(data=st.data())
    def remove(self, data) -> None:
        group = self._draw_group(data)
        expected = None if group in self.reference.rows else KeyError
        if self._apply(lambda: self.table.remove_entry(group), expected):
            del self.reference.rows[group]

    @rule(data=st.data())
    def split(self, data) -> None:
        group = self._draw_group(data)
        rows = self.reference.rows
        if group not in rows:
            expected = KeyError
        elif not rows[group] or group.depth == self.WIDTH or group.split()[0] in rows:
            expected = ValueError
        else:
            expected = None
        if self._apply(lambda: self.table.record_split(group, "elsewhere"), expected):
            rows[group] = False
            rows[group.split()[0]] = True

    @rule(data=st.data())
    def consolidate(self, data) -> None:
        parent = self._draw_group(data)
        rows = self.reference.rows
        if parent not in rows:
            expected = KeyError
        elif rows[parent] or parent.depth == self.WIDTH:
            expected = ValueError
        elif parent.split()[0] not in rows:
            expected = KeyError
        elif not rows[parent.split()[0]] or self.reference.overlapping_active(parent.split()[1]):
            expected = ValueError
        else:
            expected = None
        if self._apply(lambda: self.table.record_consolidation(parent), expected):
            del rows[parent.split()[0]]
            rows[parent] = True

    # -------------------------------------------------------------- #
    # Readers
    # -------------------------------------------------------------- #

    def _check_queries(self, key: IdentifierKey) -> None:
        found = self.table.active_group_for(key)
        assert found == self.reference.active_group_for(key)
        if found is not None:
            assert found is self.table.entry(found).group
        assert self.table.longest_prefix_match(key) == self.reference.longest_prefix_match(key)

    @rule(data=st.data())
    def probe(self, data) -> None:
        value = data.draw(st.integers(0, (1 << self.WIDTH) - 1), label="key")
        self._check_queries(IdentifierKey(value, self.WIDTH))

    @invariant()
    def readers_agree_with_the_reference(self) -> None:
        table, reference = self.table, self.reference
        assert len(table) == len(reference.rows)
        assert [entry.group for entry in table.entries()] == reference.all_groups()
        assert table.active_groups() == reference.active_groups()
        assert table.inactive_groups() == reference.inactive_groups()
        assert table.has_active_groups() == bool(reference.active_groups())
        for entry in table.entries():
            assert entry.active == reference.rows[entry.group]
        table.check_invariants()
        for key in self._boundary_keys():
            self._check_queries(key)


def _machine(width: int):
    machine = type(f"TableMachine{width}", (TableMachine,), {"WIDTH": width})
    case = machine.TestCase
    case.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
    return case


TestWidth1 = _machine(1)
TestWidth7 = _machine(7)
TestWidth24 = _machine(24)
TestWidth70 = _machine(70)  # wider than a machine word
