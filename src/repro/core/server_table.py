"""The per-server table of key groups (Figure 2 of the paper).

Each CLASH server maintains only local state: one :class:`ServerTableEntry`
per key group it currently manages or has split in the past.  The entry fields
mirror Figure 2 exactly:

=================  ======================================================
Field              Meaning
=================  ======================================================
VirtualKeyGroup    The key group (virtual key + depth).
Depth              Redundant with the group, kept for fidelity.
ParentID           Server managing the parent group; ``"self"`` when this
                   server split the parent itself; ``None`` (the paper's −1)
                   for root entries, which stop consolidation from
                   collapsing below a configured minimum depth.
RightChildID       Server that accepted the right-child group when this
                   entry was split; ``None`` while the entry is a leaf.
Active             True when the entry is a leaf of the logical tree, i.e.
                   this server is *currently* aggregating keys under it.
=================  ======================================================

The table's central invariant is that the **active** entries of all servers
taken together form a prefix-free cover of the key space — no active group is
an ancestor of another active group.  Locally the table enforces the part of
the invariant it can see, and the property-based tests check the global
version through :class:`~repro.core.protocol.ClashSystem`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup, first_overlapping_pair

__all__ = ["ServerTableEntry", "ServerTable", "SELF_PARENT"]

SELF_PARENT = "self"
"""ParentID marker meaning "this server split the parent group itself"."""


@dataclass
class ServerTableEntry:
    """One row of a server's work table (Figure 2).

    Attributes:
        group: The virtual key group this row describes.
        parent_id: Name of the server managing the parent group, ``"self"``
            if this server split the parent itself, or ``None`` for a root
            entry (the paper's ParentID = −1).
        right_child_id: Name of the server that accepted the right child when
            this row was split; ``None`` while the row is active (a leaf).
        active: True if this row is a leaf of the logical splitting tree.
    """

    group: KeyGroup
    parent_id: str | None
    right_child_id: str | None = None
    active: bool = True

    @property
    def depth(self) -> int:
        """The group's depth (the table's Depth column)."""
        return self.group.depth

    @property
    def is_root(self) -> bool:
        """True for root entries (ParentID = −1 in the paper)."""
        return self.parent_id is None

    def describe(self) -> dict[str, object]:
        """Plain-dict view matching the paper's column layout."""
        return {
            "VirtualKeyGroup": self.group.wildcard(),
            "Depth": self.depth,
            "ParentID": self.parent_id if self.parent_id is not None else -1,
            "RightChildID": self.right_child_id if self.right_child_id is not None else "-",
            "Active": "Y" if self.active else "N",
        }


class ServerTable:
    """The set of key-group rows a single server knows about.

    Args:
        key_bits: Identifier key width N; all groups stored must use it.
    """

    def __init__(self, key_bits: int) -> None:
        if key_bits <= 0:
            raise ValueError(f"key_bits must be positive, got {key_bits}")
        self._key_bits = key_bits
        self._entries: dict[KeyGroup, ServerTableEntry] = {}
        # The rows as ``(virtual-key value, depth, group)``, in the order
        # ``KeyGroup.__lt__`` defines (a prefix sorts before its extensions),
        # kept by bisection on every mutation: every row, and the active rows
        # alone.  Both queries of the ACCEPT_OBJECT handler and every ordered
        # view read these lists.  Active-ness therefore changes only through
        # :meth:`record_split` / :meth:`record_consolidation`, never by
        # flipping an entry's ``active`` flag from outside.
        self._rows: list[tuple[int, int, KeyGroup]] = []
        self._active: list[tuple[int, int, KeyGroup]] = []
        #: Optional zero-argument callback fired on every mutation.  The
        #: owning server hooks this to flag its load cache dirty the moment
        #: the table changes — the read path is orders of magnitude hotter
        #: than the mutation path.
        self.on_change = None

    def _row(self, group: KeyGroup) -> tuple[int, int, KeyGroup]:
        return (group.prefix << (self._key_bits - group.depth), group.depth, group)

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()

    # ------------------------------------------------------------------ #
    # Basic access
    # ------------------------------------------------------------------ #

    @property
    def key_bits(self) -> int:
        """Identifier key width the table operates over."""
        return self._key_bits

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, group: KeyGroup) -> bool:
        return group in self._entries

    def entries(self) -> list[ServerTableEntry]:
        """All rows, sorted by virtual key then depth (stable for reporting)."""
        entries = self._entries
        return [entries[group] for _value, _depth, group in self._rows]

    def entry(self, group: KeyGroup) -> ServerTableEntry:
        """The row for ``group`` (raises :class:`KeyError` if absent)."""
        if group not in self._entries:
            raise KeyError(f"no table entry for group {group}")
        return self._entries[group]

    def active_groups(self) -> list[KeyGroup]:
        """The groups this server currently manages (the leaves), sorted."""
        return [group for _value, _depth, group in self._active]

    def has_active_groups(self) -> bool:
        """True if at least one entry is active (O(1))."""
        return bool(self._active)

    def inactive_groups(self) -> list[KeyGroup]:
        """Previously split groups retained as interior bookkeeping rows."""
        entries = self._entries
        return [group for _value, _depth, group in self._rows if not entries[group].active]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_entry(self, entry: ServerTableEntry) -> None:
        """Insert a new row, enforcing local invariants.

        A new *active* row may not be an ancestor or descendant of an existing
        active row: a server never simultaneously aggregates keys under both a
        group and one of its sub-groups.
        """
        group = entry.group
        if group.width != self._key_bits:
            raise ValueError(
                f"group width {group.width} does not match table key_bits {self._key_bits}"
            )
        if group in self._entries:
            raise ValueError(f"group {group} already has a table entry")
        row = self._row(group)
        if entry.active:
            # Only the two neighbours in the active order can overlap the new
            # row (the adjacency argument of ``first_overlapping_pair``).
            at = bisect_left(self._active, row)
            for _value, _depth, existing in self._active[max(at - 1, 0) : at + 1]:
                if existing.overlaps(group):
                    raise ValueError(
                        f"active group {group} overlaps existing active group {existing}"
                    )
            self._active.insert(at, row)
        insort(self._rows, row)
        self._entries[group] = entry
        self._changed()

    def remove_entry(self, group: KeyGroup) -> ServerTableEntry:
        """Remove and return the row for ``group``."""
        if group not in self._entries:
            raise KeyError(f"no table entry for group {group}")
        removed = self._entries.pop(group)
        row = self._row(group)
        del self._rows[bisect_left(self._rows, row)]
        if removed.active:
            del self._active[bisect_left(self._active, row)]
        self._changed()
        return removed

    def record_split(self, group: KeyGroup, right_child_server: str) -> tuple[KeyGroup, KeyGroup]:
        """Record that ``group`` was split and its right child shipped away.

        The row for ``group`` becomes inactive with ``RightChildID`` set; a new
        active row is created for the left child with ``ParentID = "self"``.
        Returns the (left, right) child groups.  A refused split leaves the
        table as it was.
        """
        entry = self.entry(group)
        if not entry.active:
            raise ValueError(f"cannot split inactive group {group}")
        left, right = group.split()
        if left in self._entries:
            raise ValueError(f"cannot split {group}: left child {left} already has a table entry")
        entry.active = False
        entry.right_child_id = right_child_server
        del self._active[bisect_left(self._active, self._row(group))]
        # The parent was active, so nothing active overlaps its left half.
        self.add_entry(ServerTableEntry(group=left, parent_id=SELF_PARENT))
        return left, right

    def record_consolidation(self, parent_group: KeyGroup) -> KeyGroup:
        """Record that the children of ``parent_group`` were merged back.

        The left child's row (held locally) is removed, the parent row becomes
        active again and its ``RightChildID`` is cleared.  Returns the left
        child group that was removed.  A refused consolidation leaves the
        table as it was.
        """
        entry = self.entry(parent_group)
        if entry.active:
            raise ValueError(f"group {parent_group} is already active; nothing to consolidate")
        left, _right = parent_group.split()
        if left not in self._entries:
            raise KeyError(
                f"cannot consolidate {parent_group}: left child {left} is not in the table"
            )
        if not self._entries[left].active:
            raise ValueError(
                f"cannot consolidate {parent_group}: left child {left} has itself been split"
            )
        row = self._row(entry.group)  # the stored object, not the caller's equal one
        at = bisect_left(self._active, row)  # the left child's slot: same value, one deeper
        if at + 1 < len(self._active) and parent_group.contains_group(self._active[at + 1][2]):
            raise ValueError(
                f"cannot consolidate {parent_group}: active group {self._active[at + 1][2]} "
                f"is still held under its right half"
            )
        self.remove_entry(left)
        entry.active = True
        entry.right_child_id = None
        self._active.insert(at, row)
        self._changed()
        return left

    # ------------------------------------------------------------------ #
    # Queries used by the ACCEPT_OBJECT handler
    # ------------------------------------------------------------------ #

    def active_group_for(self, key: IdentifierKey) -> KeyGroup | None:
        """The active group containing ``key``, or ``None`` if no leaf matches.

        At most one active group can match because active groups are mutually
        prefix-free — and for the same reason no active row can sort between a
        containing group and the key, so the match is the key's predecessor
        in the active order or nothing.
        """
        key_bits = self._key_bits
        if key.width != key_bits:
            raise ValueError(
                f"key width {key.width} does not match table key_bits {key_bits}"
            )
        at = bisect_right(self._active, (key.value, key_bits + 1))
        if at:
            value, depth, group = self._active[at - 1]
            if (key.value ^ value) >> (key_bits - depth) == 0:
                return group
        return None

    def longest_prefix_match(self, key: IdentifierKey) -> int:
        """The longest common prefix between ``key`` and any table row.

        This is the ``d_min`` value an ``INCORRECT_DEPTH`` reply carries; the
        client uses it to narrow its binary search.  Inactive rows count too —
        they tell the client that the group has been split to a greater depth.
        A row matches in ``min(common prefix with its virtual key, depth)``
        bits, which only falls moving away from the key's insertion point in
        row order, so its two neighbours there decide the answer.
        """
        key_bits = self._key_bits
        if key.width != key_bits:
            raise ValueError(
                f"key width {key.width} does not match table key_bits {key_bits}"
            )
        at = bisect_right(self._rows, (key.value, key_bits + 1))
        best = 0
        for value, depth, _group in self._rows[max(at - 1, 0) : at + 1]:
            best = max(best, min(key_bits - (key.value ^ value).bit_length(), depth))
        return best

    # ------------------------------------------------------------------ #
    # Invariant checking (used heavily by the test-suite)
    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` if any local invariant is violated."""
        entries = self._entries
        assert self._rows == sorted(self._row(group) for group in entries), (
            "the ordered rows disagree with the entries"
        )
        assert self._active == [row for row in self._rows if entries[row[2]].active], (
            "the ordered active rows disagree with the entries' flags"
        )
        pair = first_overlapping_pair(group for _value, _depth, group in self._active)
        assert pair is None, f"active groups {pair[0]} and {pair[1]} overlap"
        for group, entry in entries.items():
            if not entry.active:
                assert entry.right_child_id is not None, (
                    f"inactive group {group} must record its right child"
                )

    def describe(self) -> list[dict[str, object]]:
        """The table rendered as Figure 2-style rows (list of plain dicts)."""
        return [entry.describe() for entry in self.entries()]
