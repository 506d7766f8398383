"""The reference for :class:`repro.core.server_table.ServerTable`'s readers.

``ReferenceTable`` is Figure 2's table as a plain insertion-ordered dict,
answered the way ``ServerTable`` answered before it kept its rows ordered: every
query walks every row and every ordered view is a ``sorted()`` call.  It is slow
and obviously right; ``test_server_table_properties.py`` holds the real table to
it after every mutation.
"""

from __future__ import annotations

from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup


class ReferenceTable:
    """``group -> active`` in insertion order; no index, no cache."""

    def __init__(self) -> None:
        self.rows: dict[KeyGroup, bool] = {}

    def active_group_for(self, key: IdentifierKey) -> KeyGroup | None:
        for group, active in self.rows.items():
            if active and group.contains_key(key):
                return group
        return None

    def longest_prefix_match(self, key: IdentifierKey) -> int:
        best = 0
        for group in self.rows:
            match = min(key.common_prefix_length(group.virtual_key), group.depth)
            best = max(best, match)
        return best

    def overlapping_active(self, group: KeyGroup) -> list[KeyGroup]:
        """Every active row sharing a key with ``group`` (the all-rows check)."""
        return [
            existing
            for existing, active in self.rows.items()
            if active and existing.overlaps(group)
        ]

    def all_groups(self) -> list[KeyGroup]:
        return sorted(self.rows)

    def active_groups(self) -> list[KeyGroup]:
        return sorted(group for group, active in self.rows.items() if active)

    def inactive_groups(self) -> list[KeyGroup]:
        return sorted(group for group, active in self.rows.items() if not active)
