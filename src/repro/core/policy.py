"""Split and merge selection policies.

The paper deliberately leaves the choice of *which* key group an overloaded
server sheds (and which cold group a server tries to consolidate) outside the
core protocol specification; its implementation uses the hottest group for
splitting and the coldest active group for consolidation (Section 6).  The
policies are pluggable here so that the split-policy ablation
(``benchmarks/bench_ablation_policies.py``) can quantify how much that choice
matters.
"""

from __future__ import annotations

import abc

from repro.keys.keygroup import KeyGroup
from repro.util.rng import RandomStream

__all__ = [
    "SplitPolicy",
    "MergePolicy",
    "HottestGroupSplitPolicy",
    "RandomGroupSplitPolicy",
    "RoundRobinSplitPolicy",
    "CoolestGroupMergePolicy",
]


class SplitPolicy(abc.ABC):
    """Chooses which active key group an overloaded server should split."""

    @abc.abstractmethod
    def select(self, group_loads: dict[KeyGroup, float], max_depth: int) -> KeyGroup | None:
        """Pick a group to split.

        Args:
            group_loads: Load (absolute units/sec) of each active group on the
                overloaded server.
            max_depth: Groups already at this depth cannot be split further.

        Returns:
            The chosen group, or ``None`` if no group is splittable.
        """

    @staticmethod
    def _splittable(group_loads: dict[KeyGroup, float], max_depth: int) -> list[KeyGroup]:
        return [group for group in group_loads if group.depth < max_depth]


class HottestGroupSplitPolicy(SplitPolicy):
    """The paper's choice: split the group with the highest recent load."""

    def select(self, group_loads: dict[KeyGroup, float], max_depth: int) -> KeyGroup | None:
        candidates = self._splittable(group_loads, max_depth)
        if not candidates:
            return None
        return max(candidates, key=lambda group: (group_loads[group], group))


class RandomGroupSplitPolicy(SplitPolicy):
    """Ablation: split a uniformly random splittable group."""

    def __init__(self, rng: RandomStream) -> None:
        self._rng = rng

    def select(self, group_loads: dict[KeyGroup, float], max_depth: int) -> KeyGroup | None:
        candidates = self._splittable(group_loads, max_depth)
        if not candidates:
            return None
        return self._rng.choice(sorted(candidates))


class RoundRobinSplitPolicy(SplitPolicy):
    """Ablation: cycle deterministically through the splittable groups."""

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, group_loads: dict[KeyGroup, float], max_depth: int) -> KeyGroup | None:
        candidates = sorted(self._splittable(group_loads, max_depth))
        if not candidates:
            return None
        choice = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return choice


class MergePolicy(abc.ABC):
    """Chooses which cold group an under-loaded server should try to consolidate."""

    @abc.abstractmethod
    def select(
        self, group_loads: dict[KeyGroup, float], cold_threshold: float, min_depth: int
    ) -> KeyGroup | None:
        """Pick an active group whose parent should attempt consolidation.

        Args:
            group_loads: Load of each active group on the under-loaded server.
            cold_threshold: Loads at or below this value count as cold.
            min_depth: Groups at this depth (root groups) are never merged.
        """


class CoolestGroupMergePolicy(MergePolicy):
    """The paper's choice: consolidate the coldest active key group."""

    def select(
        self, group_loads: dict[KeyGroup, float], cold_threshold: float, min_depth: int
    ) -> KeyGroup | None:
        candidates = [
            group
            for group, load in group_loads.items()
            if group.depth > min_depth and load <= cold_threshold
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda group: (group_loads[group], group))
