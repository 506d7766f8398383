"""Analytic load measure: expected per-key-group traffic and query counts.

The flow-level simulator does not materialise 100,000 individual data sources.
Because the workload model draws the skewed base bits independently of the
uniformly random remainder bits, the *expected* rate directed at any key group
is simply ``total_rate × P(group)`` where ``P(group)`` is the workload's
prefix probability.  The same holds for the expected number of stored queries.
Using expectations at LOAD_CHECK_PERIOD granularity reproduces the load values
the paper's servers compute (they too aggregate over the measurement interval)
while keeping a 6-hour, 1000-server run tractable.
"""

from __future__ import annotations

import weakref
from typing import Iterable

from repro.keys.keygroup import KeyGroup
from repro.util.validation import check_non_negative
from repro.workload.distributions import WorkloadSpec

__all__ = ["LoadMeasure", "shared_prefix_cache", "shared_base_probabilities"]

_PREFIX_CACHES: "weakref.WeakKeyDictionary[WorkloadSpec, dict[tuple[int, int], float]]" = (
    weakref.WeakKeyDictionary()
)

_BASE_PROBABILITIES: "weakref.WeakKeyDictionary[WorkloadSpec, tuple[float, ...]]" = (
    weakref.WeakKeyDictionary()
)


def shared_prefix_cache(spec: WorkloadSpec) -> dict[tuple[int, int], float]:
    """The (prefix, depth) → probability cache shared by all measures of ``spec``.

    A workload's prefix probabilities depend only on the spec, so successive
    runs over the same workload in one process (a benchmark's rounds, say)
    warm one cache instead of one each.  The
    registry is weakly keyed: the cache lives exactly as long as an equal
    spec does.
    """
    cache = _PREFIX_CACHES.get(spec)
    if cache is None:
        cache = {}
        _PREFIX_CACHES[spec] = cache
    return cache


def shared_base_probabilities(spec: WorkloadSpec) -> tuple[float, ...]:
    """Every base value's probability, computed once per spec.

    Entry ``bv`` is exactly ``spec.probability(bv)`` — the same
    ``weights[bv] / total_weight`` division on the same operands, so the
    shared table is bit-identical to the scalar calls it replaces.  Every
    prefix deeper than ``base_bits`` derives its probability from one of
    these entries; sharing the table is what makes the batched assignment a
    single division per group instead of a weight-slice sum.
    """
    base = _BASE_PROBABILITIES.get(spec)
    if base is None:
        total = spec.total_weight
        base = tuple(weight / total for weight in spec.weights)
        _BASE_PROBABILITIES[spec] = base
    return base


class LoadMeasure:
    """Expected traffic and query mass per key group under a workload.

    Args:
        spec: The active workload (skew + per-source rate).
        total_rate: Aggregate packet rate of all sources (packets/second).
        total_queries: Steady-state number of stored queries in the system.
    """

    def __init__(
        self, spec: WorkloadSpec, total_rate: float, total_queries: float = 0.0
    ) -> None:
        check_non_negative("total_rate", total_rate)
        check_non_negative("total_queries", total_queries)
        self._spec = spec
        self._total_rate = total_rate
        self._total_queries = total_queries
        # (prefix, depth) → probability.  Period assignment asks for the same
        # expectations every load check of a phase; the workload is immutable,
        # so the answers never change and the weight-slice sums dominate the
        # assignment loop without this cache.  The cache is shared per spec —
        # see shared_prefix_cache().
        self._prefix_probability_cache = shared_prefix_cache(spec)
        self._base_probabilities = shared_base_probabilities(spec)

    @property
    def spec(self) -> WorkloadSpec:
        """The workload specification the measure is built from."""
        return self._spec

    @property
    def total_rate(self) -> float:
        """Aggregate packet rate across all sources (packets/second)."""
        return self._total_rate

    @property
    def total_queries(self) -> float:
        """Steady-state number of stored queries."""
        return self._total_queries

    def group_probability(self, group: KeyGroup) -> float:
        """Probability that a freshly drawn key falls in ``group`` (memoized)."""
        cache_key = (group.prefix, group.depth)
        probability = self._prefix_probability_cache.get(cache_key)
        if probability is None:
            probability = self._spec.prefix_probability(group.prefix, group.depth)
            self._prefix_probability_cache[cache_key] = probability
        return probability

    def group_rate(self, group: KeyGroup) -> float:
        """Expected packet rate directed at ``group`` (packets/second)."""
        return self._total_rate * self.group_probability(group)

    def group_queries(self, group: KeyGroup) -> float:
        """Expected number of stored queries whose keys fall in ``group``."""
        return self._total_queries * self.group_probability(group)

    def assignment(self, group: KeyGroup) -> tuple[float, float]:
        """``(expected rate, expected queries)`` with one probability lookup."""
        probability = self.group_probability(group)
        return self._total_rate * probability, self._total_queries * probability

    def _ensure_probabilities(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Batch-fill the shared prefix cache for every missing (prefix, depth).

        Trie-style sharing: prefixes deeper than ``base_bits`` all derive
        from the per-spec base-probability table (one shared division per
        base value, then one division per prefix), and sibling prefixes at
        one depth share the ``1 << excess`` scale.  Each individual float
        operation — the base division, the excess division, the weight-slice
        sum for shallow prefixes — is the same operation on the same operands
        as the scalar :meth:`WorkloadSpec.prefix_probability` path, in the
        same order, so the batched results are bit-identical (the loadmeasure
        test suite asserts exact equality).
        """
        cache = self._prefix_probability_cache
        spec = self._spec
        base_bits = spec.base_bits
        weights = spec.weights
        total = spec.total_weight
        base = self._base_probabilities
        by_depth: dict[int, list[int]] = {}
        for prefix, depth in pairs:
            if (prefix, depth) not in cache:
                by_depth.setdefault(depth, []).append(prefix)
        for depth, prefixes in by_depth.items():
            if depth < 0:
                raise ValueError(f"depth must be non-negative, got {depth}")
            if depth <= base_bits:
                # Shallow prefixes aggregate weight slices.  The sums stay
                # sequential left-to-right — summing children and combining
                # would reorder the additions and change the low bits.
                shift = base_bits - depth
                for prefix in prefixes:
                    start = prefix << shift
                    cache[(prefix, depth)] = sum(weights[start : (prefix + 1) << shift]) / total
            else:
                excess = depth - base_bits
                scale = 1 << excess
                for prefix in prefixes:
                    cache[(prefix, depth)] = base[prefix >> excess] / scale

    def assign_rates(
        self, groups: Iterable[KeyGroup]
    ) -> dict[KeyGroup, tuple[float, float]]:
        """Bulk assignment: ``{group: (rate, queries)}`` in a single pass.

        Missing probabilities are computed through the batched trie path
        (:meth:`_ensure_probabilities`) — one shared base-probability table
        and one division per group — instead of a weight-slice sum each, then
        every group's expectations come from the shared prefix cache.
        """
        materialised = list(groups)
        self._ensure_probabilities((group.prefix, group.depth) for group in materialised)
        cache = self._prefix_probability_cache
        total_rate = self._total_rate
        total_queries = self._total_queries
        assignments: dict[KeyGroup, tuple[float, float]] = {}
        for group in materialised:
            probability = cache[(group.prefix, group.depth)]
            assignments[group] = (total_rate * probability, total_queries * probability)
        return assignments

    def rate_by_prefix(self, depth: int) -> list[float]:
        """Expected rate for every prefix of the given depth (Figure 3 helper)."""
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        self._ensure_probabilities((prefix, depth) for prefix in range(1 << depth))
        cache = self._prefix_probability_cache
        return [
            self._total_rate * cache[(prefix, depth)] for prefix in range(1 << depth)
        ]
