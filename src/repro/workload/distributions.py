"""The three workload skew profiles of Figure 3, plus generic skew helpers.

The paper plots, for each workload, how many clients pick each of the 2^8
base-key values.  Workload A is "almost uniform", workload B moderately
skewed and workload C sharply peaked (the hottest handful of base values
carry a quarter or more of all traffic, which is what drives the DHT(6)
baseline to ~25× a single server's capacity).  The exact curves were not
published, so the profiles below are synthetic reconstructions with the same
qualitative shapes and ordering; `skew_statistics` quantifies them so the
Figure 3 benchmark can report the skew explicitly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.util.validation import check_positive, check_type

__all__ = [
    "WorkloadSpec",
    "uniform_weights",
    "zipf_weights",
    "workload_a",
    "workload_b",
    "workload_c",
    "skew_statistics",
]

DEFAULT_BASE_BITS = 8
"""The paper's X = 8 skewed base bits."""


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload: a base-value skew plus a per-source packet rate.

    Attributes:
        name: Workload label ("A", "B", "C", or custom).
        base_bits: Number of base bits the weights cover (2**base_bits values).
        weights: Unnormalised weights over the base values.
        source_rate: Packets per second emitted by each data source.
    """

    name: str
    base_bits: int
    weights: tuple[float, ...]
    source_rate: float

    def __post_init__(self) -> None:
        check_type("name", self.name, str)
        check_type("base_bits", self.base_bits, int)
        check_positive("base_bits", self.base_bits)
        check_positive("source_rate", self.source_rate)
        if len(self.weights) != (1 << self.base_bits):
            raise ValueError(
                f"weights must have {1 << self.base_bits} entries, got {len(self.weights)}"
            )
        if any(weight < 0 for weight in self.weights):
            raise ValueError("weights must be non-negative")
        if sum(self.weights) <= 0:
            raise ValueError("weights must sum to a positive value")

    @functools.cached_property
    def total_weight(self) -> float:
        """Sum of the unnormalised weights (computed once; the spec is frozen).

        ``cached_property`` stores the value in the instance ``__dict__``,
        which bypasses the frozen dataclass's ``__setattr__`` and leaves
        equality and hashing (field-based) untouched.
        """
        return float(sum(self.weights))

    def probability(self, base_value: int) -> float:
        """The probability a client picks the given base value."""
        if not 0 <= base_value < len(self.weights):
            raise ValueError(
                f"base_value must be in [0, {len(self.weights)}), got {base_value}"
            )
        return self.weights[base_value] / self.total_weight

    def prefix_probability(self, prefix: int, depth: int) -> float:
        """Probability mass of keys whose first ``depth`` bits equal ``prefix``.

        ``depth`` may be smaller than ``base_bits`` (the prefix aggregates
        several base values) or larger (the excess bits are uniform, so the
        base value's mass is divided evenly among its sub-prefixes).
        """
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        if not 0 <= prefix < (1 << depth):
            raise ValueError(f"prefix {prefix} does not fit in {depth} bits")
        if depth <= self.base_bits:
            shift = self.base_bits - depth
            start = prefix << shift
            end = (prefix + 1) << shift
            mass = sum(self.weights[start:end])
            return mass / self.total_weight
        base_value = prefix >> (depth - self.base_bits)
        excess = depth - self.base_bits
        return self.probability(base_value) / (1 << excess)

    def expected_counts(self, population: int) -> list[float]:
        """Expected number of clients per base value for a given population size.

        This is exactly what Figure 3 plots.
        """
        if population < 0:
            raise ValueError(f"population must be non-negative, got {population}")
        total = self.total_weight
        return [population * weight / total for weight in self.weights]


def uniform_weights(base_bits: int = DEFAULT_BASE_BITS) -> tuple[float, ...]:
    """Exactly uniform weights over the base values."""
    check_positive("base_bits", base_bits)
    return tuple(1.0 for _ in range(1 << base_bits))


def zipf_weights(base_bits: int = DEFAULT_BASE_BITS, exponent: float = 1.0) -> tuple[float, ...]:
    """Zipf-distributed weights (rank 1 is base value 0)."""
    check_positive("base_bits", base_bits)
    check_positive("exponent", exponent)
    return tuple(1.0 / (rank ** exponent) for rank in range(1, (1 << base_bits) + 1))


def _gaussian_bump(
    base_bits: int, baseline: float, amplitude: float, centre: int, width: float
) -> tuple[float, ...]:
    values = []
    for index in range(1 << base_bits):
        values.append(
            baseline + amplitude * math.exp(-((index - centre) ** 2) / (2.0 * width ** 2))
        )
    return tuple(values)


def workload_a(base_bits: int = DEFAULT_BASE_BITS) -> WorkloadSpec:
    """Workload A: almost uniform, sources stream at 1 packet/second."""
    count = 1 << base_bits
    weights = tuple(
        1.0 + 0.05 * math.cos(2.0 * math.pi * index / count) for index in range(count)
    )
    return WorkloadSpec(name="A", base_bits=base_bits, weights=weights, source_rate=1.0)


def workload_b(base_bits: int = DEFAULT_BASE_BITS) -> WorkloadSpec:
    """Workload B: moderately skewed (a broad hot region), 2 packets/second."""
    count = 1 << base_bits
    weights = _gaussian_bump(
        base_bits,
        baseline=0.5,
        amplitude=2.5,
        centre=int(count * 0.375),
        width=count / 8.0,
    )
    return WorkloadSpec(name="B", base_bits=base_bits, weights=weights, source_rate=2.0)


def workload_c(base_bits: int = DEFAULT_BASE_BITS) -> WorkloadSpec:
    """Workload C: highly skewed (a sharp hot spot), 2 packets/second.

    The hottest few base values carry roughly a quarter of the total mass,
    which reproduces the paper's observation that a fixed-depth DHT(6)
    concentrates up to ~25× a server's capacity on one node.
    """
    count = 1 << base_bits
    weights = _gaussian_bump(
        base_bits,
        baseline=0.1,
        amplitude=25.0,
        centre=int(count * 0.625),
        width=count / 51.2,
    )
    return WorkloadSpec(name="C", base_bits=base_bits, weights=weights, source_rate=2.0)


def skew_statistics(spec: WorkloadSpec) -> dict[str, float]:
    """Quantify a workload's skew.

    Returns the max/mean weight ratio, the share of the hottest base value,
    the share of the hottest 4 contiguous values (the granularity a 6-bit
    fixed-depth DHT sees when the base is 8 bits) and the normalised entropy.
    """
    weights = spec.weights
    total = spec.total_weight
    count = len(weights)
    mean_weight = total / count
    hottest = max(weights)
    hottest_share = hottest / total
    window = max(1, count // 64)
    hottest_window_share = max(
        sum(weights[start : start + window]) / total
        for start in range(0, count - window + 1)
    )
    entropy = 0.0
    for weight in weights:
        if weight > 0:
            probability = weight / total
            entropy -= probability * math.log2(probability)
    return {
        "max_over_mean": hottest / mean_weight,
        "hottest_share": hottest_share,
        "hottest_window_share": hottest_window_share,
        "normalised_entropy": entropy / math.log2(count),
    }
