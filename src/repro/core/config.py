"""Configuration of the CLASH protocol and its simulation environment.

Defaults follow Section 6.1 of the paper: N = 24-bit identifier keys with an
8-bit skewed base portion, a 24-bit hash space, a starting depth of 6, a
90 % overload threshold, a 54 % underload threshold and a 5-minute
LOAD_CHECK_PERIOD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import (
    check_in_range,
    check_positive,
    check_type,
)

__all__ = ["ClashConfig"]


@dataclass(frozen=True)
class ClashConfig:
    """All tunable parameters of a CLASH deployment.

    Attributes:
        key_bits: Identifier key width N.
        hash_bits: Hash space width M used by the underlying DHT.
        base_bits: Number of leading key bits drawn from the (possibly skewed)
            base distribution in the simulated workloads (X in the paper).
        initial_depth: Depth at which the key space is initially partitioned
            into root key groups (the paper's depth-variation plot starts at 6).
        min_depth: Minimum depth consolidation may collapse to; root
            ServerTable entries (ParentID = −1) enforce this floor.
        max_depth: Maximum depth splitting may reach; defaults to ``key_bits``.
        overload_threshold: Fraction of server capacity above which a server
            sheds load (0.90 in the paper).
        underload_threshold: Fraction of capacity below which a leaf group is
            considered "cold" and eligible for consolidation (0.54).
        server_capacity: Server processing capacity in load units per second;
            load values are reported as a percentage of this capacity.
        load_check_period: Seconds between load checks (LOAD_CHECK_PERIOD,
            5 minutes in the paper).
        count_routing_hops: If True, message accounting charges every DHT
            forwarding hop; if False only end-to-end request/reply pairs are
            charged.  The paper is ambiguous on this point, so both modes are
            supported and reported.
        data_rate_weight: Load contributed by one data packet per second.
        query_load_weight: Load contributed by the ``log2(1 + queries)`` term.
    """

    key_bits: int = 24
    hash_bits: int = 24
    base_bits: int = 8
    initial_depth: int = 6
    min_depth: int = 2
    max_depth: int | None = None
    overload_threshold: float = 0.90
    underload_threshold: float = 0.54
    server_capacity: float = 4000.0
    load_check_period: float = 300.0
    count_routing_hops: bool = False
    data_rate_weight: float = 1.0
    query_load_weight: float = 10.0

    def __post_init__(self) -> None:
        check_type("key_bits", self.key_bits, int)
        check_type("hash_bits", self.hash_bits, int)
        check_type("base_bits", self.base_bits, int)
        check_type("initial_depth", self.initial_depth, int)
        check_type("min_depth", self.min_depth, int)
        check_positive("key_bits", self.key_bits)
        check_positive("hash_bits", self.hash_bits)
        if not 0 <= self.base_bits <= self.key_bits:
            raise ValueError(
                f"base_bits must be in [0, {self.key_bits}], got {self.base_bits}"
            )
        if not 0 <= self.min_depth <= self.initial_depth <= self.key_bits:
            raise ValueError(
                "expected 0 <= min_depth <= initial_depth <= key_bits, got "
                f"min_depth={self.min_depth}, initial_depth={self.initial_depth}, "
                f"key_bits={self.key_bits}"
            )
        if self.max_depth is not None:
            check_type("max_depth", self.max_depth, int)
            if not self.initial_depth <= self.max_depth <= self.key_bits:
                raise ValueError(
                    f"max_depth must be in [{self.initial_depth}, {self.key_bits}], "
                    f"got {self.max_depth}"
                )
        check_in_range("overload_threshold", self.overload_threshold, 0.0, 10.0)
        check_in_range("underload_threshold", self.underload_threshold, 0.0, 10.0)
        if self.underload_threshold >= self.overload_threshold:
            raise ValueError(
                "underload_threshold must be strictly below overload_threshold, got "
                f"{self.underload_threshold} >= {self.overload_threshold}"
            )
        check_positive("server_capacity", self.server_capacity)
        check_positive("load_check_period", self.load_check_period)
        check_positive("data_rate_weight", self.data_rate_weight)
        if self.query_load_weight < 0:
            raise ValueError(
                f"query_load_weight must be non-negative, got {self.query_load_weight}"
            )

    @property
    def effective_max_depth(self) -> int:
        """The depth splitting may not exceed (``max_depth`` or ``key_bits``)."""
        return self.max_depth if self.max_depth is not None else self.key_bits

    @property
    def overload_load(self) -> float:
        """Overload threshold expressed in absolute load units per second."""
        return self.overload_threshold * self.server_capacity

    @property
    def underload_load(self) -> float:
        """Underload threshold expressed in absolute load units per second."""
        return self.underload_threshold * self.server_capacity

    def with_overrides(self, **overrides) -> "ClashConfig":
        """Return a copy with selected fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    @classmethod
    def paper_defaults(cls) -> "ClashConfig":
        """The configuration used throughout the paper's Section 6 experiments."""
        return cls()

    @classmethod
    def small_scale(cls) -> "ClashConfig":
        """A reduced configuration convenient for unit tests and examples.

        Shorter keys and a lower capacity make splits happen quickly with a
        handful of sources, while leaving every protocol code path identical.
        """
        return cls(
            key_bits=12,
            hash_bits=16,
            base_bits=4,
            initial_depth=2,
            min_depth=1,
            server_capacity=100.0,
            load_check_period=10.0,
        )
