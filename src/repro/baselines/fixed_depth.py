"""The paper's non-adaptive comparator: basic DHT with fixed key length.

``DHT(x)`` hashes every object's identifier key truncated to ``x`` bits, so
the key space is statically partitioned into ``2**x`` groups and the partition
never reacts to load.  The paper evaluates x ∈ {2, 6, 12, 24}: small x gives
acceptable average utilisation but catastrophic hotspots under skew, large x
gives near-uniform load but spreads the work so thinly that server utilisation
collapses and every server is dragged into the application.

The simulator is vectorised and stays fast up to ``x = 24`` by enumerating
the partition at depth ``min(x, ENUMERATION_DEPTH)`` only.  For
``x > ENUMERATION_DEPTH`` that is an approximation: each enumerated group
stands for its ``2**(x - ENUMERATION_DEPTH)`` descendants and is charged whole
to the server its own virtual key hashes to.  The workloads spread load
uniformly below ``base_bits`` (8 in the paper), and every descendant's
virtual key would hash to a uniformly random server as well, so each server's
expected load is unchanged; placing the descendants separately would only
smooth the per-server totals (a lower spread, so a slightly lower maximum).
The depth, group count and message rate reported are those of ``x`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ClashConfig
from repro.dht.hashspace import HashSpace
from repro.dht.ring import ChordRing
from repro.keys.keygroup import KeyGroup
from repro.sim.metrics import MetricsRecorder, PeriodSample
from repro.sim.simulator import SimulationParams, SimulationResult
from repro.util.rng import SeedSequenceFactory
from repro.util.validation import check_positive, check_type
from repro.workload.distributions import WorkloadSpec
from repro.workload.scenario import PhasedScenario

__all__ = ["FixedDepthDhtSimulator"]

ENUMERATION_DEPTH = 16
"""The deepest partition the simulator enumerates (``2**16`` groups)."""


@dataclass
class _Partition:
    """The static (group → server index) partition of a fixed-depth DHT."""

    depth: int
    owners: np.ndarray  # shape (2**depth,), dtype int32, server indices
    mean_lookup_hops: float


class FixedDepthDhtSimulator:
    """Simulate ``DHT(fixed_depth)`` over the paper's phased scenario.

    Args:
        config: Protocol configuration (capacity, load weights, check period).
        params: Scale parameters (shared with the CLASH simulator so the two
            are directly comparable).
        scenario: Workload schedule.
        fixed_depth: The fixed identifier-key length ``x``.
    """

    def __init__(
        self,
        config: ClashConfig,
        params: SimulationParams,
        scenario: PhasedScenario,
        fixed_depth: int,
    ) -> None:
        check_type("config", config, ClashConfig)
        check_type("params", params, SimulationParams)
        check_type("fixed_depth", fixed_depth, int)
        check_positive("fixed_depth", fixed_depth)
        if fixed_depth > config.key_bits:
            raise ValueError(
                f"fixed_depth must not exceed key_bits ({config.key_bits}), got {fixed_depth}"
            )
        self._config = config
        self._params = params
        self._scenario = scenario
        self._fixed_depth = fixed_depth
        self._enumeration_depth = min(fixed_depth, ENUMERATION_DEPTH)
        seeds = SeedSequenceFactory(params.seed)
        self._ring = ChordRing(space=HashSpace(bits=config.hash_bits))
        ring_rng = seeds.stream("ring")
        used: set[int] = set()
        for index in range(params.server_count):
            node_id = ring_rng.randbits(config.hash_bits)
            while node_id in used:
                node_id = ring_rng.randbits(config.hash_bits)
            used.add(node_id)
            self._ring.add_node(f"s{index}", node_id=node_id)
        self._ring.stabilise()
        self._partition = self._build_partition()
        self._recorder = MetricsRecorder()

    @property
    def label(self) -> str:
        """The run's label, e.g. ``"DHT(12)"``."""
        return f"DHT({self._fixed_depth})"

    @property
    def ring(self) -> ChordRing:
        """The underlying Chord ring."""
        return self._ring

    @property
    def enumeration_depth(self) -> int:
        """The depth at which the partition is actually enumerated."""
        return self._enumeration_depth

    # ------------------------------------------------------------------ #
    # Static partition
    # ------------------------------------------------------------------ #

    def _build_partition(self) -> _Partition:
        depth = self._enumeration_depth
        names = {name: index for index, name in enumerate(sorted(self._ring.node_names()))}
        owners = np.empty(1 << depth, dtype=np.int32)
        hash_function = self._ring.hash_function
        hop_samples: list[int] = []
        sample_stride = max(1, (1 << depth) // 256)
        for prefix in range(1 << depth):
            group = KeyGroup(prefix=prefix, depth=depth, width=self._config.key_bits)
            hash_key = hash_function.hash_key(group.virtual_key)
            owners[prefix] = names[self._ring.owner_of(hash_key)]
            if prefix % sample_stride == 0:
                hop_samples.append(self._ring.find_successor(hash_key).hops)
        mean_hops = float(np.mean(hop_samples)) if hop_samples else 0.0
        return _Partition(depth=depth, owners=owners, mean_lookup_hops=mean_hops)

    def _prefix_probabilities(self, spec: WorkloadSpec) -> np.ndarray:
        """Probability mass of every enumerated prefix under ``spec``."""
        depth = self._enumeration_depth
        weights = np.asarray(spec.weights, dtype=np.float64)
        weights = weights / weights.sum()
        if depth <= spec.base_bits:
            folded = weights.reshape(1 << depth, -1).sum(axis=1)
            return folded
        expansion = 1 << (depth - spec.base_bits)
        return np.repeat(weights / expansion, expansion)

    # ------------------------------------------------------------------ #
    # Per-period evaluation
    # ------------------------------------------------------------------ #

    def _server_loads(self, spec: WorkloadSpec) -> np.ndarray:
        """Absolute load of every server under the given workload."""
        probabilities = self._prefix_probabilities(spec)
        total_rate = self._params.source_count * spec.source_rate
        group_rates = total_rate * probabilities
        rate_per_server = np.bincount(
            self._partition.owners, weights=group_rates, minlength=self._params.server_count
        )
        load = self._config.data_rate_weight * rate_per_server
        if self._params.query_client_count:
            group_queries = self._params.query_client_count * probabilities
            queries_per_server = np.bincount(
                self._partition.owners,
                weights=group_queries,
                minlength=self._params.server_count,
            )
            load = load + self._config.query_load_weight * np.log2(1.0 + queries_per_server)
        return load

    def _messages_per_server_per_second(self, spec: WorkloadSpec) -> float:
        """Signalling rate of the non-adaptive baseline.

        A basic DHT client performs one DHT lookup per virtual-stream key
        change (and per query registration); there is no depth search and no
        split/merge signalling.
        """
        key_changes_per_second = (
            self._params.source_count * spec.source_rate / self._params.mean_stream_length
        )
        query_arrivals_per_second = (
            self._params.query_client_count / self._params.mean_query_lifetime
            if self._params.query_client_count
            else 0.0
        )
        per_lookup = 2.0
        if self._config.count_routing_hops:
            per_lookup += self._partition.mean_lookup_hops
        total = (key_changes_per_second + query_arrivals_per_second) * per_lookup
        return total / self._params.server_count

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        """Run the scenario and return metrics comparable to the CLASH run."""
        period = self._config.load_check_period
        duration = self._scenario.total_duration
        capacity = self._config.server_capacity
        time = 0.0
        while time < duration:
            period_end = min(time + period, duration)
            spec = self._scenario.workload_at(time)
            loads = self._server_loads(spec)
            active = loads > 0.0
            active_count = int(np.count_nonzero(active))
            max_percent = float(100.0 * loads.max() / capacity) if active_count else 0.0
            avg_percent = (
                float(100.0 * loads[active].mean() / capacity) if active_count else 0.0
            )
            sample = PeriodSample(
                time=period_end,
                workload=spec.name,
                max_load_percent=max_percent,
                avg_load_percent=avg_percent,
                active_servers=active_count,
                min_depth=float(self._fixed_depth),
                avg_depth=float(self._fixed_depth),
                max_depth=float(self._fixed_depth),
                splits=0,
                merges=0,
                messages_per_server_per_second=self._messages_per_server_per_second(spec),
                message_breakdown={},
            )
            self._recorder.record(sample)
            time = period_end
        return SimulationResult(
            label=self.label,
            params=self._params,
            config=self._config,
            metrics=self._recorder,
            final_active_groups=1 << self._fixed_depth,
            total_splits=0,
            total_merges=0,
            notes={"enumeration_depth": float(self._enumeration_depth)},
        )
