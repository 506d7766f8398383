"""Metrics collection for the paper's evaluation figures.

Each LOAD_CHECK_PERIOD the simulator records one :class:`PeriodSample`; the
:class:`MetricsRecorder` aggregates them into the time series Figure 4 plots
(maximum and average server load, active server count, tree depth evolution)
and the per-phase summaries Figures 4 (bottom-right) and 5 report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.util.stats import TimeSeries, mean
from repro.workload.scenario import PhasedScenario

__all__ = ["PeriodSample", "PhaseSummary", "MetricsRecorder", "diff_sample_streams"]


@dataclass(frozen=True)
class PeriodSample:
    """Everything measured at the end of one LOAD_CHECK_PERIOD.

    Attributes:
        time: Simulation time at the end of the period (seconds).
        workload: Name of the workload phase active during the period.
        max_load_percent: Highest per-server load, as % of capacity.
        avg_load_percent: Mean load over *active* servers, as % of capacity.
        active_servers: Number of servers managing at least one key group
            with non-zero load.
        min_depth, avg_depth, max_depth: Depth statistics of the active key
            groups (``FixedDepthDhtSimulator`` reports its constant ``x``
            for all three).
        splits, merges: Number of splits / consolidations performed during
            the period.
        messages_per_server_per_second: CLASH signalling messages per server
            per second (the Figure 5 metric).
        message_breakdown: Signalling messages by category (per second, whole
            system).
        mean_message_latency: Mean simulated per-message (one-way) delivery
            latency over the period in seconds (0 unless the active transport
            models time).
        server_joins: Servers that joined the deployment during the period
            (Poisson churn).
        server_failures: Servers that failed during the period (phase-entry
            ``fail_servers`` bursts and Poisson churn alike).
        groups_reassigned: Key groups handed to a new owner by the period's
            membership events.
        dropped_messages: One-way envelopes the transport dropped during the
            period because their destination failed while they were in
            flight.
        shard_count: Number of ring shards the deployment routes across
            (1 for the paper's single global ring).
        shard_peak_loads: Per-shard peak server load (% of capacity), in
            shard order; empty for single-ring runs.
        cross_shard_imbalance: Peak-to-mean ratio of the per-shard aggregate
            loads — 1.0 means the shards carry identical totals, k means the
            hottest shard carries k× the average.  0.0 for single-ring runs
            and for periods with no load.
        groups_migrated: Key groups moved between shards by partition
            rebalances during the period (0 with the static partition).
        partition_version: Version of the partition map in force at the end
            of the period (0 for single-ring runs and the static partition).
    """

    time: float
    workload: str
    max_load_percent: float
    avg_load_percent: float
    active_servers: int
    min_depth: float
    avg_depth: float
    max_depth: float
    splits: int
    merges: int
    messages_per_server_per_second: float
    message_breakdown: dict[str, float] = field(default_factory=dict)
    mean_message_latency: float = 0.0
    server_joins: int = 0
    server_failures: int = 0
    groups_reassigned: int = 0
    dropped_messages: int = 0
    shard_count: int = 1
    shard_peak_loads: tuple[float, ...] = ()
    cross_shard_imbalance: float = 0.0
    groups_migrated: int = 0
    partition_version: int = 0


@dataclass(frozen=True)
class PhaseSummary:
    """Per-workload-phase aggregates (Figure 4 bottom-right, Figure 5 bars).

    Attributes:
        workload: Workload name ("A", "B" or "C").
        periods: Number of measurement periods in the phase.
        mean_max_load_percent: Mean (over periods) of the per-period maximum
            server load.
        peak_max_load_percent: Largest per-period maximum observed.
        mean_avg_load_percent: Mean of the per-period average loads.
        mean_active_servers: Mean number of active servers.
        mean_depth: Mean of the per-period average depths.
        depth_spread: Mean (max depth − min depth), a measure of how
            unbalanced the splitting tree is.
        messages_per_server_per_second: Mean signalling message rate.
        total_splits, total_merges: Splits / merges summed over the phase.
    """

    workload: str
    periods: int
    mean_max_load_percent: float
    peak_max_load_percent: float
    mean_avg_load_percent: float
    mean_active_servers: float
    mean_depth: float
    depth_spread: float
    messages_per_server_per_second: float
    total_splits: int
    total_merges: int


class MetricsRecorder:
    """Collects per-period samples and produces series / phase summaries."""

    def __init__(self) -> None:
        self._samples: list[PeriodSample] = []

    def record(self, sample: PeriodSample) -> None:
        """Append one period's measurements."""
        if self._samples and sample.time < self._samples[-1].time:
            raise ValueError(
                f"sample time {sample.time} precedes the last recorded time "
                f"{self._samples[-1].time}"
            )
        self._samples.append(sample)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[PeriodSample]:
        """All recorded samples in time order."""
        return list(self._samples)

    # ------------------------------------------------------------------ #
    # Time series (Figure 4 curves)
    # ------------------------------------------------------------------ #

    def series(self, attribute: str) -> TimeSeries:
        """A named attribute of every sample as a :class:`TimeSeries`.

        ``attribute`` must be one of :class:`PeriodSample`'s numeric fields,
        e.g. ``"max_load_percent"`` or ``"active_servers"``.
        """
        series = TimeSeries(name=attribute)
        for sample in self._samples:
            value = getattr(sample, attribute)
            series.append(sample.time, float(value))
        return series

    def depth_series(self) -> dict[str, TimeSeries]:
        """The three depth curves of Figure 4 (min, average, max)."""
        return {
            "min": self.series("min_depth"),
            "avg": self.series("avg_depth"),
            "max": self.series("max_depth"),
        }

    # ------------------------------------------------------------------ #
    # Phase summaries (Figure 4 bottom-right, Figure 5)
    # ------------------------------------------------------------------ #

    def phase_summaries(self, scenario: PhasedScenario | None = None) -> list[PhaseSummary]:
        """Aggregate the samples by workload phase.

        The phase label stored on each sample is used for grouping; the
        ``scenario`` argument is accepted for interface symmetry but is not
        required.
        """
        del scenario  # grouping is by the recorded workload label
        summaries: list[PhaseSummary] = []
        seen: list[str] = []
        for sample in self._samples:
            if sample.workload not in seen:
                seen.append(sample.workload)
        for workload in seen:
            phase_samples = [s for s in self._samples if s.workload == workload]
            summaries.append(
                PhaseSummary(
                    workload=workload,
                    periods=len(phase_samples),
                    mean_max_load_percent=mean([s.max_load_percent for s in phase_samples]),
                    peak_max_load_percent=max(s.max_load_percent for s in phase_samples),
                    mean_avg_load_percent=mean([s.avg_load_percent for s in phase_samples]),
                    mean_active_servers=mean([float(s.active_servers) for s in phase_samples]),
                    mean_depth=mean([s.avg_depth for s in phase_samples]),
                    depth_spread=mean([s.max_depth - s.min_depth for s in phase_samples]),
                    messages_per_server_per_second=mean(
                        [s.messages_per_server_per_second for s in phase_samples]
                    ),
                    total_splits=sum(s.splits for s in phase_samples),
                    total_merges=sum(s.merges for s in phase_samples),
                )
            )
        return summaries

    def overall_peak_load(self) -> float:
        """The highest per-server load seen at any point in the run."""
        if not self._samples:
            raise ValueError("no samples recorded")
        return max(sample.max_load_percent for sample in self._samples)

    def steady_state_samples(self, skip: int = 2) -> list[PeriodSample]:
        """Samples with the first ``skip`` periods of each phase removed.

        The paper notes a "small transient period" after each workload switch;
        dropping the first couple of periods per phase gives the steady-state
        view used in EXPERIMENTS.md comparisons.
        """
        if skip < 0:
            raise ValueError(f"skip must be non-negative, got {skip}")
        result: list[PeriodSample] = []
        current_phase: str | None = None
        phase_count = 0
        for sample in self._samples:
            if sample.workload != current_phase:
                current_phase = sample.workload
                phase_count = 0
            if phase_count >= skip:
                result.append(sample)
            phase_count += 1
        return result


def diff_sample_streams(
    samples: list[PeriodSample], reference: list[PeriodSample]
) -> list[str]:
    """Field-level differences between two ``PeriodSample`` streams.

    The formal statement of transport/engine equivalence: two runs are
    *bit-identical* exactly when this returns an empty list.  Comparison is
    plain dataclass equality — every field, floats included, with no
    tolerance — and each difference is described down to the period index and
    field name so an equivalence failure reads as a diagnosis, not an opaque
    dataclass inequality.  :meth:`repro.sim.simulator.SimulationResult.diff`
    wraps this together with the run totals; the golden test harness
    (``tests/net/equivalence.py``) and ``benchmarks/bench_async.py`` assert
    through that.
    """
    differences: list[str] = []
    if len(samples) != len(reference):
        differences.append(
            f"stream lengths differ: {len(samples)} samples vs "
            f"{len(reference)} reference samples"
        )
    for index, (sample, expected) in enumerate(zip(samples, reference)):
        if sample == expected:
            continue
        for spec in fields(sample):
            observed, wanted = getattr(sample, spec.name), getattr(expected, spec.name)
            if observed != wanted:
                differences.append(
                    f"period {index}: {spec.name} = {observed!r}, expected {wanted!r}"
                )
    return differences
