"""Measure one workload in this process: timed rounds, or one traced round.

Tracing and timing never share a round.  A timed measurement
(:func:`measure_end_to_end`) runs rounds with no wrapper installed and
reports what a user of the system sees; a traced measurement
(:func:`measure_per_layer`) runs one untraced round for reference and one
round under :class:`perf.trace.Tracer`, and reports where the time went.
"""

from __future__ import annotations

import os
import pathlib
import resource
import statistics
from dataclasses import dataclass, field

from perf.trace import Tracer, program_targets, wrappers_installed
from perf.workloads import FULL, MINI, PLANE_KINDS, Round, Sizes, Workload

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Measurement",
    "measure_end_to_end",
    "measure_per_layer",
    "percentile",
]

SETUP_SAMPLES = (5, 25)
"""``setup_s`` is the median over the deployments a timed measurement builds:
at least five, and up to 25 while they add up to less than
:attr:`perf.workloads.Sizes.setup_seconds`."""

SEED_STRIDE = 1_000_003
"""Round ``i`` of a run draws its inputs from ``seed + i * SEED_STRIDE``.

How much work a deployment has to do depends on its seed (where the servers
land on the ring) by several times the host's noise, so one run measures as
many independent deployments as fit and reports across them.  Round 0 uses
``--seed`` itself; so does the traced measurement.
"""

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "peak_rss_mb": "MB",
}
"""End-to-end metric names and units (every workload reports every one)."""

LAYERS = tuple(dict.fromkeys(target.layer for target in program_targets()))

_COUNTERS = (
    "load_check_probes",
    "consolidation_probes",
    "reports_skipped",
    "groups_reassigned",
    "groups_migrated",
    "memo_hits",
    "memo_misses",
    "memo_invalidations",
    "memo_evictions",
    "ring_full_rebuilds",
    "ring_incremental_events",
    "ring_finger_recomputations",
    "net.dropped_messages",
    "net.socket.worker_frames",
    "net.socket.worker_envelopes",
)

PER_LAYER: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{name: "count" for name in _COUNTERS},
    "core.protocol.probe_yield": "ratio",
    "dht.ring.memo_hit_ratio": "ratio",
    "sim.metrics.peak_load_pct": "%",
    "sim.metrics.msgs_per_server_s": "1/s",
    "core.client.probes_per_lookup": "count",
    **{f"net.{kind}.{verb}_us": "us" for kind in PLANE_KINDS for verb in ("request", "post")},
    "net.framing.encode_us": "us",
    "net.framing.decode_us": "us",
    "net.framing.bytes_per_envelope": "B",
    "net.socket.worker_cpu_s": "s",
    "trace.overhead_share": "ratio",
    "trace.coverage_share": "ratio",
}
"""Per-layer metric names and units.  A workload that never enters a layer
reports 0 for it, which is itself the prediction "no move" made checkable."""


def percentile(values: list[float], percent: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * percent / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Measurement:
    """One run's result: the metrics plus everything needed to judge them."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Per-round (or per-sample) values behind each host-time metric.
    samples: dict[str, list[float]] = field(default_factory=dict)
    op_samples: int = 0
    #: Output digest of every round; all equal unless a check failed.
    digests: list[str] = field(default_factory=list)
    #: Simulated results and program counters (repeat exactly for one seed).
    counters: dict[str, float] = field(default_factory=dict)
    harness_share: float = 0.0
    loadavg: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def failed_op_share(self) -> float:
        """Failed operations as a share of the operations attempted."""
        return self.failed / self.attempted if self.attempted else 0.0

    def add(self, outcome: Round) -> None:
        self.attempted += outcome.operations
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        self.digests.append(outcome.digest)


def _warm_up(workload: Workload, seed: int, sizes: Sizes) -> None:
    """One untimed miniature round: imports, codec tables, lazy caches.

    A measurement that is itself miniature goes without.
    """
    if sizes is not MINI:
        workload.run_round(seed, MINI, None, None)


def _assert_untraced() -> None:
    installed = wrappers_installed(program_targets())
    if installed:
        raise RuntimeError(f"a timed round may not run under trace wrappers: {installed}")


def measure_end_to_end(
    workload: Workload,
    seed: int,
    seconds: float,
    sizes: Sizes = FULL,
    rounds: int | None = None,
) -> Measurement:
    """Timed rounds for ``seconds`` of body time (or exactly ``rounds``).

    Each round is a fresh deployment on its own seed (see :data:`SEED_STRIDE`)
    and is checked against its own untimed reference run.  A further round
    starts only while it is expected to end within ``seconds``, so a workload
    whose round is nearly ``seconds`` long runs one round every time rather
    than one or two by chance.
    """
    measurement = Measurement()
    _warm_up(workload, seed, sizes)
    outcomes: list[Round] = []
    body_s = 0.0
    while True:
        round_seed = seed + len(outcomes) * SEED_STRIDE
        reference = workload.reference(round_seed, sizes)
        _assert_untraced()
        outcome = workload.run_round(round_seed, sizes, None, reference)
        outcomes.append(outcome)
        measurement.add(outcome)
        body_s += outcome.body_s
        if rounds is not None:
            if len(outcomes) >= rounds:
                break
        elif body_s + outcome.body_s > seconds:
            break
    setups = [outcome.setup_s for outcome in outcomes if not outcome.failed]
    fewest, most = SETUP_SAMPLES
    while len(setups) < fewest or (len(setups) < most and sum(setups) < sizes.setup_seconds):
        setups.append(workload.setup_once(seed + len(setups) * SEED_STRIDE, sizes))
    # A round that raised before its first operation has nothing to time.
    timed = [outcome for outcome in outcomes if outcome.op_ns]
    per_round_ms = [[ns / 1e6 for ns in outcome.op_ns] for outcome in timed]
    pooled = [ms for round_ms in per_round_ms for ms in round_ms] or [0.0]
    rates = [o.ops_per_s or o.operations / o.body_s for o in timed] or [0.0]
    measurement.samples = {
        "setup_s": setups,
        "ops_per_s": rates,
        "op_ms_p50": [percentile(round_ms, 50) for round_ms in per_round_ms],
        "op_ms_p95": [percentile(round_ms, 95) for round_ms in per_round_ms],
    }
    measurement.op_samples = len(pooled)
    measurement.metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "op_ms_p50": percentile(pooled, 50),
        "op_ms_p95": percentile(pooled, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measurement.counters = dict(outcomes[0].counters)
    measurement.harness_share = statistics.median(o.harness_share for o in outcomes)
    measurement.loadavg = os.getloadavg()
    return measurement


def measure_per_layer(
    workload: Workload,
    seed: int,
    sizes: Sizes = FULL,
    spans_path: pathlib.Path | None = None,
) -> Measurement:
    """One untraced round, then one traced round that must reproduce it
    (equal output digests: same seed, same outputs, wrappers or not)."""
    measurement = Measurement()
    _warm_up(workload, seed, sizes)
    _assert_untraced()
    plain = workload.run_round(seed, sizes, None, None)
    measurement.add(plain)
    # Installed before the deployment exists: ClashSystem hands the transport
    # a bound router.lookup, which captures the class attribute of the moment.
    with Tracer(program_targets()) as tracer:
        traced = workload.run_round(seed, sizes, tracer, None)
    measurement.add(traced)
    if traced.digest != plain.digest:
        measurement.failed += max(0, traced.operations - traced.failed)
        measurement.problems.append("the traced round's outputs differ from the untraced round's")
    totals = tracer.layer_totals(since_ns=traced.body_start_ns)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for layer, (calls, _total_ns, self_ns) in totals.items():
        metrics[f"{layer}.self_s"] = self_ns / 1e9
        metrics[f"{layer}.calls"] = calls
    timings = {**plain.timings, **workload.extra_timings(seed, sizes)}
    for name, value in {**traced.counters, **timings}.items():
        if name in metrics:
            metrics[name] = float(value)
    if plain.body_s and traced.body_s:
        metrics["trace.overhead_share"] = traced.body_s / plain.body_s - 1.0
        metrics["trace.coverage_share"] = (
            sum(layer.self_ns for layer in totals.values()) / 1e9 / traced.body_s
        )
    measurement.metrics = metrics
    measurement.counters = dict(traced.counters)
    measurement.loadavg = os.getloadavg()
    if spans_path is not None:
        tracer.write(spans_path)
    return measurement
