"""Experiment — churn resilience: Poisson membership churn vs. CLASH behaviour.

The paper's evaluation assumes a stable server population and leaves
membership to the underlying DHT.  This experiment quantifies what the
protocol layer pays when that assumption is dropped: a sweep over symmetric
Poisson join/failure rates (``ScenarioPhase.join_rate`` / ``fail_rate``)
reports, per rate, the peak server load, the lookup-depth statistics and the
volume of membership traffic (joins, failures, group handoffs, in-flight
message drops).

The interesting comparisons:

* **peak load vs. churn rate** — handoffs and failure recovery briefly
  concentrate groups on the "wrong" servers until the next load check; the
  peak-load column shows how much headroom that costs.
* **lookup depth vs. churn rate** — churn reassigns groups without changing
  the splitting tree, so the depth statistics should stay flat; drift here
  would indicate the protocol is splitting to compensate for churn.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentScale
from repro.sim.simulator import FlowSimulator, SimulationResult
from repro.util.stats import mean
from repro.util.validation import check_type

__all__ = ["ChurnPoint", "ChurnSweepResult", "run_churn_sweep", "render_churn_sweep"]

DEFAULT_CHURN_RATES = ((0.0, 0.0), (0.002, 0.002), (0.005, 0.005), (0.01, 0.01))
"""The (join_rate, fail_rate) pairs swept by default, in events/sec."""


@dataclass
class ChurnPoint:
    """One point of the churn sweep.

    Attributes:
        join_rate: Poisson server-join rate (events/sec) for every phase.
        fail_rate: Poisson server-failure rate (events/sec) for every phase.
        result: The full simulation result at this churn level.
    """

    join_rate: float
    fail_rate: float
    result: SimulationResult

    @property
    def peak_load_percent(self) -> float:
        """Highest per-server load seen at any point in the run."""
        return self.result.metrics.overall_peak_load()

    @property
    def mean_depth(self) -> float:
        """Mean (over periods) of the per-period average lookup depth."""
        return mean([s.avg_depth for s in self.result.metrics.samples])

    @property
    def max_depth(self) -> float:
        """Deepest key group observed at any point in the run."""
        return max(s.max_depth for s in self.result.metrics.samples)

    @property
    def server_joins(self) -> int:
        """Servers that joined over the whole run."""
        return sum(s.server_joins for s in self.result.metrics.samples)

    @property
    def server_failures(self) -> int:
        """Servers that failed over the whole run."""
        return sum(s.server_failures for s in self.result.metrics.samples)

    @property
    def groups_reassigned(self) -> int:
        """Key groups handed to a new owner by membership events."""
        return sum(s.groups_reassigned for s in self.result.metrics.samples)

    @property
    def dropped_messages(self) -> int:
        """In-flight one-way envelopes lost to failures over the whole run."""
        return sum(s.dropped_messages for s in self.result.metrics.samples)


@dataclass
class ChurnSweepResult:
    """All points of a churn sweep.

    Attributes:
        scale_name: The experiment scale label.
        transport: The transport the sweep ran on.
        points: One entry per (join_rate, fail_rate) pair, in sweep order.
    """

    scale_name: str
    transport: str
    points: list[ChurnPoint] = field(default_factory=list)

    def baseline(self) -> ChurnPoint:
        """The churn-free reference point (raises if the sweep skipped it)."""
        for point in self.points:
            if point.join_rate == 0.0 and point.fail_rate == 0.0:
                return point
        raise KeyError("the sweep did not include a churn-free (0, 0) point")


def run_churn_sweep(
    scale: ExperimentScale | None = None,
    rates: tuple[tuple[float, float], ...] = DEFAULT_CHURN_RATES,
) -> ChurnSweepResult:
    """Run the churn sweep at the given scale.

    Args:
        scale: Experiment scale (defaults to ``ExperimentScale.scaled(10)``).
            Its ``transport`` selects how messages move; its own
            ``join_rate``/``fail_rate`` are ignored in favour of the sweep's.
        rates: The (join_rate, fail_rate) pairs to evaluate.
    """
    if scale is None:
        scale = ExperimentScale.scaled(10)
    check_type("scale", scale, ExperimentScale)
    sweep = ChurnSweepResult(scale_name=scale.name, transport=scale.transport)
    for join_rate, fail_rate in rates:
        # Reuse the scale's own scale-to-scenario mapping so the sweep runs
        # exactly the scenario every other experiment would at this scale.
        point_scale = dataclasses.replace(
            scale, join_rate=join_rate, fail_rate=fail_rate
        )
        result = FlowSimulator(
            config=point_scale.config(),
            params=point_scale.params(),
            scenario=point_scale.scenario(),
        ).run()
        sweep.points.append(
            ChurnPoint(join_rate=join_rate, fail_rate=fail_rate, result=result)
        )
    return sweep


def render_churn_sweep(result: ChurnSweepResult) -> str:
    """The churn sweep as a text table (peak load and depth vs. churn rate)."""
    lines = [
        "Churn sweep — Poisson membership churn vs. CLASH load and depth "
        f"({result.scale_name} scale, {result.transport} transport)",
        "",
    ]
    headers = [
        "join/sec",
        "fail/sec",
        "joins",
        "failures",
        "groups moved",
        "drops",
        "peak load %",
        "mean depth",
        "max depth",
        "splits",
        "merges",
        "load checks",
        "cap hits",
    ]
    rows = []
    for point in result.points:
        rows.append(
            [
                # Pre-format the rates: the table's default 2-decimal float
                # rendering would collapse 0.002 and 0.005 to "0.00".
                f"{point.join_rate:g}",
                f"{point.fail_rate:g}",
                point.server_joins,
                point.server_failures,
                point.groups_reassigned,
                point.dropped_messages,
                point.peak_load_percent,
                point.mean_depth,
                point.max_depth,
                point.result.total_splits,
                point.result.total_merges,
                int(point.result.notes["balance_iterations"]),
                int(point.result.notes["balance_cap_hits"]),
            ]
        )
    lines.append(format_table(headers, rows))
    return "\n".join(lines)
