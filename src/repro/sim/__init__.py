"""Simulation engines and metrics for the CLASH evaluation.

Two complementary simulators are provided:

* :class:`~repro.sim.engine.SimulationEngine` — a classic event-driven
  (heap-based) engine used by the examples and the fine-grained integration
  tests, where individual packets, lookups and splits are explicit events.
* :class:`~repro.sim.simulator.FlowSimulator` — a flow-level simulator that
  advances in LOAD_CHECK_PERIOD steps and assigns expected per-group loads
  analytically.  This is the engine behind the paper-scale experiments
  (Figures 4 and 5): CLASH's decisions happen at exactly this granularity, so
  the protocol code paths exercised are identical while a 6-hour, 1000-server,
  100,000-client run stays tractable in Python.

:class:`~repro.sim.metrics.MetricsRecorder` collects the per-period series
both figures plot (max/average server load, active servers, tree depth,
message rates).
"""

from repro.sim.engine import ScheduledEvent, SimulationEngine
from repro.sim.loadmeasure import LoadMeasure
from repro.sim.metrics import MetricsRecorder, PeriodSample, PhaseSummary
from repro.sim.simulator import FlowSimulator, SimulationParams, SimulationResult

__all__ = [
    "SimulationEngine",
    "ScheduledEvent",
    "LoadMeasure",
    "MetricsRecorder",
    "PeriodSample",
    "PhaseSummary",
    "FlowSimulator",
    "SimulationParams",
    "SimulationResult",
]
