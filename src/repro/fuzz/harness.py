"""One fuzz case = one fully specified simulator run, recordable and replayable.

:class:`FuzzCase` pins every axis the fuzzer sweeps — transport, master
seed, delivery-order seed, churn seeds and rates, shard count, scale — and
knows how to build the corresponding :class:`~repro.sim.simulator.FlowSimulator`
twice over:

* **recording** (``run_case(..., record=True)``): the live ready source is
  wrapped in a :class:`~repro.net.replay.TieRecorder`, executed membership
  events are captured on ``simulator.churn_log``, and the transport's
  delivery ring buffer is turned on — the run's whole schedule comes out as
  a :class:`RecordedTrace`;
* **replaying** (``run_case(..., schedule=...)``): an async case runs on the
  ``"replay"`` transport with the schedule's tie tape, any other transport
  re-runs as itself, and recorded churn is executed verbatim by the
  simulator instead of drawing Poisson arrivals.  Same schedule ⇒ same run,
  bit for bit (``SimulationResult.diff`` is the comparator).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

from repro.experiments.runner import ExperimentScale
from repro.fuzz.oracle import FuzzOracle, OracleViolation
from repro.net.replay import ChurnEvent, RebalanceEvent, ReplaySchedule, TieRecorder
from repro.sim.simulator import FlowSimulator, SimulationResult

__all__ = ["CaseOutcome", "FuzzCase", "RecordedTrace", "run_case"]


@dataclass(frozen=True)
class FuzzCase:
    """Everything needed to rebuild one fuzzed run from scratch.

    Attributes:
        transport: Transport kind the case runs on (``"async"``/``"event"``).
        seed: Master seed (workload, ring, identities).
        delivery_seed: Independent ready-order seed (``None`` derives the
            tie-break stream from ``seed``; the async sweep axis).
        churn_seed: Independent churn-timing seed (``None`` derives the
            arrival streams from ``seed``).
        join_rate: Poisson server-join rate (events/sec) in every phase.
        fail_rate: Poisson server-failure rate (events/sec) in every phase.
        shards: Chord ring shards (power of two).
        partition: Partition map for sharded cases (``"static"`` or
            ``"adaptive"``; the latter exercises online rebalancing).
        scale_factor: Down-scaling factor for :meth:`ExperimentScale.scaled`.
        phase_periods: Load-check periods per workload phase.
    """

    transport: str = "async"
    seed: int = 20040324
    delivery_seed: int | None = None
    churn_seed: int | None = None
    join_rate: float = 0.0
    fail_rate: float = 0.0
    shards: int = 1
    partition: str = "static"
    scale_factor: int = 100
    phase_periods: int = 2

    def case_id(self) -> str:
        """A filesystem-safe identifier (artifact file names, report rows)."""
        parts = [self.transport, f"s{self.seed}"]
        if self.delivery_seed is not None:
            parts.append(f"d{self.delivery_seed}")
        if self.churn_seed is not None:
            parts.append(f"c{self.churn_seed}")
        if self.join_rate or self.fail_rate:
            parts.append(f"j{self.join_rate:g}-f{self.fail_rate:g}")
        if self.shards != 1:
            parts.append(f"sh{self.shards}")
        if self.partition != "static":
            parts.append(self.partition)
        return "-".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips through :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FuzzCase":
        names = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown fuzz case fields: {', '.join(sorted(unknown))}")
        return cls(**dict(data))

    # ------------------------------------------------------------------ #
    # Simulator construction
    # ------------------------------------------------------------------ #

    def scale(self) -> ExperimentScale:
        """The experiment scale this case runs at."""
        base = ExperimentScale.scaled(
            factor=self.scale_factor, phase_periods=self.phase_periods
        )
        return dataclasses.replace(
            base,
            seed=self.seed,
            transport=self.transport,
            join_rate=self.join_rate,
            fail_rate=self.fail_rate,
            shards=self.shards,
            partition=self.partition,
        )

    def build_simulator(
        self, schedule: ReplaySchedule | None = None
    ) -> FlowSimulator:
        """A fresh simulator for this case (forced onto ``schedule`` if given).

        Replaying an async case swaps the transport kind to ``"replay"`` so
        the schedule's tie tape drives delivery order; every other transport
        has no tie tape and re-runs as itself (its delivery order is already
        a pure function of the seeds), with only the churn events forced.
        """
        scale = self.scale()
        kind = scale.transport
        if schedule is not None and kind == "async":
            kind = "replay"
            scale = dataclasses.replace(scale, transport=kind)
        params = scale.params(
            delivery_seed=self.delivery_seed, churn_seed=self.churn_seed
        )
        return FlowSimulator(
            scale.config(), params, scale.scenario(), schedule=schedule
        )


@dataclass(frozen=True)
class RecordedTrace:
    """The schedule one recorded run actually executed.

    Attributes:
        ties: Every ready-order tie-break draw, in draw order (empty for
            transports without a tie tape).
        churn: Every executed membership event with its identity pinned
            (``None`` when the run was not recorded with churn capture).
        rebalances: Every installed partition map with its boundaries and
            version pinned (``None`` when the run was not recorded; an empty
            tuple means the run was recorded and installed no map).
        deliveries: Tail of the transport's delivery ring buffer —
            ``(time, server, payload type)`` rows kept for artifact context,
            not needed for replay.
    """

    ties: tuple[float, ...] = ()
    churn: tuple[ChurnEvent, ...] | None = None
    rebalances: tuple[RebalanceEvent, ...] | None = None
    deliveries: tuple[tuple[float, str, str], ...] = ()

    def schedule(self) -> ReplaySchedule:
        """The full (unshrunk) replay schedule for this trace."""
        return ReplaySchedule.full(self.ties, self.churn, self.rebalances)


@dataclass
class CaseOutcome:
    """What one (recorded or replayed) case execution produced.

    Attributes:
        case: The case that ran.
        violation: The oracle violation, or ``None`` for a clean run.
        trace: The recorded schedule (empty unless ``record=True``).
        result: The run's :class:`SimulationResult` (``None`` when a
            violation aborted the run before completion).
    """

    case: FuzzCase
    violation: OracleViolation | None = None
    trace: RecordedTrace = RecordedTrace()
    result: SimulationResult | None = None


DELIVERY_TAIL_LIMIT = 64
"""How many trailing delivery-log rows a recorded trace keeps for context."""


def run_case(
    case: FuzzCase,
    oracle: FuzzOracle | None = None,
    schedule: ReplaySchedule | None = None,
    record: bool = False,
) -> CaseOutcome:
    """Execute one case, optionally recording its schedule or forcing one.

    Args:
        case: The case to run.
        oracle: Oracle installed at the simulator's quiescent points
            (``None`` runs unchecked).
        schedule: Replay schedule to force (``None`` = a live run).
        record: Capture the run's tie draws, churn events and delivery tail.

    Returns:
        The outcome; ``violation`` is the first :class:`OracleViolation`
        raised (the run stops there), ``trace`` is filled when recording.
    """
    simulator = case.build_simulator(schedule=schedule)
    transport = simulator.transport
    recorder: TieRecorder | None = None
    try:
        if record:
            if hasattr(transport, "set_ready_source"):
                recorder = TieRecorder(transport.ready_source)
                transport.set_ready_source(recorder)
            simulator.record_churn = True
            simulator.record_rebalances = True
            transport.enable_delivery_log()
        if oracle is not None:
            oracle.bind(simulator)
            simulator.set_oracles(
                invariant=oracle.check_system, sample=oracle.check_sample
            )
        violation: OracleViolation | None = None
        result: SimulationResult | None = None
        try:
            result = simulator.run()
        except OracleViolation as error:
            violation = error
        trace = RecordedTrace()
        if record:
            trace = RecordedTrace(
                ties=tuple(recorder.draws) if recorder is not None else (),
                churn=tuple(simulator.churn_log),
                rebalances=tuple(simulator.rebalance_log),
                deliveries=tuple(
                    list(transport.delivery_log)[-DELIVERY_TAIL_LIMIT:]
                ),
            )
        return CaseOutcome(
            case=case, violation=violation, trace=trace, result=result
        )
    finally:
        transport.close()
