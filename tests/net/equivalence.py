"""Reusable transport-equivalence harness.

``golden_seed.json`` was captured from the seed implementation *before* the
transport refactor: a small flow-simulation run plus a depth-search trace on a
skew-split deployment.  Every registered transport must reproduce those
golden numbers — and inline ``PeriodSample`` streams bit for bit — on the
reference workloads; transports claiming ``churn_equivalence`` must stay
bit-identical under period-boundary membership churn too.

The helpers here are deliberately transport-agnostic so the equivalence tests
parametrize over :data:`repro.net.TRANSPORTS` instead of hand-maintaining a
transport list; a future transport gets the whole battery by registering
itself.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.experiments.runner import ExperimentScale
from repro.keys.identifier import RandomKeyGenerator
from repro.net import build_transport
from repro.sim.simulator import FlowSimulator, SimulationResult
from repro.util.rng import RandomStream
from repro.workload.distributions import (
    workload_a,
    workload_b,
    workload_c,
)
from repro.workload.scenario import PhasedScenario, ScenarioPhase

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_seed.json"

#: The reference workloads every registered transport is checked on (the
#: paper's three skew levels), plus the churn scenario built by
#: :func:`churn_scenario`.
REFERENCE_WORKLOADS = ("A", "B", "C")

_WORKLOAD_FACTORIES = {"A": workload_a, "B": workload_b, "C": workload_c}


def load_golden() -> dict:
    """The committed golden capture from the seed implementation."""
    return json.loads(GOLDEN_PATH.read_text())


# --------------------------------------------------------------------- #
# Depth-search trace (golden capture replay)
# --------------------------------------------------------------------- #


def build_traced_system(transport) -> tuple[ClashSystem, list, ClashConfig]:
    """Replay the golden capture's split workload on a fresh system."""
    config = ClashConfig(server_capacity=400.0)
    system = ClashSystem(
        config,
        [f"s{index}" for index in range(64)],
        rng=RandomStream(13),
        transport=transport,
    )
    system.bootstrap()
    generator = RandomKeyGenerator(
        width=config.key_bits,
        base_bits=8,
        rng=RandomStream(14),
        base_weights=workload_c().weights,
    )
    split_sequence = []
    for _ in range(120):
        key = generator.generate()
        group, owner = system.find_active_group(key)
        if group.depth >= config.effective_max_depth:
            continue
        system.server(owner).set_group_rate(group, 2 * config.server_capacity)
        outcome = system.split_server(owner)
        if outcome is not None:
            split_sequence.append(
                [
                    outcome.parent_server,
                    outcome.group.wildcard(),
                    outcome.child_server,
                    outcome.shed,
                ]
            )
    return system, split_sequence, config


def trace_depth_search(system, split_sequence, config, lookups: int) -> dict:
    """The depth-search half of the capture, as this system produces it:
    the split sequence, ``lookups`` client searches and the message counters."""
    client = system.make_client("golden-client")
    probe_gen = RandomKeyGenerator(
        width=config.key_bits,
        base_bits=8,
        rng=RandomStream(99),
        base_weights=workload_b().weights,
    )
    records = []
    for _ in range(lookups):
        result = client.find_group(probe_gen.generate(), use_cache=False)
        records.append(
            {
                "key": result.key.value,
                "depth": result.group.depth,
                "server": result.server,
                "probes": result.probes,
                "messages": result.messages,
                "probe_depths": list(result.probe_depths),
            }
        )
    return {
        "split_sequence": split_sequence,
        "lookups": records,
        "message_snapshot": {
            k: round(v, 6) for k, v in sorted(system.messages.snapshot().items())
        },
    }


def assert_depth_search_matches_golden(system, split_sequence, config, golden) -> None:
    """Every probe, reply, hop charge and counter must match the seed capture."""
    expected = golden["depth_search"]
    produced = trace_depth_search(
        system, split_sequence, config, lookups=len(expected["lookups"])
    )
    assert produced["split_sequence"] == expected["split_sequence"]
    for record, wanted in zip(produced["lookups"], expected["lookups"]):
        assert record == wanted
    assert produced["message_snapshot"] == expected["message_snapshot"]


# --------------------------------------------------------------------- #
# Flow-simulation runs (PeriodSample stream comparison)
# --------------------------------------------------------------------- #


def reference_scale(golden: dict | None = None) -> ExperimentScale:
    """The scale the golden flow simulation was captured at."""
    golden = golden if golden is not None else load_golden()
    return ExperimentScale.scaled(
        factor=golden["scale"]["factor"],
        phase_periods=golden["scale"]["phase_periods"],
    )


def single_workload_scenario(workload: str, scale: ExperimentScale) -> PhasedScenario:
    """A one-phase scenario running just one of the reference workloads."""
    spec = _WORKLOAD_FACTORIES[workload]()
    return PhasedScenario([ScenarioPhase(spec=spec, duration=scale.phase_duration)])


def churn_scenario(scale: ExperimentScale) -> PhasedScenario:
    """The A → B → C scenario with Poisson join/fail churn on every phase."""
    return dataclasses.replace(scale, join_rate=0.005, fail_rate=0.005).scenario()


def run_flow(
    transport_kind: str,
    scale: ExperimentScale,
    scenario: PhasedScenario,
    verify_invariants: bool = False,
    shards: int = 1,
    partition: str = "static",
) -> SimulationResult:
    """One flow simulation on the given transport (zero link latency).

    ``shards`` routes the run through the ring federation; the default 1
    (the :class:`~repro.dht.router.SingleRingRouter`) is the configuration
    the golden capture pins.  ``partition`` selects the sharded runs' map
    (naming ``"static"`` explicitly must be indistinguishable from the
    pre-partition-map default — the golden guard asserts exactly that).
    """
    simulator = FlowSimulator(
        config=scale.config(),
        params=scale.params(
            transport=transport_kind,
            shards=shards,
            partition=partition,
            verify_invariants=verify_invariants,
        ),
        scenario=scenario,
    )
    try:
        result = simulator.run()
        simulator.system.verify_invariants()
    finally:
        simulator.transport.close()
    return result


def assert_samples_bit_identical(
    result: SimulationResult, reference: SimulationResult
) -> None:
    """The two runs must match field for field, sample for sample.

    ``PeriodSample`` is a plain dataclass, so equality compares every field —
    including the floating-point load, depth and message-rate series — with
    exact (bit-level) equality, not a tolerance
    (:meth:`repro.sim.simulator.SimulationResult.diff` is the canonical
    comparator).
    """
    differences = result.diff(reference)
    assert not differences, "; ".join(differences)


def assert_matches_golden_flow(result: SimulationResult, golden: dict) -> None:
    """The run must reproduce the golden capture's recorded metrics."""
    assert result.total_splits == golden["total_splits"]
    assert result.total_merges == golden["total_merges"]
    assert result.final_active_groups == golden["final_active_groups"]
    assert len(result.metrics.samples) == len(golden["samples"])
    for sample, expected in zip(result.metrics.samples, golden["samples"]):
        assert sample.workload == expected["workload"]
        assert sample.splits == expected["splits"]
        assert sample.merges == expected["merges"]
        assert abs(sample.max_load_percent - expected["max_load_percent"]) < 1e-5
        assert (
            abs(sample.messages_per_server_per_second - expected["messages_per_server_per_second"])
            < 1e-5
        )
        for category, rate in expected["breakdown"].items():
            assert abs(sample.message_breakdown[category] - rate) < 1e-5


# --------------------------------------------------------------------- #
# Transport construction for the parametrized tests
# --------------------------------------------------------------------- #


def make_transport(kind: str):
    """A zero-latency instance of the registered transport ``kind``."""
    return build_transport(kind)
