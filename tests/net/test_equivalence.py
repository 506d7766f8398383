"""Transport equivalence and integration tests.

Parametrized over the :data:`repro.net.TRANSPORTS` registry: every transport
must reproduce the golden seed capture and inline ``PeriodSample`` streams
bit for bit on the reference workloads, and
every transport claiming ``churn_equivalence`` must stay bit-identical under
Poisson membership churn.  The shared machinery lives in
``tests/net/equivalence.py``; registering a new transport automatically
enrols it here.
"""

from __future__ import annotations

import pytest
from equivalence import (
    REFERENCE_WORKLOADS,
    assert_depth_search_matches_golden,
    assert_matches_golden_flow,
    assert_samples_bit_identical,
    build_traced_system,
    churn_scenario,
    load_golden,
    make_transport,
    reference_scale,
    run_flow,
    single_workload_scenario,
)

from repro.experiments.runner import ExperimentScale
from repro.net import TRANSPORTS
from repro.net.batching import BatchingTransport
from repro.net.event import EventTransport
from repro.sim.simulator import FlowSimulator, SimulationParams
from repro.workload.scenario import churn_latency_scenario

ALL_KINDS = list(TRANSPORTS)
CHURN_KINDS = [kind for kind, spec in TRANSPORTS.items() if spec.churn_equivalence]


@pytest.fixture(scope="module")
def golden() -> dict:
    return load_golden()


@pytest.fixture(scope="module")
def inline_reference(golden):
    """Inline runs of every reference scenario, computed once per session.

    These are the streams every other transport is compared against
    bit for bit.
    """
    scale = reference_scale(golden)
    reference = {
        workload: run_flow("inline", scale, single_workload_scenario(workload, scale))
        for workload in REFERENCE_WORKLOADS
    }
    reference["churn"] = run_flow(
        "inline", scale, churn_scenario(scale), verify_invariants=True
    )
    return reference


class TestGoldenEquivalence:
    """Every exact-equivalence transport against the seed capture."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_depth_search_trace_matches_seed(self, kind, golden):
        system, splits, config = build_traced_system(make_transport(kind))
        try:
            assert_depth_search_matches_golden(system, splits, config, golden)
        finally:
            system.transport.close()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_flow_simulation_matches_seed_metrics(self, kind, golden):
        scale = reference_scale(golden)
        result = run_flow(kind, scale, scale.scenario())
        assert_matches_golden_flow(result, golden)


class TestReferenceWorkloadEquivalence:
    """PeriodSample streams must be bit-identical to inline."""

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k != "inline"])
    @pytest.mark.parametrize("workload", REFERENCE_WORKLOADS)
    def test_reference_workload_bit_identical(
        self, kind, workload, golden, inline_reference
    ):
        scale = reference_scale(golden)
        result = run_flow(kind, scale, single_workload_scenario(workload, scale))
        assert_samples_bit_identical(result, inline_reference[workload])

    @pytest.mark.parametrize("kind", [k for k in CHURN_KINDS if k != "inline"])
    def test_churn_scenario_bit_identical(self, kind, golden, inline_reference):
        """Period-boundary churn (joins + failures) must not separate the
        clock-less transports: same membership events, same reassignments,
        same drops, same loads — sample for sample."""
        scale = reference_scale(golden)
        result = run_flow(kind, scale, churn_scenario(scale), verify_invariants=True)
        churn_ref = inline_reference["churn"]
        assert sum(s.server_joins for s in churn_ref.metrics.samples) > 0
        assert sum(s.server_failures for s in churn_ref.metrics.samples) > 0
        assert_samples_bit_identical(result, churn_ref)


class TestBatchingEquivalence:
    def test_route_cache_actually_engages(self, golden):
        """Route coalescing must not change a single probe, reply or charge —
        while demonstrably serving resolutions from the cache."""
        system, splits, config = build_traced_system(BatchingTransport())
        assert_depth_search_matches_golden(system, splits, config, golden)
        assert system.transport.route_cache_hits > 0


class TestEventTransportIntegration:
    def test_zero_latency_event_run_matches_inline_dynamics(self, golden):
        """With zero latency the event kernel preserves inline ordering, so
        the protocol dynamics (splits/merges/groups) are identical."""
        scale = ExperimentScale.scaled(factor=50, phase_periods=2)
        result = FlowSimulator(
            config=scale.config(),
            params=scale.params(transport="event"),
            scenario=scale.scenario(),
        ).run()
        assert result.total_splits == golden["total_splits"]
        assert result.total_merges == golden["total_merges"]
        assert result.final_active_groups == golden["final_active_groups"]

    def test_end_to_end_latency_scenario(self):
        """The acceptance scenario: churn + per-phase latency on the real
        protocol, driven through the event kernel."""
        scale = ExperimentScale.scaled(factor=100, phase_periods=2)
        scenario = churn_latency_scenario(
            phase_duration=scale.phase_duration,
            fail_servers=(0, 2, 1),
            link_latency=(0.005, 0.02, 0.05),
        )
        simulator = FlowSimulator(
            config=scale.config(),
            params=scale.params(transport="event", link_latency=0.005),
            scenario=scenario,
        )
        before = len(simulator.system.server_names())
        result = simulator.run()
        after = len(simulator.system.server_names())
        simulator.system.verify_invariants()
        assert after == before - 3  # the churn knobs actually fired
        assert isinstance(simulator.transport, EventTransport)
        assert simulator.engine is not None and simulator.engine.now > 0
        # Per-phase latency overrides must be visible in the metrics: phase C
        # exchanges are an order of magnitude slower than phase A's.
        samples = result.metrics.samples
        phase_a = [s.mean_message_latency for s in samples if s.workload == "A"]
        phase_c = [s.mean_message_latency for s in samples if s.workload == "C"]
        assert min(phase_a) > 0.0
        assert min(phase_c) > 5.0 * max(phase_a)

    def test_event_params_validation(self):
        with pytest.raises(ValueError):
            SimulationParams(transport="telepathy")
        with pytest.raises(ValueError):
            SimulationParams(link_latency=-1.0)
