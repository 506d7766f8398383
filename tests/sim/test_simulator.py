"""Behavioural tests for the flow-level simulator (scaled-down configurations)."""

from __future__ import annotations

import pytest

from repro.baselines.fixed_depth import FixedDepthDhtSimulator
from repro.core.config import ClashConfig
from repro.experiments.runner import ExperimentScale
from repro.sim.simulator import FlowSimulator, SimulationParams
from repro.workload.scenario import PhasedScenario, ScenarioPhase, paper_scenario
from repro.workload.distributions import workload_a, workload_c


def tiny_config() -> ClashConfig:
    return ClashConfig(
        server_capacity=40.0,        # 100k/64 groups scaled to 1000 sources -> ~39% for A
        load_check_period=300.0,
        query_load_weight=0.1,
    )


def tiny_params(**overrides) -> SimulationParams:
    # 150 servers x 40 capacity = 6000 aggregate capacity against a peak
    # offered load of 2000 (workloads B/C), mirroring the paper's generous
    # spare capacity; per-root-group load matches the paper-scale fractions.
    values = dict(
        server_count=150,
        source_count=1000,
        query_client_count=0,
        lookup_sample_size=10,
        seed=7,
    )
    values.update(overrides)
    return SimulationParams(**values)


def short_scenario(periods: int = 3) -> PhasedScenario:
    return paper_scenario(phase_duration=300.0 * periods)


class TestSimulationParams:
    def test_paper_scale_matches_section_6_1(self):
        params = ExperimentScale.paper(query_clients=True).params()
        assert params.server_count == 1000
        assert params.source_count == 100_000
        assert params.query_client_count == 50_000
        assert params.mean_stream_length == 1000.0
        assert params.mean_query_lifetime == 1800.0

    def test_scaled_reduces_population(self):
        params = ExperimentScale.scaled(factor=10).params()
        assert params.source_count == 10_000
        assert params.query_client_count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationParams(server_count=0)
        with pytest.raises(ValueError):
            SimulationParams(query_client_count=-1)
        with pytest.raises(ValueError):
            SimulationParams(mean_stream_length=0.0)


class TestClashRuns:
    def test_run_produces_one_sample_per_period(self):
        simulator = FlowSimulator(tiny_config(), tiny_params(), short_scenario(periods=2))
        result = simulator.run()
        assert len(result.metrics) == 6  # 3 phases x 2 periods
        assert result.label == "CLASH"
        simulator.system.verify_invariants()

    def test_phases_are_labelled_in_order(self):
        result = FlowSimulator(tiny_config(), tiny_params(), short_scenario(2)).run()
        assert [summary.workload for summary in result.phase_summaries()] == ["A", "B", "C"]

    def test_skewed_phase_triggers_splits(self):
        result = FlowSimulator(tiny_config(), tiny_params(), short_scenario(2)).run()
        summaries = {summary.workload: summary for summary in result.phase_summaries()}
        assert summaries["C"].total_splits > 0
        # Depth grows when the workload becomes skewed and heavier.
        assert summaries["C"].mean_depth > summaries["A"].mean_depth

    def test_clash_keeps_max_load_bounded_under_skew(self):
        result = FlowSimulator(tiny_config(), tiny_params(), short_scenario(3)).run()
        summaries = {summary.workload: summary for summary in result.phase_summaries()}
        # After reacting, no server should sit far above the overload threshold.
        assert summaries["C"].mean_max_load_percent < 150.0

    def test_message_rates_are_positive_and_finite(self):
        result = FlowSimulator(tiny_config(), tiny_params(), short_scenario(2)).run()
        for summary in result.phase_summaries():
            assert summary.messages_per_server_per_second > 0.0
            assert summary.messages_per_server_per_second < 1000.0

    def test_shorter_streams_cost_more_signalling(self):
        long_result = FlowSimulator(
            tiny_config(), tiny_params(mean_stream_length=1000.0), short_scenario(2)
        ).run()
        short_result = FlowSimulator(
            tiny_config(), tiny_params(mean_stream_length=50.0), short_scenario(2)
        ).run()
        long_rate = sum(s.messages_per_server_per_second for s in long_result.phase_summaries())
        short_rate = sum(s.messages_per_server_per_second for s in short_result.phase_summaries())
        assert short_rate > long_rate

    def test_query_clients_add_state_transfer(self):
        with_queries = FlowSimulator(
            tiny_config(), tiny_params(query_client_count=500), short_scenario(2)
        ).run()
        breakdowns = [sample.message_breakdown for sample in with_queries.metrics.samples]
        assert any(breakdown.get("state_transfer", 0.0) > 0.0 for breakdown in breakdowns)

    def test_active_servers_grow_with_load(self):
        result = FlowSimulator(tiny_config(), tiny_params(), short_scenario(3)).run()
        summaries = {summary.workload: summary for summary in result.phase_summaries()}
        assert summaries["B"].mean_active_servers >= summaries["A"].mean_active_servers

    def test_cooldown_consolidates_after_heavy_phase(self):
        scenario = PhasedScenario(
            [
                ScenarioPhase(spec=workload_c(base_bits=8), duration=1200.0),
                ScenarioPhase(spec=workload_a(base_bits=8), duration=2400.0),
            ]
        )
        result = FlowSimulator(tiny_config(), tiny_params(), scenario).run()
        samples = result.metrics.samples
        heavy_groups = samples[3].avg_depth
        final_groups = samples[-1].avg_depth
        assert final_groups <= heavy_groups
        assert result.total_merges > 0


class TestTransportLifecycle:
    def test_run_closes_the_transport(self):
        simulator = FlowSimulator(tiny_config(), tiny_params(), short_scenario(periods=1))
        assert not simulator.transport.closed
        simulator.run()
        assert simulator.transport.closed

    def test_run_closes_the_transport_when_the_scenario_raises(self, monkeypatch):
        simulator = FlowSimulator(tiny_config(), tiny_params(), short_scenario(periods=1))

        def explode(*args, **kwargs):
            raise RuntimeError("mid-run failure")

        monkeypatch.setattr(simulator, "_assign_loads", explode)
        with pytest.raises(RuntimeError, match="mid-run failure"):
            simulator.run()
        assert simulator.transport.closed


class TestAgainstFixedDepth:
    def test_fixed_depth_suffers_under_skew(self):
        clash = FlowSimulator(tiny_config(), tiny_params(), short_scenario(2)).run()
        fixed = FixedDepthDhtSimulator(
            tiny_config(), tiny_params(), short_scenario(2), fixed_depth=6
        ).run()
        clash_c = [s for s in clash.phase_summaries() if s.workload == "C"][0]
        fixed_c = [s for s in fixed.phase_summaries() if s.workload == "C"][0]
        assert fixed_c.peak_max_load_percent > clash_c.peak_max_load_percent
