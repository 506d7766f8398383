"""Unit tests for the vectorised fixed-depth DHT baseline."""

from __future__ import annotations

import pytest

from repro.baselines.fixed_depth import ENUMERATION_DEPTH, FixedDepthDhtSimulator
from repro.core.config import ClashConfig
from repro.sim.simulator import SimulationParams
from repro.workload.scenario import paper_scenario


CONFIG = ClashConfig(server_capacity=40.0, query_load_weight=0.1)
PARAMS = SimulationParams(server_count=60, source_count=1000, seed=11)
SCENARIO = paper_scenario(phase_duration=600.0)


def run(depth: int, **param_overrides):
    params = PARAMS if not param_overrides else SimulationParams(
        **{**dict(server_count=60, source_count=1000, seed=11), **param_overrides}
    )
    return FixedDepthDhtSimulator(
        config=CONFIG, params=params, scenario=SCENARIO, fixed_depth=depth
    ).run()


class TestPartition:
    def test_enumeration_capped(self):
        simulator = FixedDepthDhtSimulator(
            config=CONFIG, params=PARAMS, scenario=SCENARIO, fixed_depth=24
        )
        assert simulator.enumeration_depth == ENUMERATION_DEPTH == 16

    def test_enumeration_matches_depth_when_small(self):
        simulator = FixedDepthDhtSimulator(
            config=CONFIG, params=PARAMS, scenario=SCENARIO, fixed_depth=6
        )
        assert simulator.enumeration_depth == 6

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            FixedDepthDhtSimulator(
                config=CONFIG, params=PARAMS, scenario=SCENARIO, fixed_depth=25
            )
        with pytest.raises(ValueError):
            FixedDepthDhtSimulator(
                config=CONFIG, params=PARAMS, scenario=SCENARIO, fixed_depth=0
            )


class TestBehaviour:
    def test_label_and_constant_depth(self):
        result = run(6)
        assert result.label == "DHT(6)"
        assert result.total_splits == 0
        assert all(sample.max_depth == 6.0 for sample in result.metrics.samples)

    def test_small_depth_uses_few_servers(self):
        result = run(4)
        for summary in result.phase_summaries():
            assert summary.mean_active_servers <= 16

    def test_large_depth_uses_nearly_all_servers(self):
        result = run(12)
        for summary in result.phase_summaries():
            assert summary.mean_active_servers > 50

    def test_large_depth_has_low_average_load(self):
        coarse = run(6)
        fine = run(12)
        coarse_avg = coarse.phase_summaries()[0].mean_avg_load_percent
        fine_avg = fine.phase_summaries()[0].mean_avg_load_percent
        assert fine_avg < coarse_avg

    def test_small_depth_hotspots_under_skew(self):
        result = run(6)
        summaries = {summary.workload: summary for summary in result.phase_summaries()}
        # Workload C concentrates a quarter of double-rate traffic on one group.
        assert summaries["C"].peak_max_load_percent > 3 * summaries["A"].peak_max_load_percent
        assert summaries["C"].peak_max_load_percent > 150.0

    def test_message_rate_scales_with_key_churn(self):
        long_streams = run(6, mean_stream_length=1000.0)
        short_streams = run(6, mean_stream_length=50.0)
        assert (
            short_streams.phase_summaries()[0].messages_per_server_per_second
            > long_streams.phase_summaries()[0].messages_per_server_per_second
        )

    def test_per_phase_loads_follow_traffic_intensity(self):
        result = run(8)
        summaries = {summary.workload: summary for summary in result.phase_summaries()}
        # Workloads B and C double the per-source rate relative to A.
        assert summaries["B"].mean_avg_load_percent > 1.5 * summaries["A"].mean_avg_load_percent

    def test_query_clients_add_load(self):
        without = run(8)
        with_queries = run(8, query_client_count=1000)
        assert (
            with_queries.phase_summaries()[0].mean_avg_load_percent
            > without.phase_summaries()[0].mean_avg_load_percent
        )
