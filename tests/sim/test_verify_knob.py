"""The verify-invariants knob and the independent delivery/churn seed axes."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.runner import ExperimentScale
from repro.sim.simulator import FlowSimulator, SimulationParams


def _scale(**overrides) -> ExperimentScale:
    return dataclasses.replace(
        ExperimentScale.scaled(factor=100, phase_periods=1), **overrides
    )


def _simulator(scale: ExperimentScale, **param_overrides) -> FlowSimulator:
    return FlowSimulator(
        scale.config(), scale.params(**param_overrides), scale.scenario()
    )


def _verifications_after_one_join(scale: ExperimentScale) -> int:
    """How many invariant passes one Poisson join triggers."""
    simulator = _simulator(scale)
    calls = []
    simulator.system.verify_invariants = lambda: calls.append(1)
    try:
        simulator._apply_churn_event("join", 0.0)
    finally:
        simulator.transport.close()
    return len(calls)


class TestParamsKnob:
    def test_default_off(self):
        assert SimulationParams().verify_invariants is False

    def test_validation(self):
        with pytest.raises(TypeError):
            SimulationParams(verify_invariants=1)
        with pytest.raises(TypeError):
            SimulationParams(delivery_seed=1.5)
        with pytest.raises(TypeError):
            SimulationParams(churn_seed="7")

    def test_knob_arms_membership_verification(self):
        assert _verifications_after_one_join(_scale(verify_invariants=True)) == 1

    def test_knob_defaults_membership_verification_off(self):
        assert _verifications_after_one_join(_scale()) == 0


class TestExperimentScaleThreading:
    def test_scale_field_reaches_params(self):
        assert _scale(verify_invariants=True).params().verify_invariants is True
        assert _scale().params().verify_invariants is False

    def test_verified_run_completes(self):
        # A healthy miniature run with the knob on: the invariant pass at
        # every period boundary must hold.
        simulator = _simulator(_scale(verify_invariants=True))
        try:
            result = simulator.run()
        finally:
            simulator.transport.close()
        assert result.metrics.samples


class TestIndependentSeedAxes:
    def test_delivery_seed_requires_no_master_seed_change(self):
        base = SimulationParams(seed=7)
        varied = SimulationParams(seed=7, delivery_seed=11)
        assert base.seed == varied.seed
        assert varied.delivery_seed == 11

    def test_churn_seed_changes_arrival_stream_only(self):
        draws = {}
        for label, churn_seed in (("a", 5), ("b", 6)):
            simulator = _simulator(
                _scale(join_rate=0.01), churn_seed=churn_seed
            )
            try:
                draws[label] = [simulator._join_rng.uniform(0.0, 1.0) for _ in range(4)]
            finally:
                simulator.transport.close()
        assert draws["a"] != draws["b"]

    def test_same_churn_seed_is_reproducible(self):
        draws = []
        for _ in range(2):
            simulator = _simulator(_scale(join_rate=0.01), churn_seed=5)
            try:
                draws.append([simulator._join_rng.uniform(0.0, 1.0) for _ in range(4)])
            finally:
                simulator.transport.close()
        assert draws[0] == draws[1]
