"""End to end: the balance loop settles inside a stationary phase.

Section 5 sheds load with a split and takes it back only under under-load;
Figure 4 holds every server under the overload threshold.  In the simulator
that means: once a workload phase has had one period to react, a period is
one load check that finds nothing to do — and the iteration cap is a backstop
whose use is counted, not a silent way out.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.runner import ExperimentScale
from repro.sim.simulator import FlowSimulator

PHASE_PERIODS = 4


def _simulator(transport: str = "inline", **params) -> FlowSimulator:
    scale = dataclasses.replace(
        ExperimentScale.scaled(factor=10, phase_periods=PHASE_PERIODS), transport=transport
    )
    return FlowSimulator(
        config=scale.config(), params=scale.params(**params), scenario=scale.scenario()
    )


@pytest.mark.parametrize("transport", ["inline", "async"])
def test_stationary_phases_are_quiet_after_their_first_period(transport):
    simulator = _simulator(transport)
    system = simulator.system
    checks = 0
    run_load_check = system.run_load_check

    def counted(*args, **kwargs):
        nonlocal checks
        checks += 1
        return run_load_check(*args, **kwargs)

    system.run_load_check = counted
    checks_at_period_end: list[int] = []
    simulator.set_oracles(sample=lambda _system, _sample: checks_at_period_end.append(checks))
    result = simulator.run()

    samples = result.metrics.samples
    assert len(samples) == 3 * PHASE_PERIODS
    assert result.total_splits > 0, "the scenario never reshaped: it tests nothing"
    overload_percent = 100.0 * result.config.overload_threshold
    checks_per_period = [
        after - before for before, after in zip([0] + checks_at_period_end, checks_at_period_end)
    ]
    for index, sample in enumerate(samples):
        if index % PHASE_PERIODS == 0:
            continue  # the period a phase starts in is the one that reacts
        assert (sample.splits, sample.merges) == (0, 0), f"period {index} still reshapes"
        assert checks_per_period[index] == 1, f"period {index} ran more than one load check"
    for sample in samples:
        assert sample.max_load_percent <= overload_percent + 1e-9
    assert result.notes["balance_iterations"] == sum(checks_per_period)
    assert result.notes["balance_cap_hits"] == 0


def test_a_period_that_ends_on_the_iteration_cap_is_counted():
    result = _simulator(max_balance_iterations=1).run()
    samples = result.metrics.samples
    # One check a period: every period whose single check reshaped ended on
    # the cap with work still reported.
    assert result.notes["balance_iterations"] == len(samples)
    reshaping = sum(1 for sample in samples if sample.splits or sample.merges)
    assert reshaping > 0
    assert result.notes["balance_cap_hits"] == reshaping
