"""Overload-set tracking: dirty-server load checks must equal the full scan.

``ClashSystem.run_load_check`` probes a server's overload/underload status
only when the server notified the system of a load change since the last
probe (``ClashServer.set_load_listener`` → ``_mark_server_load_dirty``);
every other server's cached verdicts are reused.  These tests pin the two
properties that make that safe:

* **Equivalence** — a full simulation with the naive every-server scan of
  ``tests/reference/`` installed (probe everyone, the pre-tracking
  behaviour) emits a ``PeriodSample`` stream bit-identical to the tracked
  run, churn included.
* **Steady-state sparsity** — with no load changes between two checks, the
  second check performs zero fresh probes.
"""

from __future__ import annotations

import dataclasses

from reference.naive_clash import install_naive_balance

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.experiments.runner import ExperimentScale
from repro.sim.simulator import FlowSimulator
from repro.util.rng import RandomStream


def _run(scale: ExperimentScale, scenario, naive: bool):
    simulator = FlowSimulator(
        config=scale.config(), params=scale.params(), scenario=scenario
    )
    scan = install_naive_balance(simulator.system) if naive else None
    try:
        result = simulator.run()
        simulator.system.verify_invariants()
    finally:
        simulator.transport.close()
    if scan is not None:
        # Every load check of the run went through the naive scan.
        assert scan.checks == result.notes["balance_iterations"] > 0
    return result


def _assert_tracked_equals_naive(scale: ExperimentScale) -> None:
    scenario = scale.scenario()
    tracked = _run(scale, scenario, naive=False)
    full = _run(scale, scenario, naive=True)
    differences = tracked.diff(full)
    assert not differences, "; ".join(differences)
    assert tracked.notes["load_check_probes"] < full.notes["load_check_probes"]


class TestTrackedEqualsFullScan:
    def test_reference_run_bit_identical(self):
        _assert_tracked_equals_naive(ExperimentScale.scaled(factor=50, phase_periods=2))

    def test_churn_run_bit_identical(self):
        _assert_tracked_equals_naive(
            dataclasses.replace(
                ExperimentScale.scaled(factor=50, phase_periods=2),
                join_rate=0.005,
                fail_rate=0.005,
            )
        )

    def test_sharded_run_bit_identical(self):
        _assert_tracked_equals_naive(
            dataclasses.replace(ExperimentScale.scaled(factor=50, phase_periods=2), shards=4)
        )


class TestSteadyStateProbes:
    def _quiet_system(self) -> ClashSystem:
        config = ClashConfig.small_scale()
        return ClashSystem.create(config, server_count=16, rng=RandomStream(42))

    def test_unchanged_servers_are_not_reprobed(self):
        system = self._quiet_system()
        system.run_load_check()
        first_pass = system.load_probes
        assert first_pass > 0  # every server starts dirty
        system.run_load_check()
        assert system.load_probes == first_pass, (
            "a steady-state load check re-probed servers whose load never changed"
        )

    def test_a_rate_change_dirties_exactly_the_touched_server(self):
        system = self._quiet_system()
        system.run_load_check()
        baseline = system.load_probes
        group, owner = next(iter(sorted(system.active_groups().items())))
        system.server(owner).set_group_rate(group, 1.0)
        system.run_load_check()
        assert system.load_probes == baseline + 1, (
            "changing one server's measured rate must re-probe that server only"
        )

    def test_membership_events_dirty_the_touched_servers(self):
        system = self._quiet_system()
        system.run_load_check()
        baseline = system.load_probes
        handed_off = system.handle_server_join("late-joiner")
        system.run_load_check()
        # The joiner plus every former owner it drained must be re-probed;
        # untouched servers must not be.
        touched = {"late-joiner"} | set(handed_off.values())
        assert system.load_probes == baseline + len(touched)
