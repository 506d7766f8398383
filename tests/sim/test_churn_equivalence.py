"""Churn equivalence suite: Poisson join/fail scenarios across transports.

The Poisson churn schedule is drawn from dedicated seeded streams before any
event executes, so the membership event sequence is a function of the seed
and the scenario alone.  The clock-less transports (inline, batching) drain
the events at identical points, so their runs must agree on *every* recorded
metric; the event transport executes the same events on the simulation
engine and must complete with the same total membership activity.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.experiments.runner import ExperimentScale
from repro.net.envelope import Envelope
from repro.net.event import EventTransport
from repro.sim.simulator import FlowSimulator
from repro.util.rng import RandomStream

CHURN_SCALE = ExperimentScale.scaled(factor=100, phase_periods=2)


def _run(transport: str, join_rate: float = 0.01, fail_rate: float = 0.01):
    scale = dataclasses.replace(
        CHURN_SCALE, transport=transport, join_rate=join_rate, fail_rate=fail_rate
    )
    simulator = FlowSimulator(
        config=scale.config(),
        params=scale.params(verify_invariants=True),
        scenario=scale.scenario(),
    )
    result = simulator.run()
    simulator.system.verify_invariants()
    return simulator, result


class TestInlineBatchingEquivalence:
    def test_identical_samples_under_poisson_churn(self):
        """A join+fail Poisson scenario produces identical message accounting
        (and every other recorded metric) on inline vs. batching."""
        _, inline_result = _run("inline")
        _, batching_result = _run("batching")
        inline_samples = inline_result.metrics.samples
        batching_samples = batching_result.metrics.samples
        assert len(inline_samples) == len(batching_samples)
        assert inline_samples == batching_samples
        assert inline_result.total_splits == batching_result.total_splits
        assert inline_result.total_merges == batching_result.total_merges
        assert (
            inline_result.final_active_groups == batching_result.final_active_groups
        )

    def test_churn_actually_happened(self):
        simulator, result = _run("inline")
        joins = sum(s.server_joins for s in result.metrics.samples)
        failures = sum(s.server_failures for s in result.metrics.samples)
        moved = sum(s.groups_reassigned for s in result.metrics.samples)
        assert joins > 0
        assert failures > 0
        assert moved > 0
        # The deployment's membership really changed.
        names = simulator.system.server_names()
        assert any(name.startswith("j") for name in names)


class TestEventTransportChurn:
    def test_poisson_churn_completes_on_the_event_kernel(self):
        simulator, result = _run("event")
        applied_failures = sum(s.server_failures for s in result.metrics.samples)
        sampled_joins = sum(s.server_joins for s in result.metrics.samples)
        assert sampled_joins > 0
        assert applied_failures > 0
        # Every generated join arrival executed within the run and was
        # credited to some period's sample (none lost past the last sample).
        assert sampled_joins == simulator._join_counter
        simulator.system.verify_invariants()

    def test_event_and_inline_apply_the_same_event_schedule(self):
        """Arrival draws come from dedicated streams: the set of joiner names
        created is identical across transports."""
        inline_sim, _ = _run("inline")
        event_sim, _ = _run("event")
        assert inline_sim._join_counter == event_sim._join_counter


class TestFailedDestinationRegression:
    def test_post_to_a_server_that_fails_in_flight_is_dropped(self):
        """Regression: a queued one-way envelope whose destination fails
        before delivery used to escape the engine callback as a
        TransportError and abort the run; it must be dropped and counted."""
        config = ClashConfig.small_scale()
        transport = EventTransport()
        system = ClashSystem(
            config,
            [f"s{index}" for index in range(8)],
            rng=RandomStream(5),
            transport=transport,
        )
        system.bootstrap()
        victim = system.active_servers()[0]
        survivor = next(
            name for name in system.server_names() if name != victim
        )
        # One-way envelope scheduled at the victim, which fails mid-flight.
        transport.post(
            Envelope(source=survivor, destination=victim, payload="late-report")
        )
        system.handle_server_failure(victim)
        flushed = transport.flush()  # must not raise
        assert flushed == 1  # the envelope left the calendar...
        assert transport.dropped_messages == 1  # ...by being dropped
        system.verify_invariants()


class TestChurnOffByDefault:
    def test_default_scenario_records_no_churn(self):
        scale = ExperimentScale.scaled(factor=100, phase_periods=2)
        result = FlowSimulator(
            config=scale.config(), params=scale.params(), scenario=scale.scenario()
        ).run()
        for sample in result.metrics.samples:
            assert sample.server_joins == 0
            assert sample.server_failures == 0
            assert sample.groups_reassigned == 0
            assert sample.dropped_messages == 0
