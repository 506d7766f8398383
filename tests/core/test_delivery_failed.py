"""Mid-flight destination failure: typed cancellation + protocol recovery.

A request/reply exchange whose destination dies while the request is
travelling used to let a bare ``TransportError`` escape and abort the whole
run (the PR 3 follow-up).  These tests pin the fixed behaviour on the
time-modelling transports: the exchange is cancelled, the lost request is
counted in ``dropped_messages``, the caller sees a typed
:class:`~repro.net.transport.DeliveryFailed`, and every protocol-level caller
recovers instead of crashing.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.keys.identifier import RandomKeyGenerator
from repro.net import ConstantLatency
from repro.net.event import EventTransport
from repro.net.transport import DeliveryFailed
from repro.sim.engine import SimulationEngine
from repro.sim.simulator import FlowSimulator
from repro.util.rng import RandomStream
from repro.workload.scenario import paper_scenario


def _latency_system(server_count: int = 8) -> tuple[ClashSystem, SimulationEngine]:
    engine = SimulationEngine()
    transport = EventTransport(engine=engine, latency=ConstantLatency(1.0))
    config = ClashConfig.small_scale()
    system = ClashSystem(
        config,
        [f"s{index}" for index in range(server_count)],
        rng=RandomStream(7),
        transport=transport,
    )
    system.bootstrap()
    return system, engine


class TestLookupRetry:
    def test_client_lookup_survives_destination_failing_mid_probe(self):
        """The probed owner dies while the ACCEPT_OBJECT probe travels: the
        exchange is cancelled (typed + counted) and the client's retry
        resolves against the re-stabilised ring."""
        system, engine = _latency_system()
        client = system.make_client("cli")
        key = RandomKeyGenerator(
            width=system.config.key_bits, base_bits=4, rng=RandomStream(21)
        ).generate()
        # The owner the client's first probe will be routed to.
        first_estimate = system.config.initial_depth
        from repro.keys.keygroup import KeyGroup

        probe_group = KeyGroup.from_key(key, first_estimate)
        victim = system.ring.lookup_key(probe_group.virtual_key).owner
        engine.schedule_at(0.5, lambda now: system.handle_server_failure(victim))
        result = client.find_group(key, use_cache=False)
        system.verify_invariants()
        assert victim not in system.server_names()
        assert result.server in system.server_names()
        assert system.transport.dropped_messages == 1
        # The lost probe crossed the wire and is accounted on both sides.
        assert result.probes == len(result.probe_depths)
        assert result.probe_depths[0] == result.probe_depths[1] == first_estimate

    def test_route_accept_object_reraises_the_typed_failure(self):
        system, engine = _latency_system()
        key = RandomKeyGenerator(
            width=system.config.key_bits, base_bits=4, rng=RandomStream(21)
        ).generate()
        from repro.keys.keygroup import KeyGroup

        probe_group = KeyGroup.from_key(key, system.config.initial_depth)
        victim = system.ring.lookup_key(probe_group.virtual_key).owner
        engine.schedule_at(0.5, lambda now: system.handle_server_failure(victim))
        lookups_before = system.messages.snapshot()["lookup"]
        with pytest.raises(DeliveryFailed) as failure:
            system.route_accept_object(key, system.config.initial_depth, "cli")
        assert failure.value.destination == victim
        # The lost (reply-less) probe is charged as a single message.
        assert system.messages.snapshot()["lookup"] == lookups_before + 1


class TestSplitTransferCancellation:
    def test_split_is_undone_when_the_child_dies_mid_transfer(self):
        """The ACCEPT_KEYGROUP transfer dies in flight: the parent reverts
        the local split, ownership never moves, and the deployment stays
        invariant-clean."""
        system, engine = _latency_system(server_count=12)
        generator = RandomKeyGenerator(
            width=system.config.key_bits, base_bits=4, rng=RandomStream(3)
        )
        # Find a (group, owner) whose right child resolves to a *different*
        # server, so the split would genuinely transfer responsibility.
        for _ in range(64):
            key = generator.generate()
            group, owner = system.find_active_group(key)
            if group.depth >= system.config.effective_max_depth:
                continue
            server = system.server(owner)
            server.set_group_rate(group, 2 * system.config.server_capacity)
            if server.choose_group_to_split() != group:
                server.set_group_rate(group, 0.0)
                continue
            _left, right = group.split()
            child_owner = system.ring.lookup_key(right.virtual_key).owner
            if child_owner != owner:
                break
            server.set_group_rate(group, 0.0)
        else:  # pragma: no cover - seed-dependent safety net
            pytest.fail("no transferable split found")
        splits_before = server.splits_performed
        engine.schedule_at(
            engine.now + 0.5, lambda now: system.handle_server_failure(child_owner)
        )
        outcome = system.split_server(owner)
        assert outcome is None  # the failed attempt reports no split
        assert server.splits_performed == splits_before
        assert system.transport.dropped_messages == 1
        # Ownership of the would-be-split group never moved, and the failed
        # child's own groups were re-homed by recovery (invariants cover it).
        assert system.owner_of_group(group) == owner
        assert child_owner not in system.server_names()
        assert all(o != child_owner for o in system.active_groups().values())
        system.verify_invariants()


class TestConsolidationCancellation:
    def test_release_request_to_a_dead_child_skips_the_merge(self):
        """The RELEASE_KEYGROUP request dies in flight because the child
        failed: the merge is skipped, the child's groups were already
        re-homed by failure recovery, and nothing crashes."""
        system, engine = _latency_system(server_count=6)
        generator = RandomKeyGenerator(
            width=system.config.key_bits, base_bits=4, rng=RandomStream(5)
        )
        # Manufacture one real split so a parent entry with a remote right
        # child exists.
        for _ in range(64):
            key = generator.generate()
            group, owner = system.find_active_group(key)
            if group.depth >= system.config.effective_max_depth:
                continue
            server = system.server(owner)
            server.set_group_rate(group, 2 * system.config.server_capacity)
            if server.choose_group_to_split() != group:
                server.set_group_rate(group, 0.0)
                continue
            outcome = system.split_server(owner)
            if outcome is not None and outcome.shed:
                break
        else:  # pragma: no cover - seed-dependent safety net
            pytest.fail("no shed split produced")
        parent, child = outcome.parent_server, outcome.child_server
        # Cool the deployment and let the child report, so the parent sees a
        # consolidation candidate.
        for member in system.servers().values():
            member.reset_interval()
            for active in member.active_groups():
                member.set_group_rate(active, 0.0)
        system.exchange_load_reports()
        assert system.server(parent).consolidation_candidates()
        merges_before = system.server(parent).merges_performed
        engine.schedule_at(
            engine.now + 0.5, lambda now: system.handle_server_failure(child)
        )
        outcomes = system.consolidate_server(parent)
        assert outcomes == []  # the merge was skipped, not crashed
        assert system.server(parent).merges_performed == merges_before
        assert system.transport.dropped_messages >= 1
        assert child not in system.server_names()
        system.verify_invariants()


class TestEndToEndChurnWithLatency:
    def test_mid_phase_churn_with_large_link_latencies_completes(self):
        """The PR 3 follow-up scenario: Poisson churn arriving *mid-phase*
        while exchanges take seconds of simulated time.  Requests routinely
        have their destination die mid-flight; the run must complete with
        invariants intact instead of aborting on a TransportError."""
        from repro.experiments.runner import ExperimentScale

        scale = ExperimentScale.scaled(factor=100, phase_periods=2)
        scale = dataclasses.replace(
            scale, transport="event", link_latency=2.0, join_rate=0.02, fail_rate=0.02
        )
        scenario = paper_scenario(
            phase_duration=scale.phase_duration,
            join_rate=scale.join_rate,
            fail_rate=scale.fail_rate,
        )
        # A phase-entry failure burst layered on top of the Poisson arrivals
        # maximises the chance of in-flight exchanges losing their peer.
        scenario = type(scenario)(
            [
                dataclasses.replace(phase, fail_servers=2 if index else 0)
                for index, phase in enumerate(scenario.phases)
            ]
        )
        simulator = FlowSimulator(
            config=scale.config(), params=scale.params(), scenario=scenario
        )
        simulator.verify_after_membership = True
        result = simulator.run()
        simulator.system.verify_invariants()
        samples = result.metrics.samples
        assert len(samples) == 6
        assert sum(s.server_failures for s in samples) > 0
        assert sum(s.server_joins for s in samples) > 0

    def test_async_transport_survives_boundary_churn_with_latency(self):
        """The async transport under the same stress (period-boundary
        churn + non-zero latency) also completes cleanly."""
        from repro.experiments.runner import ExperimentScale

        scale = ExperimentScale.scaled(factor=100, phase_periods=2)
        scale = dataclasses.replace(
            scale, transport="async", link_latency=2.0, join_rate=0.02, fail_rate=0.02
        )
        simulator = FlowSimulator(
            config=scale.config(), params=scale.params(), scenario=scale.scenario()
        )
        simulator.verify_after_membership = True
        try:
            result = simulator.run()
            simulator.system.verify_invariants()
        finally:
            simulator.transport.close()
        assert sum(s.server_failures for s in result.metrics.samples) > 0
        assert all(s.mean_message_latency > 0 for s in result.metrics.samples)
