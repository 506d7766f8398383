"""Incremental-vs-full equivalence of the period engine.

The incremental machinery added for performance — the maintained ownership
indexes in :class:`~repro.core.protocol.ClashSystem`, the per-server load
caches, and the dirty-group load assignment in
:class:`~repro.sim.simulator.FlowSimulator` — must be *pure* optimisations:
after every mutation the maintained structures must equal a from-scratch
recomputation, and a simulation run using dirty-group assignment must emit
exactly the sample stream a full per-iteration reassignment emits.

The tests here are property-style: randomized split/merge/failure sequences
(driven by seeded RNG so failures replay) with an exhaustive cross-check
after every single mutation.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.keys.identifier import RandomKeyGenerator
from repro.sim.simulator import FlowSimulator, SimulationParams
from repro.util.rng import RandomStream
from repro.workload.distributions import workload_c
from repro.workload.scenario import (
    PhasedScenario,
    ScenarioPhase,
    churn_latency_scenario,
    paper_scenario,
)
from repro.workload.distributions import workload_a


# --------------------------------------------------------------------- #
# Maintained-index ground truth
# --------------------------------------------------------------------- #


def _assert_indexes_match_ground_truth(system: ClashSystem) -> None:
    """Every maintained index must equal a recomputation from server tables."""
    truth: dict = {}
    for name, server in system.servers().items():
        for group in server.table.active_groups():
            assert group not in truth, f"{group} active on two servers"
            truth[group] = name
    assert system.active_groups() == truth
    assert system.active_servers() == sorted({owner for owner in truth.values()})
    assert system.sorted_server_names() == sorted(system.server_names())
    depths = [group.depth for group in truth]
    min_depth, avg_depth, max_depth = system.depth_statistics()
    assert min_depth == min(depths)
    assert max_depth == max(depths)
    assert avg_depth == pytest.approx(sum(depths) / len(depths), abs=0.0)


def _assert_server_loads_match_raw_state(system: ClashSystem) -> None:
    """Cached loads must equal a recomputation from the raw per-server state.

    The recomputation deliberately reads the private rate/override dicts —
    that is the uncached ground truth the caching layer must reproduce.
    """
    for server in system.servers().values():
        expected_total = 0.0
        loads = server.group_loads()
        assert sorted(loads) == server.table.active_groups()
        for group in server.table.active_groups():
            rate = server._group_rates.get(group, 0.0)
            if group in server._group_query_counts:
                query_count = server._group_query_counts[group]
            else:
                query_count = server.query_store.count_in_group(group)
            load = server.load_model.load(rate, query_count)
            assert loads[group].data_rate == rate
            assert loads[group].load == load
            expected_total += load
        assert server.total_load() == pytest.approx(expected_total)
        assert server.is_overloaded() == server.load_model.is_overloaded(
            server.total_load()
        )
        assert server.is_underloaded() == server.load_model.is_underloaded(
            server.total_load()
        )


def test_randomized_mutations_keep_indexes_consistent():
    config = ClashConfig(server_capacity=400.0)
    system = ClashSystem.create(config, server_count=48, rng=RandomStream(91))
    spec = workload_c()
    generator = RandomKeyGenerator(
        width=config.key_bits, base_bits=8, rng=RandomStream(92), base_weights=spec.weights
    )
    rng = random.Random(4711)
    _assert_indexes_match_ground_truth(system)
    for step in range(160):
        action = rng.random()
        if action < 0.55:
            # Heat a random group and split its owner.
            key = generator.generate()
            group, owner = system.find_active_group(key)
            if group.depth < config.effective_max_depth:
                system.server(owner).set_group_rate(group, 2 * config.server_capacity)
                system.split_server(owner)
        elif action < 0.85:
            # Cool everything and run a full load check (exercises merges).
            for server in system.servers().values():
                server.reset_interval()
                for group in server.active_groups():
                    server.set_group_rate(group, 0.0)
            system.run_load_check()
        elif action < 0.93 and len(system.server_names()) > 8:
            # Fail a random server (handoff / re-registration paths).
            victim = rng.choice(sorted(system.server_names()))
            system.handle_server_failure(victim)
        else:
            system.handle_server_join(f"j{step}")
        _assert_indexes_match_ground_truth(system)
        _assert_server_loads_match_raw_state(system)
        system.verify_invariants()


def test_load_check_report_covers_every_perturbed_group():
    """touched_groups must name every group whose assignment was perturbed.

    After a load check, re-assigning *only* the reported groups must restore
    the exact expected rates everywhere — verified by comparing against a
    full reassignment of every active group.
    """
    config = ClashConfig(server_capacity=400.0)
    system = ClashSystem.create(config, server_count=32, rng=RandomStream(17))
    spec = workload_c()

    def expected_rate(group):
        # A deterministic, depth-dependent synthetic measure.
        return 900.0 * spec.prefix_probability(group.prefix, group.depth) * 64

    for group, owner in system.active_groups().items():
        system.server(owner).set_group_rate(group, expected_rate(group))
    system.drain_touched_groups()
    for _round in range(6):
        report = system.run_load_check()
        # Incremental repair: only the touched groups get fresh values.
        owners = system.active_groups()
        for server in system.servers().values():
            server.clear_child_reports()
        for group in report.touched_groups:
            owner = owners.get(group)
            if owner is not None:
                system.server(owner).set_group_rate(group, expected_rate(group))
        incremental_rates = {
            group: system.server(owner)._group_rates.get(group, 0.0)
            for group, owner in owners.items()
        }
        # Ground truth: a full reassignment.
        for server in system.servers().values():
            server.reset_interval()
        for group, owner in owners.items():
            system.server(owner).set_group_rate(group, expected_rate(group))
        full_rates = {
            group: system.server(owner)._group_rates.get(group, 0.0)
            for group, owner in owners.items()
        }
        assert incremental_rates == full_rates


def test_retired_assignments_name_every_deactivation_and_prune_stale_overrides():
    """Deactivated groups must be retired so stale measurements can be pruned.

    A full reassignment wipes every measurement dict via ``reset_interval``;
    the incremental path instead discards the ``(group, former owner)`` pairs
    the system logs.  Without the pruning, a stale query override would be
    resurrected when the same group is re-activated on that server by a
    later merge or re-split.
    """
    config = ClashConfig(server_capacity=400.0)
    system = ClashSystem.create(config, server_count=16, rng=RandomStream(3))
    group, owner = sorted(system.active_groups().items())[0]
    server = system.server(owner)
    server.set_group_rate(group, 2 * config.server_capacity)
    server.set_group_query_count(group, 777.0)
    system.drain_retired_assignments()
    outcome = system.split_server(owner)
    assert outcome is not None
    retired = system.drain_retired_assignments()
    assert (group, owner) in retired
    # Mid-check the override deliberately survives (matching the original
    # semantics, where a re-merge within the same check reads it) ...
    assert group in server._group_query_counts
    # ... and the assignment-boundary pruning removes it.
    for retired_group, former_owner in retired:
        system.server(former_owner).discard_measurements(retired_group)
    assert group not in server._group_query_counts
    assert group not in server._group_rates


# --------------------------------------------------------------------- #
# Simulator-level equivalence: dirty assignment vs full reassignment
# --------------------------------------------------------------------- #


def _run(scenario, params: SimulationParams, force_full: bool, **kwargs):
    config = ClashConfig(
        server_capacity=40.0, load_check_period=300.0, query_load_weight=0.1
    )
    simulator = FlowSimulator(config, params, scenario, **kwargs)
    simulator._force_full_assignment = force_full
    return simulator.run()


def _assert_identical_runs(scenario, params: SimulationParams, **kwargs) -> None:
    incremental = _run(scenario, params, force_full=False, **kwargs)
    full = _run(scenario, params, force_full=True, **kwargs)
    assert incremental.total_splits == full.total_splits
    assert incremental.total_merges == full.total_merges
    assert incremental.final_active_groups == full.final_active_groups
    assert len(incremental.metrics.samples) == len(full.metrics.samples)
    for sample, reference in zip(incremental.metrics.samples, full.metrics.samples):
        assert sample == reference  # field-for-field dataclass equality


def test_dirty_assignment_matches_full_reassignment():
    params = SimulationParams(
        server_count=120, source_count=1000, lookup_sample_size=10, seed=7
    )
    _assert_identical_runs(paper_scenario(phase_duration=900.0), params)


def test_dirty_assignment_matches_with_query_clients():
    params = SimulationParams(
        server_count=120,
        source_count=1000,
        query_client_count=400,
        lookup_sample_size=10,
        seed=11,
    )
    _assert_identical_runs(paper_scenario(phase_duration=900.0), params)


def test_dirty_assignment_matches_under_split_merge_oscillation_with_queries():
    """Alternating hot/cold phases force re-activation of previously split
    groups — the path where a stale query override could diverge."""
    scenario = PhasedScenario(
        [
            ScenarioPhase(spec=workload_c(), duration=1200.0),
            ScenarioPhase(spec=workload_a(), duration=1200.0),
            ScenarioPhase(spec=workload_c(), duration=1200.0),
            ScenarioPhase(spec=workload_a(), duration=1200.0),
        ]
    )
    params = SimulationParams(
        server_count=100,
        source_count=1000,
        query_client_count=500,
        lookup_sample_size=8,
        seed=13,
    )
    _assert_identical_runs(scenario, params)


def test_dirty_assignment_matches_under_churn():
    scenario = churn_latency_scenario(
        phase_duration=900.0, fail_servers=(0, 3, 2), link_latency=(None, None, None)
    )
    params = SimulationParams(
        server_count=100, source_count=800, lookup_sample_size=8, seed=23
    )
    _assert_identical_runs(scenario, params)


def test_dirty_assignment_matches_for_fixed_depth_baseline():
    scenario = PhasedScenario(
        [
            ScenarioPhase(spec=workload_a(), duration=900.0),
            ScenarioPhase(spec=workload_c(), duration=900.0),
        ]
    )
    params = SimulationParams(
        server_count=80, source_count=800, lookup_sample_size=8, seed=29
    )
    _assert_identical_runs(scenario, params, fixed_depth=6)
