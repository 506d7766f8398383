"""The incremental balance pass must equal the reference full scan, bit for bit.

``ClashSystem.run_load_check`` drains dirty-server work queues (split pass,
report exchange, consolidation pass) instead of scanning every server, and on
clock-less transports the exchange skips re-posting report sets that already
stand on their parents.  ``force_full_load_scan`` restores the reference
probe-everyone scan with a full exchange.  These tests pin the contract:

* **End-to-end equivalence** — full simulations in both modes emit
  bit-identical ``PeriodSample`` streams across transports, churn, shard
  counts and partition modes.
* **Randomized mutation battery** — twin systems fed identical random rate
  mutations, membership events and (on four shards) partition rebalances
  produce identical splits, merges, message charges, ownership and standing
  child reports after every load check.
* **Membership keeps the diff** — after one failure or join, the next
  exchange posts only from dirty children and reuses every other standing
  report; invariant 7 catches each way the bookkeeping can go wrong.
* **Steady-state sparsity** — once converged, a load check performs zero
  verdict probes, zero consolidation candidate sweeps and delivers zero
  envelopes (standing reports are reused, counted in ``reports_skipped``).
* **Drop accounting** — a report whose destination unbinds while the
  envelope is in flight is counted once, in ``dropped_messages``, and is
  neither charged as a MERGE message nor counted as delivered.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from repro.core.config import ClashConfig
from repro.core.messages import MessageCategory
from repro.core.protocol import ClashSystem
from repro.dht.partition import PartitionMap
from repro.experiments.runner import ExperimentScale
from repro.keys.keygroup import KeyGroup
from repro.net import build_transport
from repro.net.event import EventTransport
from repro.net.latency import ConstantLatency
from repro.sim.engine import SimulationEngine
from repro.sim.simulator import FlowSimulator
from repro.util.rng import RandomStream


def _run(scale: ExperimentScale, scenario, full_scan: bool):
    simulator = FlowSimulator(
        config=scale.config(),
        params=scale.params(force_full_load_scan=full_scan),
        scenario=scenario,
    )
    try:
        result = simulator.run()
        simulator.system.verify_invariants()
    finally:
        simulator.transport.close()
    return result


# One combination per axis value: every transport in {inline, async, socket},
# calm and churning phases, single and 4-shard rings, static and adaptive
# partition maps — without paying for the full cross product on every CI run.
BATTERY = [
    pytest.param("inline", 0.0, 1, "static", id="inline-calm-1-static"),
    pytest.param("inline", 0.01, 4, "adaptive", id="inline-churn-4-adaptive"),
    pytest.param("async", 0.0, 4, "static", id="async-calm-4-static"),
    pytest.param("async", 0.01, 1, "static", id="async-churn-1-static"),
    pytest.param("socket", 0.0, 4, "static", id="socket-calm-4-static"),
    pytest.param("socket", 0.01, 4, "adaptive", id="socket-churn-4-adaptive"),
]


class TestWorkQueueEqualsFullScan:
    @pytest.mark.parametrize("transport, churn_rate, shards, partition", BATTERY)
    def test_period_streams_bit_identical(self, transport, churn_rate, shards, partition):
        scale = dataclasses.replace(
            ExperimentScale.scaled(factor=100, phase_periods=2),
            transport=transport,
            join_rate=churn_rate,
            fail_rate=churn_rate,
            shards=shards,
            partition=partition,
        )
        scenario = scale.scenario()
        incremental = _run(scale, scenario, full_scan=False)
        full = _run(scale, scenario, full_scan=True)
        differences = incremental.diff(full)
        assert not differences, "; ".join(differences)
        # The equivalence must not be vacuous: the incremental run has to
        # have actually probed fewer servers than the reference scan.
        assert incremental.notes["load_check_probes"] < full.notes["load_check_probes"]
        assert (
            incremental.notes["consolidation_probes"]
            <= full.notes["consolidation_probes"]
        )


# 12-bit keys bootstrapped at depth 4 for the sharded twins: sixteen root
# blocks, so a four-shard partition map has room to move its boundaries.
SHARDED_CONFIG = ClashConfig.small_scale().with_overrides(initial_depth=4)
SHARDED_BLOCK = 1 << (SHARDED_CONFIG.key_bits - SHARDED_CONFIG.initial_depth)


def _twin_system(full_scan: bool, shards: int = 1) -> ClashSystem:
    # build_transport stamps the registry's report_diff capability, so the
    # incremental twin also exercises the report-diff exchange.
    system = ClashSystem.create(
        ClashConfig.small_scale() if shards == 1 else SHARDED_CONFIG,
        server_count=16,
        rng=RandomStream(99),
        transport=build_transport("inline"),
        shards=shards,
    )
    system.force_full_load_scan = full_scan
    return system


def _standing_reports(system: ClashSystem) -> dict:
    """Every parent's standing child reports, by parent and group."""
    return {name: dict(server.child_reports()) for name, server in system.servers().items()}


def _partition_map(rng: random.Random, version: int) -> PartitionMap:
    """A random four-shard map cutting on root-block boundaries."""
    blocks = 1 << SHARDED_CONFIG.initial_depth
    cuts = sorted(rng.sample(range(1, blocks), 3))
    return PartitionMap(
        boundaries=(0, *(cut * SHARDED_BLOCK for cut in cuts), 1 << SHARDED_CONFIG.key_bits),
        key_bits=SHARDED_CONFIG.key_bits,
        granularity_depth=SHARDED_CONFIG.initial_depth,
        version=version,
    )


def _run_battery(shards: int, rounds: int, seed: int) -> tuple[ClashSystem, ClashSystem]:
    """Feed twin systems identical random mutations and membership events.

    After every load check the twins must agree on splits, merges, message
    charges, ownership and every parent's standing child reports.  Sharded
    twins also see partition rebalances, and a join there may bring a failed
    server's name back.
    """
    incremental = _twin_system(full_scan=False, shards=shards)
    reference = _twin_system(full_scan=True, shards=shards)
    twins = (incremental, reference)
    rng = random.Random(seed)
    capacity = incremental.config.server_capacity
    joins = 0
    version = 0
    departed: list[str] = []
    for round_index in range(rounds):
        groups = sorted(incremental.active_groups().items())
        assert groups == sorted(reference.active_groups().items())
        # A handful of random rate mutations, applied to both twins.
        for _ in range(rng.randrange(0, 4)):
            group, owner = groups[rng.randrange(len(groups))]
            rate = rng.uniform(0.0, 2.0 * capacity)
            for system in twins:
                system.server(owner).set_group_rate(group, rate)
        # Occasional membership churn so the work queues see joins and
        # failures mid-battery, not just rate dirt.
        if rng.random() < 0.15:
            joins += 1
            joiner = f"fz{joins}"
            if shards > 1 and departed and rng.random() < 0.5:
                joiner = departed.pop(rng.randrange(len(departed)))
            for system in twins:
                system.handle_server_join(joiner)
        elif rng.random() < 0.10:
            names = sorted(incremental.server_names())
            victim = names[rng.randrange(len(names))]
            if incremental.can_remove_server(victim):
                for system in twins:
                    system.handle_server_failure(victim)
                departed.append(victim)
        elif shards > 1 and rng.random() < 0.15:
            version += 1
            new_map = _partition_map(rng, version)
            for system in twins:
                system.rebalance_partition(new_map)
        a = incremental.run_load_check()
        b = reference.run_load_check()
        assert a.splits == b.splits, f"round {round_index}: split streams diverged"
        assert a.merges == b.merges, f"round {round_index}: merge streams diverged"
        assert incremental.messages == reference.messages, (
            f"round {round_index}: message accounting diverged"
        )
        assert incremental.active_groups() == reference.active_groups()
        assert _standing_reports(incremental) == _standing_reports(reference), (
            f"round {round_index}: standing child reports diverged"
        )
        incremental.verify_invariants()
    # The battery must have exercised real work on both paths.
    assert incremental.load_probes > 0
    assert incremental.load_probes < reference.load_probes
    assert incremental.reports_skipped > 0
    return incremental, reference


class TestRandomizedMutationBattery:
    def test_twin_systems_stay_identical_under_random_mutations(self):
        _run_battery(shards=1, rounds=40, seed=20040324)

    @pytest.mark.parametrize("seed", [20040324, 7, 11])
    def test_sharded_twins_stay_identical_under_rebalances(self, seed):
        incremental, _reference = _run_battery(shards=4, rounds=60, seed=seed)
        assert incremental.partition_version > 0, "no rebalance was exercised"


def _converged_system(full_scan: bool = False) -> ClashSystem:
    """A settled deployment whose split pairs keep child reports standing.

    Every root group is overloaded in turn; the right children of each
    check's splits are measured, so they report to their parents, and the
    load checks then run until one neither splits nor merges.
    """
    system = _twin_system(full_scan=full_scan)
    capacity = system.config.server_capacity
    for group, owner in sorted(system.active_groups().items()):
        system.server(owner).set_group_rate(group, 1.5 * capacity)
        for split in system.run_load_check().splits:
            system.server(split.child_server).set_group_rate(split.right, 0.75 * capacity)
    for _ in range(10):
        report = system.run_load_check()
        if report.split_count == 0 and report.merge_count == 0:
            break
    else:
        pytest.fail("the deployment never settled")
    # Drain the residual dirt of the settling checks.
    system.run_load_check()
    return system


def _reporters(system: ClashSystem) -> dict[str, list[str]]:
    """Each child with standing reports → the parents they stand on."""
    return {
        child: [parent for parent, _group in pairs]
        for child, pairs in system._delivered_reports.items()
        if pairs
    }


def _posting_sources(system: ClashSystem, monkeypatch) -> list[str]:
    """Record the source of every envelope the transport is asked to post."""
    sources: list[str] = []
    post = system.transport.post

    def recording_post(envelope):
        sources.append(envelope.source)
        return post(envelope)

    monkeypatch.setattr(system.transport, "post", recording_post)
    return sources


class TestMembershipKeepsTheDiff:
    """A membership event re-posts only what it moved (the exchange stays O(dirty))."""

    def _exchange_after(self, system: ClashSystem, event, monkeypatch):
        assert len(_reporters(system)) >= 3, "too few standing reports to tell"
        event()
        dirty = set(system._dirty_reports)
        sources = _posting_sources(system, monkeypatch)
        skipped = system.reports_skipped
        system.exchange_load_reports()
        assert set(sources) <= dirty, "a clean child re-posted its reports"
        assert system.reports_skipped > skipped, "no standing report was reused"
        system.verify_invariants()

    def test_a_failure_re_posts_only_dirty_children(self, monkeypatch):
        system = _converged_system()
        # The victim is the busiest parent, so pairs addressed to it are pruned.
        parents = Counter(p for ps in _reporters(system).values() for p in ps)
        ((victim, _count),) = parents.most_common(1)
        self._exchange_after(
            system, lambda: system.handle_server_failure(victim), monkeypatch
        )
        assert victim not in {p for ps in _reporters(system).values() for p in ps}

    def test_a_join_re_posts_only_dirty_children(self, monkeypatch):
        system = _converged_system()
        self._exchange_after(
            system, lambda: system.handle_server_join("late-joiner"), monkeypatch
        )

    def test_a_returning_name_is_reported_to_again(self):
        """A child whose parent failed addresses the name again once it rejoins.

        The full exchange posts to whoever holds the name; the diff exchange
        must too, although no bookkeeping recorded the pair while the name
        was gone.
        """
        incremental = _converged_system(full_scan=False)
        reference = _converged_system(full_scan=True)
        parents = {p for ps in _reporters(incremental).values() for p in ps}
        victim = min(parents)
        for system in (incremental, reference):
            system.handle_server_failure(victim)
            system.run_load_check()
            system.handle_server_join(victim)
            system.run_load_check()
        assert incremental.messages == reference.messages
        assert _standing_reports(incremental) == _standing_reports(reference)
        assert any(_standing_reports(incremental)[victim].values())
        incremental.verify_invariants()


def _first_pair(system: ClashSystem) -> tuple[str, str, KeyGroup]:
    """One standing ``(child, parent, group)`` report pair."""
    for child, pairs in system._delivered_reports.items():
        if pairs:
            parent, group = pairs[0]
            return child, parent, group
    pytest.fail("no report stands")


def _retract_behind_the_bookkeeping(system: ClashSystem) -> None:
    _child, parent, group = _first_pair(system)
    system.server(parent).discard_child_report(group)


def _forget_without_retracting(system: ClashSystem) -> None:
    """What a failure that skipped retracting the victim's own reports leaves."""
    child, _parent, _group = _first_pair(system)
    pairs = system._delivered_reports.pop(child)
    for parent, _group in pairs:
        system._report_children[parent].discard(child)
    system._standing_report_total -= len(pairs)


def _drop_from_reverse_index(system: ClashSystem) -> None:
    child, parent, _group = _first_pair(system)
    system._report_children[parent].discard(child)


class TestReportBookkeepingOracle:
    """Invariant 7: the report-diff bookkeeping is exact, clause by clause."""

    def test_a_converged_deployment_passes(self):
        _converged_system().verify_invariants()

    @pytest.mark.parametrize(
        "message, corrupt",
        [
            ("does not stand on", _retract_behind_the_bookkeeping),
            ("no bookkeeping records", _forget_without_retracting),
            (
                "standing report total",
                lambda s: setattr(s, "_standing_report_total", s._standing_report_total + 1),
            ),
            ("reverse index is stale", _drop_from_reverse_index),
        ],
        ids=["pair-not-standing", "report-not-recorded", "total", "reverse-index"],
    )
    def test_a_corrupted_clause_fails_the_invariant_pass(self, message, corrupt):
        """Mutation check: break one clause behind the exchange's back and the
        oracle must name it."""
        system = _converged_system()
        corrupt(system)
        with pytest.raises(AssertionError, match=message):
            system.verify_invariants()


class TestSteadyState:
    def test_converged_check_probes_and_delivers_nothing(self):
        system = _twin_system(full_scan=False)
        groups = sorted(system.active_groups().items())
        group, owner = groups[0]
        # 1.5× capacity forces one split; the halves settle between the
        # underload and overload thresholds, so the pair is stable and the
        # child keeps a standing report on its parent.
        capacity = system.config.server_capacity
        system.server(owner).set_group_rate(group, 1.5 * capacity)
        (split,) = system.run_load_check().splits
        # A group just taken on has no load to report: the child's report
        # stands on the parent only once the child has measured its half.
        system.server(split.child_server).set_group_rate(split.right, 0.75 * capacity)
        converged = False
        for _ in range(10):
            report = system.run_load_check()
            if report.split_count == 0 and report.merge_count == 0:
                converged = True
                break
        assert converged, "the single-split workload never settled"
        # Drain any residual dirt from the settling passes.
        system.run_load_check()
        probes = system.load_probes
        sweeps = system.consolidation_probes
        delivered_before = system.transport.envelopes_delivered
        skipped_before = system.reports_skipped
        report = system.run_load_check()
        assert report.split_count == 0 and report.merge_count == 0
        assert system.load_probes == probes, "steady state re-probed a verdict"
        assert system.consolidation_probes == sweeps, (
            "steady state re-swept consolidation candidates"
        )
        assert system.transport.envelopes_delivered == delivered_before, (
            "steady state delivered report envelopes whose content already stood"
        )
        assert system.reports_skipped > skipped_before, (
            "the standing reports should have been reused, not absent"
        )

    def test_a_parent_starting_a_new_interval_keeps_its_child_reports(self):
        """``reset_interval`` is the server's own measurement; the reports its
        clean children delivered still stand, as a full exchange re-posts them."""
        incremental = _converged_system(full_scan=False)
        reference = _converged_system(full_scan=True)
        parent = min(p for ps in _reporters(incremental).values() for p in ps)
        for system in (incremental, reference):
            system.server(parent).reset_interval()
            system.run_load_check()
        assert _standing_reports(incremental) == _standing_reports(reference)
        assert incremental.messages == reference.messages
        incremental.verify_invariants()


class TestMidFlightDropAccounting:
    def test_dropped_report_is_not_charged_or_counted_delivered(self):
        """A parent unbinding mid-flight costs exactly one dropped_messages.

        Regression test: the exchange used to charge MERGE and count the
        report as delivered even when the transport dropped the envelope
        because its destination failed between post and delivery.
        """
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ConstantLatency(1.0))
        system = ClashSystem.create(
            ClashConfig.small_scale(),
            server_count=16,
            rng=RandomStream(7),
            transport=transport,
        )
        # Overload servers until some split sheds a child to a *different*
        # server — only cross-server children address load reports.
        for group, owner in sorted(system.active_groups().items()):
            system.server(owner).set_group_rate(
                group, 2.0 * system.config.server_capacity
            )
        system.run_load_check()
        # Freshly accepted groups are unmeasured and report nothing; one
        # measurement each makes every cross-server child a reporter.
        for group, owner in sorted(system.active_groups().items()):
            system.server(owner).set_group_rate(
                group, 0.5 * system.config.server_capacity
            )
        pairs = [
            (name, parent)
            for name in system.server_names()
            for parent, _report in system.server(name).addressed_load_reports()
        ]
        assert pairs, "the seeded workload produced no cross-server children"
        doomed_parent = pairs[0][1]
        expected_posts = len(pairs)
        expected_drops = sum(1 for _child, parent in pairs if parent == doomed_parent)
        # The failure fires on the engine clock *between* the posts (t=now)
        # and their deliveries (t=now+1.0): every report addressed to the
        # doomed parent is in flight when its endpoint unbinds.
        engine.schedule_in(
            0.5, lambda now: system.handle_server_failure(doomed_parent)
        )
        drops_before = transport.dropped_messages
        merge_before = system.messages.counts[MessageCategory.MERGE]
        delivered = system.exchange_load_reports()
        assert transport.dropped_messages - drops_before == expected_drops
        assert delivered == expected_posts - expected_drops
        assert (
            system.messages.counts[MessageCategory.MERGE] - merge_before == delivered
        ), "a dropped report must not be charged as a MERGE delivery"
