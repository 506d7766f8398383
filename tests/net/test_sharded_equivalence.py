"""Sharded-ring federation: equivalence and shard-locality invariants.

Two contracts, parametrized over the :data:`repro.net.TRANSPORTS` registry:

* **``shards=1`` is the seed.**  An explicit single-shard run routes through
  :class:`~repro.dht.router.SingleRingRouter` and must reproduce the
  committed golden capture — depth-search trace and flow metrics — on every
  registered transport, exactly as the default (shard-less) configuration
  does.  (The default *is* ``shards=1``, so ``tests/net/test_equivalence.py``
  already holds every transport's full golden battery to the router path;
  this module additionally pins the explicit knob and the sample-stream
  comparison between the two spellings.)
* **Sharded runs keep the shard-locality invariants under churn.**  After
  every join/failure event of a churn scenario, every key group must be
  registered on exactly one shard (its owner lives on the shard owning its
  virtual key) and no consolidation linkage may cross shards —
  ``ClashSystem.verify_invariants`` enforces both for sharded deployments
  and runs after every membership event via ``verify_after_membership``.
"""

from __future__ import annotations

import pytest
from equivalence import (
    assert_depth_search_matches_golden,
    assert_matches_golden_flow,
    assert_samples_bit_identical,
    churn_scenario,
    load_golden,
    make_transport,
    reference_scale,
    run_flow,
)

from repro.core.protocol import ClashSystem
from repro.dht.router import ShardedRingRouter, SingleRingRouter
from repro.net import TRANSPORTS
from repro.util.rng import RandomStream

ALL_KINDS = list(TRANSPORTS)
CHURN_KINDS = [kind for kind, spec in TRANSPORTS.items() if spec.churn_equivalence]


@pytest.fixture(scope="module")
def golden() -> dict:
    return load_golden()


class TestSingleShardIsTheSeed:
    """`--shards 1` must be indistinguishable from the pre-router seed."""

    def test_default_router_is_the_single_ring_wrapper(self, small_config):
        system = ClashSystem.create(small_config, server_count=8, rng=RandomStream(3))
        assert isinstance(system.router, SingleRingRouter)
        assert system.shard_count == 1
        # The back-compat single-ring accessor still works.
        assert len(system.ring) == 8

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_depth_search_trace_matches_seed(self, kind, golden):
        """The golden depth-search trace, replayed on an explicit shards=1
        system, transport by transport."""
        from equivalence import build_traced_system

        system, splits, config = build_traced_system(make_transport(kind))
        try:
            assert isinstance(system.router, SingleRingRouter)
            assert_depth_search_matches_golden(system, splits, config, golden)
        finally:
            system.transport.close()

    def test_explicit_single_shard_flow_matches_seed_metrics(self, golden):
        scale = reference_scale(golden)
        result = run_flow("inline", scale, scale.scenario(), shards=1)
        assert_matches_golden_flow(result, golden)

    @pytest.mark.parametrize("kind", [k for k in CHURN_KINDS if k != "inline"])
    def test_explicit_single_shard_churn_bit_identical(self, kind, golden):
        """Explicit shards=1 under churn: every churn-equivalence transport
        emits the inline stream sample for sample."""
        scale = reference_scale(golden)
        scenario = churn_scenario(scale)
        reference = run_flow(
            "inline", scale, scenario, verify_membership=True, shards=1
        )
        result = run_flow(kind, scale, scenario, verify_membership=True, shards=1)
        assert_samples_bit_identical(result, reference)


class TestShardedChurnInvariants:
    """Per-shard invariants hold after every membership event."""

    @pytest.mark.parametrize("kind", ["inline", "async"])
    def test_churn_scenario_keeps_shard_invariants(self, kind, golden):
        """verify_after_membership runs the full invariant battery — shard
        registration and parent-link locality included — after every join
        and failure of the churn scenario."""
        scale = reference_scale(golden)
        result = run_flow(
            kind, scale, churn_scenario(scale), verify_membership=True, shards=4
        )
        samples = result.metrics.samples
        assert sum(s.server_joins for s in samples) > 0
        assert sum(s.server_failures for s in samples) > 0
        assert all(s.shard_count == 4 for s in samples)
        assert all(len(s.shard_peak_loads) == 4 for s in samples)
        # Peak-to-mean per-shard load is >= 1 whenever a period carries load
        # (0.0 is the documented idle-period value).
        assert all(
            s.cross_shard_imbalance >= 1.0 or s.cross_shard_imbalance == 0.0
            for s in samples
        )
        assert any(s.cross_shard_imbalance >= 1.0 for s in samples)

    def test_sharded_churn_bit_identical_across_clockless_transports(self, golden):
        """Sharding composes with the transport-equivalence contract: the
        clock-less transports stay bit-identical on a sharded churn run."""
        scale = reference_scale(golden)
        scenario = churn_scenario(scale)
        reference = run_flow(
            "inline", scale, scenario, verify_membership=True, shards=2
        )
        for kind in [k for k in CHURN_KINDS if k != "inline"]:
            result = run_flow(kind, scale, scenario, verify_membership=True, shards=2)
            assert_samples_bit_identical(result, reference)


class TestStaticPartitionIsTheGolden:
    """The partition-map refactor must be invisible when the map is static.

    ``partition="static"`` routes every shard decision through an explicit
    :class:`~repro.dht.partition.StaticPrefixPartition` instead of the old
    hard-coded top-bits rule; a sharded run spelt either way must stay
    bit-identical on every transport — with and without churn.
    """

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sharded_flow_bit_identical_to_the_default(self, kind, golden):
        scale = reference_scale(golden)
        scenario = scale.scenario()
        reference = run_flow(kind, scale, scenario, shards=4)
        result = run_flow(kind, scale, scenario, shards=4, partition="static")
        assert_samples_bit_identical(result, reference)
        assert all(s.partition_version == 0 for s in result.metrics.samples)
        assert all(s.groups_migrated == 0 for s in result.metrics.samples)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sharded_churn_bit_identical_to_the_default(self, kind, golden):
        scale = reference_scale(golden)
        scenario = churn_scenario(scale)
        reference = run_flow(
            kind, scale, scenario, verify_membership=True, shards=4
        )
        result = run_flow(
            kind,
            scale,
            scenario,
            verify_membership=True,
            shards=4,
            partition="static",
        )
        assert_samples_bit_identical(result, reference)


class TestShardedSystemMechanics:
    """Direct protocol-level checks on a sharded deployment."""

    @pytest.fixture
    def sharded_system(self, small_config):
        system = ClashSystem.create(
            small_config, server_count=16, rng=RandomStream(12345), shards=4
        )
        return system

    def test_every_group_registers_on_its_keys_shard(self, sharded_system):
        assert isinstance(sharded_system.router, ShardedRingRouter)
        sharded_system.verify_invariants()
        router = sharded_system.router
        shards_seen = set()
        for group, owner in sharded_system.active_groups().items():
            shard = router.shard_of_key(group.virtual_key)
            assert router.server_shard(owner) == shard
            shards_seen.add(shard)
        assert shards_seen == {0, 1, 2, 3}

    def test_join_and_failure_stay_shard_local(self, sharded_system):
        system = sharded_system
        joined = system.handle_server_join("late-joiner")
        system.verify_invariants()
        joiner_shard = system.router.server_shard("late-joiner")
        for group in joined:
            assert system.router.shard_of_key(group.virtual_key) == joiner_shard
        victim = next(
            name
            for name in sorted(system.server_names())
            if system.can_remove_server(name)
        )
        system.handle_server_failure(victim)
        system.verify_invariants()

    def test_failure_of_a_shards_last_server_is_refused(self, small_config):
        # 4 servers over 4 shards: every server is its shard's last.
        system = ClashSystem.create(
            small_config, server_count=4, rng=RandomStream(9), shards=4
        )
        assert not system.can_remove_server("s0")
        with pytest.raises(ValueError):
            system.handle_server_failure("s0")

    def test_too_many_shards_for_the_depth_is_rejected(self, small_config):
        # small_scale has initial_depth=2: 8 shards would need 3 prefix bits.
        with pytest.raises(ValueError):
            ClashSystem.create(
                small_config, server_count=16, rng=RandomStream(1), shards=8
            )

    def test_more_shards_than_servers_rejected(self, small_config):
        with pytest.raises(ValueError):
            ClashSystem.create(
                small_config, server_count=2, rng=RandomStream(1), shards=4
            )

    def test_endpoints_are_namespaced_per_shard(self, sharded_system):
        transport = sharded_system.transport
        router = sharded_system.router
        for shard in range(4):
            names = transport.endpoints(shard=shard)
            assert sorted(names) == sorted(router.servers_in_shard(shard))
            for name in names:
                assert transport.endpoint_shard(name) == shard
        assert sorted(transport.endpoints()) == sorted(sharded_system.server_names())
