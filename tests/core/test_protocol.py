"""Behavioural tests for the ClashSystem redirection layer."""

from __future__ import annotations

import pytest

from repro.app.query_store import Query
from repro.core.config import ClashConfig
from repro.core.messages import MessageCategory
from repro.core.protocol import ClashSystem
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup
from repro.util.rng import RandomStream


@pytest.fixture
def system() -> ClashSystem:
    return ClashSystem.create(
        ClashConfig.small_scale(), server_count=16, rng=RandomStream(31)
    )


def random_key(rng: RandomStream, config: ClashConfig) -> IdentifierKey:
    return IdentifierKey(value=rng.randbits(config.key_bits), width=config.key_bits)


class TestBootstrap:
    def test_bootstrap_partitions_key_space(self, system: ClashSystem):
        system.verify_invariants()
        groups = system.active_groups()
        assert len(groups) == 1 << system.config.initial_depth
        assert all(group.depth == system.config.initial_depth for group in groups)

    def test_root_entries_have_no_parent(self, system: ClashSystem):
        for group, owner in system.active_groups().items():
            assert system.server(owner).table.entry(group).is_root

    def test_groups_live_where_their_virtual_key_hashes(self, system: ClashSystem):
        for group, owner in system.active_groups().items():
            expected = system.ring.owner_of(
                system.ring.hash_function.hash_key(group.virtual_key)
            )
            assert owner == expected

    def test_double_bootstrap_rejected(self, system: ClashSystem):
        with pytest.raises(RuntimeError):
            system.bootstrap()

    def test_create_validation(self):
        with pytest.raises(ValueError):
            ClashSystem(ClashConfig.small_scale(), server_names=[])
        with pytest.raises(ValueError):
            ClashSystem(ClashConfig.small_scale(), server_names=["a", "a"])
        with pytest.raises(ValueError):
            ClashSystem.create(ClashConfig.small_scale(), server_count=0)


class TestResolution:
    def test_registry_and_client_resolution_agree(self, system: ClashSystem):
        rng = RandomStream(5)
        client = system.make_client("c0")
        for _ in range(30):
            key = random_key(rng, system.config)
            registry_group, registry_owner = system.find_active_group(key)
            result = client.find_group(key, use_cache=False)
            assert result.group == registry_group
            assert result.server == registry_owner

    def test_route_accept_object_charges_messages(self, system: ClashSystem):
        key = IdentifierKey(value=0, width=system.config.key_bits)
        system.reset_messages()
        _reply, cost = system.route_accept_object(key, system.config.initial_depth, "c0")
        assert cost >= 2
        assert system.messages.counts[MessageCategory.LOOKUP] == 2

    def test_route_accept_object_depth_validation(self, system: ClashSystem):
        key = IdentifierKey(value=0, width=system.config.key_bits)
        with pytest.raises(ValueError):
            system.route_accept_object(key, system.config.key_bits + 1, "c0")

    def test_owner_of_group_unknown(self, system: ClashSystem):
        bogus = KeyGroup(prefix=0, depth=system.config.key_bits, width=system.config.key_bits)
        with pytest.raises(KeyError):
            system.owner_of_group(bogus)

    def test_counting_routing_hops_increases_cost(self):
        config = ClashConfig.small_scale().with_overrides(count_routing_hops=True)
        system = ClashSystem.create(config, server_count=16, rng=RandomStream(31))
        key = IdentifierKey(value=1234, width=config.key_bits)
        _reply, cost = system.route_accept_object(key, config.initial_depth, "c0")
        assert cost >= 2
        assert (
            system.messages.counts[MessageCategory.DHT_ROUTING]
            + system.messages.counts[MessageCategory.LOOKUP]
            == cost
        )


class TestProbeValidation:
    """A malformed probe is refused before it is routed, memoised or counted."""

    @staticmethod
    def observable(system: ClashSystem) -> tuple:
        return (
            system.transport.envelopes_delivered,
            system.dht_stats(),
            system.messages.snapshot(),
        )

    @pytest.mark.parametrize("offset", [-3, -1, 1, 4])
    def test_a_key_of_another_width_is_refused_before_it_is_routed(
        self, system: ClashSystem, offset: int
    ):
        width = system.config.key_bits + offset
        before = self.observable(system)
        with pytest.raises(ValueError, match="key width"):
            system.route_accept_object(IdentifierKey(value=5, width=width), 3, "c0")
        assert self.observable(system) == before

    @pytest.mark.parametrize("depth_offset", [-1, 1, 10])
    def test_an_estimated_depth_outside_the_key_is_refused(
        self, system: ClashSystem, depth_offset: int
    ):
        key_bits = system.config.key_bits
        depth = -1 if depth_offset < 0 else key_bits + depth_offset
        key = IdentifierKey(value=5, width=key_bits)
        before = self.observable(system)
        with pytest.raises(ValueError, match="estimated_depth"):
            system.route_accept_object(key, depth, "c0")
        assert self.observable(system) == before

    @pytest.mark.parametrize("depth", [True, 2.0, "3"])
    def test_an_estimated_depth_that_is_not_an_int_is_refused(self, system: ClashSystem, depth):
        key = IdentifierKey(value=5, width=system.config.key_bits)
        before = self.observable(system)
        with pytest.raises(TypeError):
            system.route_accept_object(key, depth, "c0")
        assert self.observable(system) == before

    def test_both_ends_of_the_depth_range_are_accepted(self, system: ClashSystem):
        key = IdentifierKey(value=5, width=system.config.key_bits)
        for depth in (0, system.config.key_bits):
            reply, cost = system.route_accept_object(key, depth, "c0")
            assert reply.server in system.server_names()
            assert cost >= 2


class TestSplitting:
    def test_split_server_transfers_right_child(self, system: ClashSystem):
        group, owner = system.find_active_group(
            IdentifierKey(value=0, width=system.config.key_bits)
        )
        system.server(owner).set_group_rate(group, 2 * system.config.server_capacity)
        outcome = system.split_server(owner)
        assert outcome is not None and outcome.shed
        assert outcome.left in system.active_groups()
        assert outcome.right in system.active_groups()
        assert system.owner_of_group(outcome.right) == outcome.child_server
        assert outcome.child_server != owner or outcome.self_collisions > 0
        system.verify_invariants()

    def test_split_moves_queries_of_right_child(self, system: ClashSystem):
        config = system.config
        group, owner = system.find_active_group(IdentifierKey(value=0, width=config.key_bits))
        server = system.server(owner)
        left, right = group.split()
        left_key = left.virtual_key
        right_key = right.virtual_key
        server.store_query(Query(query_id=1, key=left_key))
        server.store_query(Query(query_id=2, key=right_key))
        server.set_group_rate(group, 2 * config.server_capacity)
        outcome = system.split_server(owner)
        assert outcome.shed
        child = system.server(outcome.child_server)
        assert outcome.migrated_queries == 1
        assert 2 in child.query_store
        assert 1 in server.query_store
        assert system.messages.counts[MessageCategory.STATE_TRANSFER] == 1

    def test_split_server_with_nothing_to_split(self, system: ClashSystem):
        # A server that manages no group cannot split.
        idle = next(
            name for name in system.server_names() if not system.server(name).is_active()
        )
        assert system.split_server(idle) is None

    def test_repeated_splits_preserve_invariants(self, system: ClashSystem):
        rng = RandomStream(17)
        for _ in range(100):
            groups = list(system.active_groups().items())
            group, owner = groups[rng.randint(0, len(groups) - 1)]
            system.server(owner).set_group_rate(group, 2 * system.config.server_capacity)
            system.split_server(owner)
        system.verify_invariants()
        # Clients still resolve every key correctly afterwards.
        client = system.make_client("after-splits")
        for _ in range(20):
            key = random_key(rng, system.config)
            result = client.find_group(key, use_cache=False)
            assert result.group == system.find_active_group(key)[0]

    def test_split_respects_max_depth(self):
        config = ClashConfig.small_scale().with_overrides(max_depth=3, initial_depth=3)
        system = ClashSystem.create(config, server_count=8, rng=RandomStream(3))
        group, owner = system.find_active_group(IdentifierKey(value=0, width=config.key_bits))
        system.server(owner).set_group_rate(group, 10 * config.server_capacity)
        assert system.split_server(owner) is None
        system.verify_invariants()


    def test_depth_limit_self_collision_changes_and_charges_nothing(self):
        """The only candidate's right child maps back to the splitter and
        sits at the depth limit: no local split is left behind, so there is
        no outcome to report — a load check must not count it as a split."""
        config = ClashConfig.small_scale().with_overrides(max_depth=3)
        system = ClashSystem.create(config, server_count=1, rng=RandomStream(3))
        server = system.server("s0")
        for group in server.active_groups():
            server.set_group_rate(group, config.server_capacity)
        groups_before = system.active_groups()
        assert system.split_server("s0") is None
        assert system.active_groups() == groups_before
        assert system.messages.total() == 0.0
        assert system.drain_touched_groups() == set(groups_before)  # bootstrap only
        report = system.run_load_check(max_splits_per_server=4)
        assert report.split_count == 0 and server.splits_performed == 0
        system.verify_invariants()


class TestUnmeasuredGroups:
    """A group taken on since the last measurement has no load to report."""

    def _reporters(self, system: ClashSystem) -> set[KeyGroup]:
        return {
            report.group
            for name in system.server_names()
            for _parent, report in system.server(name).addressed_load_reports()
        }

    def _force_split(self, system: ClashSystem):
        group, owner = system.find_active_group(
            IdentifierKey(value=0, width=system.config.key_bits)
        )
        system.server(owner).set_group_rate(group, 2 * system.config.server_capacity)
        outcome = system.split_server(owner)
        assert outcome is not None and outcome.shed
        return outcome

    def test_right_child_reports_once_measured(self, system: ClashSystem):
        outcome = self._force_split(system)
        child = system.server(outcome.child_server)
        assert outcome.right not in self._reporters(system)
        child.set_group_rate(outcome.right, 1.0)
        assert outcome.right in self._reporters(system)

    def test_right_child_reports_after_a_quiet_interval(self, system: ClashSystem):
        outcome = self._force_split(system)
        system.server(outcome.child_server).reset_interval()
        assert outcome.right in self._reporters(system)

    def test_split_is_not_merged_back_by_the_check_that_made_it(self, system: ClashSystem):
        group, owner = system.find_active_group(
            IdentifierKey(value=0, width=system.config.key_bits)
        )
        # Just over the overload threshold: the split leaves the parent
        # under-loaded with a left half that, next to a right half reporting
        # zero, would look cold enough to take straight back.
        system.server(owner).set_group_rate(group, 0.95 * system.config.server_capacity)
        report = system.run_load_check()
        assert report.split_count == 1 and report.merge_count == 0
        assert group not in system.active_groups()

    def test_group_moved_by_a_join_reports_once_measured(self, system: ClashSystem):
        outcome = self._force_split(system)
        system.server(outcome.child_server).set_group_rate(outcome.right, 1.0)
        assert outcome.right in self._reporters(system)
        # Land the joiner exactly on the right child's ring point: it takes
        # the group over, consolidation linkage and all.
        node_id = system.ring.hash_function.hash_key(outcome.right.virtual_key)
        moved = system.handle_server_join("joiner", node_id=node_id)
        assert outcome.right in moved
        joiner = system.server("joiner")
        assert joiner.table.entry(outcome.right).parent_id == outcome.parent_server
        assert outcome.right not in self._reporters(system)
        joiner.set_group_rate(outcome.right, 1.0)
        assert outcome.right in self._reporters(system)

    def test_group_rehomed_as_root_is_unmeasured(self, system: ClashSystem):
        outcome = self._force_split(system)
        child = system.server(outcome.child_server)
        child.set_group_rate(outcome.right, 1.0)
        queries = child.release_group(outcome.right)
        new_owner = system.server(system._restart_as_root(outcome.right, queries))
        assert new_owner.table.entry(outcome.right).is_root
        assert outcome.right in new_owner._unmeasured
        new_owner.set_group_rate(outcome.right, 1.0)
        assert outcome.right not in new_owner._unmeasured
        system.verify_invariants()

    def test_parent_reactivated_by_a_merge_reports_once_measured(self, system: ClashSystem):
        first = self._force_split(system)
        child = system.server(first.child_server)
        # The child sheds half of what it was given, then takes it back.
        child.set_group_rate(first.right, 2 * system.config.server_capacity)
        second = system.split_server(first.child_server)
        assert second is not None and second.shed and second.group == first.right
        child.set_group_rate(second.left, 1.0)
        system.server(second.child_server).set_group_rate(second.right, 1.0)
        system.server(first.parent_server).set_group_rate(
            first.left, 0.8 * system.config.server_capacity
        )
        report = system.run_load_check()
        assert [merge.parent_group for merge in report.merges] == [first.right]
        assert first.right not in self._reporters(system)
        child.set_group_rate(first.right, 2.0)
        assert first.right in self._reporters(system)


class TestConsolidation:
    def _force_split(self, system: ClashSystem, value: int = 0):
        key = IdentifierKey(value=value, width=system.config.key_bits)
        group, owner = system.find_active_group(key)
        system.server(owner).set_group_rate(group, 2 * system.config.server_capacity)
        return system.split_server(owner)

    def test_cold_children_merge_back(self, system: ClashSystem):
        outcome = self._force_split(system)
        assert outcome.shed
        before = len(system.active_groups())
        for server in system.servers().values():
            server.reset_interval()
        report = system.run_load_check()
        assert report.merge_count >= 1
        assert len(system.active_groups()) < before
        assert outcome.group in system.active_groups()
        system.verify_invariants()

    def test_merge_returns_queries_to_parent(self, system: ClashSystem):
        config = system.config
        key = IdentifierKey(value=0, width=config.key_bits)
        group, owner = system.find_active_group(key)
        server = system.server(owner)
        right_key = group.split()[1].virtual_key
        server.store_query(Query(query_id=42, key=right_key))
        server.set_group_rate(group, 2 * config.server_capacity)
        outcome = system.split_server(owner)
        assert outcome.migrated_queries == 1
        for each in system.servers().values():
            each.reset_interval()
        system.run_load_check()
        assert 42 in system.server(outcome.parent_server).query_store

    def test_consolidation_does_not_collapse_roots(self, system: ClashSystem):
        for server in system.servers().values():
            server.reset_interval()
        for _ in range(5):
            system.run_load_check()
        groups = system.active_groups()
        assert all(group.depth >= system.config.initial_depth for group in groups)
        assert len(groups) == 1 << system.config.initial_depth
        system.verify_invariants()

    def test_hot_children_do_not_merge(self, system: ClashSystem):
        outcome = self._force_split(system)
        left_owner = system.server(outcome.parent_server)
        right_owner = system.server(outcome.child_server)
        left_owner.reset_interval()
        right_owner.reset_interval()
        left_owner.set_group_rate(outcome.left, 0.6 * system.config.server_capacity)
        right_owner.set_group_rate(outcome.right, 0.6 * system.config.server_capacity)
        report = system.run_load_check()
        assert outcome.left in system.active_groups()
        assert outcome.right in system.active_groups()


class TestLoadCheck:
    def test_overloaded_servers_shed_below_threshold(self, system: ClashSystem):
        config = system.config
        # Pile load onto every group of one server.
        owner = system.active_servers()[0]
        server = system.server(owner)
        for group in server.active_groups():
            server.set_group_rate(group, 1.2 * config.server_capacity)
        report = system.run_load_check(max_splits_per_server=10)
        assert report.split_count >= 1
        system.verify_invariants()

    def test_messages_accumulate_during_load_check(self, system: ClashSystem):
        self_splits = system.run_load_check()
        # With no load at all the only traffic is (possibly) load reports.
        assert system.messages.total() >= 0.0

    def test_describe_summarises_system(self, system: ClashSystem):
        snapshot = system.describe()
        assert snapshot["servers"] == 16
        assert snapshot["active_groups"] == 1 << system.config.initial_depth
