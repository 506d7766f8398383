"""Tests for server-failure recovery in the redirection layer."""

from __future__ import annotations

import re

import pytest

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.core.server_table import ServerTable
from repro.dht.partition import PartitionMap
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup
from repro.util.rng import RandomStream


@pytest.fixture
def system() -> ClashSystem:
    config = ClashConfig.small_scale()
    return ClashSystem.create(config, server_count=16, rng=RandomStream(55))


def _split_some_groups(system: ClashSystem, count: int, seed: int = 3) -> None:
    rng = RandomStream(seed)
    for _ in range(count):
        groups = list(system.active_groups().items())
        group, owner = groups[rng.randint(0, len(groups) - 1)]
        system.server(owner).set_group_rate(group, 3 * system.config.server_capacity)
        system.split_server(owner)


class TestServerFailure:
    def test_failure_of_unknown_server(self, system: ClashSystem):
        with pytest.raises(KeyError):
            system.handle_server_failure("ghost")

    def test_groups_are_reassigned_and_invariants_hold(self, system: ClashSystem):
        victim = system.active_servers()[0]
        orphaned = set(system.server(victim).active_groups())
        reassigned = system.handle_server_failure(victim)
        assert set(reassigned) == orphaned
        assert victim not in system.server_names()
        system.verify_invariants()
        for group, new_owner in reassigned.items():
            assert new_owner != victim
            assert system.owner_of_group(group) == new_owner

    def test_clients_resolve_every_key_after_failure(self, system: ClashSystem):
        _split_some_groups(system, 20)
        victim = system.active_servers()[0]
        system.handle_server_failure(victim)
        system.verify_invariants()
        client = system.make_client("post-failure")
        rng = RandomStream(9)
        for _ in range(25):
            key = IdentifierKey(
                value=rng.randbits(system.config.key_bits), width=system.config.key_bits
            )
            result = client.find_group(key, use_cache=False)
            registry_group, registry_owner = system.find_active_group(key)
            assert result.group == registry_group
            assert result.server == registry_owner

    def test_parent_bookkeeping_follows_the_new_child_owner(self, system: ClashSystem):
        # Force a split so that some surviving parent records a right child.
        key = IdentifierKey(value=0, width=system.config.key_bits)
        group, owner = system.find_active_group(key)
        system.server(owner).set_group_rate(group, 3 * system.config.server_capacity)
        outcome = system.split_server(owner)
        assert outcome is not None and outcome.shed
        child_server = outcome.child_server
        reassigned = system.handle_server_failure(child_server)
        assert outcome.right in reassigned
        new_owner = reassigned[outcome.right]
        parent_entry = system.server(outcome.parent_server).table.entry(outcome.group)
        assert parent_entry.right_child_id == new_owner
        # Consolidation still works through the re-assigned child.
        for server in system.servers().values():
            server.reset_interval()
        report = system.run_load_check()
        assert report.merge_count >= 0
        system.verify_invariants()

    def test_sequential_failures_keep_the_system_usable(self, system: ClashSystem):
        _split_some_groups(system, 15)
        for _round in range(4):
            victim = system.active_servers()[0]
            system.handle_server_failure(victim)
            system.verify_invariants()
        assert len(system.server_names()) == 12
        # Load checks still run without error on the reduced deployment.
        for server in system.servers().values():
            server.reset_interval()
        system.run_load_check()
        system.verify_invariants()

    def test_failure_counts_signalling_messages(self, system: ClashSystem):
        system.reset_messages()
        victim = system.active_servers()[0]
        orphaned = len(system.server(victim).active_groups())
        system.handle_server_failure(victim)
        assert system.messages.total() >= 2 * orphaned


class TestDepartedServerIsForgotten:
    """``_untrack_server`` and the oracle that watches it (invariant 6)."""

    def test_no_index_names_the_victim_after_a_failure(self, system: ClashSystem):
        _split_some_groups(system, 10)
        system.run_load_check()
        victim = system.active_servers()[0]
        system.handle_server_failure(victim)
        system.verify_invariants()
        assert victim not in system.sorted_server_names()

    @pytest.mark.parametrize(
        "index, forget",
        [
            ("_dirty_load_servers", lambda s, v: s._dirty_load_servers.add(v)),
            ("_dirty_split", lambda s, v: s._dirty_split.add(v)),
            ("_dirty_merge", lambda s, v: s._dirty_merge.add(v)),
            ("_dirty_reports", lambda s, v: s._dirty_reports.add(v)),
            ("_load_flags", lambda s, v: s._load_flags.__setitem__(v, (False, False))),
            ("_server_order", lambda s, v: s._server_order.__setitem__(v, -1)),
            ("_order_names", lambda s, v: s._order_names.__setitem__(-1, v)),
            ("_sorted_names", lambda s, v: s._sorted_names.append(v)),
            ("_delivered_reports", lambda s, v: s._delivered_reports.__setitem__(v, [])),
            ("_report_children", lambda s, v: s._report_children.__setitem__(v, set())),
            (
                "_report_children (children)",
                lambda s, v: s._report_children.setdefault(s.server_names()[0], set()).add(v),
            ),
        ],
    )
    def test_a_skipped_discard_fails_the_invariant_pass(
        self, system: ClashSystem, index, forget
    ):
        """Mutation check: leave the victim behind in one index — what a
        forgotten line in ``_untrack_server`` would do — and the oracle must
        name that index."""
        victim = system.active_servers()[0]
        system.handle_server_failure(victim)
        forget(system, victim)
        with pytest.raises(AssertionError, match=f"{re.escape(index)} still names departed"):
            system.verify_invariants()


def _shed_split(system: ClashSystem, group: KeyGroup):
    """Overload ``group`` and split it onto a remote right child."""
    owner = system.owner_of_group(group)
    system.server(owner).set_group_rate(group, 3 * system.config.server_capacity)
    outcome = system.split_server(owner)
    assert outcome is not None and outcome.shed
    return outcome


class TestFailureFollowsParentID:
    """Recovery asks only the server an orphan's ``ParentID`` names.

    An orphan's consolidation linkage survives the failure only when its own
    entry names a live parent whose inactive parent entry still records the
    failed node as the right child; everything else restarts as a root.
    """

    # 12-bit keys bootstrapped at depth 4 on four shards: sixteen root blocks,
    # so a partition map can move one block to a neighbouring shard and back.
    SHARDED = ClashConfig.small_scale().with_overrides(initial_depth=4)

    def _partition(self, cuts: list[int], version: int) -> PartitionMap:
        key_bits = self.SHARDED.key_bits
        block = 1 << (key_bits - self.SHARDED.initial_depth)
        return PartitionMap(
            boundaries=(0, *(cut * block for cut in cuts), 1 << key_bits),
            key_bits=key_bits,
            granularity_depth=self.SHARDED.initial_depth,
            version=version,
        )

    def test_a_stale_parent_entry_does_not_revive_a_root(self):
        """A rebalance round trip leaves a parent entry naming the child's
        server, while the child's own entry became a root: the orphan
        restarts as a root instead of re-linking to that stale entry."""
        system = ClashSystem.create(
            self.SHARDED, server_count=16, rng=RandomStream(99), shards=4
        )
        outcome = _shed_split(system, KeyGroup(prefix=3, depth=4, width=self.SHARDED.key_bits))
        parent, child, right = outcome.parent_server, outcome.child_server, outcome.right
        # Block 3 moves to shard 1 and back; both migrations restart it as roots.
        system.rebalance_partition(self._partition([3, 8, 12], version=1))
        system.rebalance_partition(self._partition([4, 8, 12], version=2))
        assert system.owner_of_group(right) == child
        assert system.server(child).table.entry(right).parent_id is None
        stale = system.server(parent).table.entry(outcome.group)
        assert not stale.active and stale.right_child_id == child
        system.verify_invariants()

        new_owner = system.handle_server_failure(child)[right]
        assert system.server(new_owner).table.entry(right).is_root
        assert stale.right_child_id == child, "the stale entry was re-linked"
        system.verify_invariants()

    @pytest.mark.parametrize("names", ["the victim", "a departed server"])
    def test_a_parent_id_naming_no_live_parent_restarts_as_root(
        self, system: ClashSystem, names
    ):
        """The parent entry naming the victim still stands elsewhere, but the
        orphan's ``ParentID`` does not point at it: no linkage to revive."""
        key = IdentifierKey(value=0, width=system.config.key_bits)
        outcome = _shed_split(system, system.find_active_group(key)[0])
        parent, child, right = outcome.parent_server, outcome.child_server, outcome.right
        if names == "the victim":
            named = child
        else:
            named = next(
                name for name in system.sorted_server_names() if name not in (parent, child)
            )
            system.handle_server_failure(named)
        system.server(child).table.entry(right).parent_id = named
        parent_entry = system.server(parent).table.entry(outcome.group)
        assert not parent_entry.active and parent_entry.right_child_id == child

        new_owner = system.handle_server_failure(child)[right]
        assert system.server(new_owner).table.entry(right).is_root
        assert parent_entry.right_child_id == child
        system.verify_invariants()

    def test_a_failure_probes_one_parent_table_per_orphan(self, system, monkeypatch):
        _split_some_groups(system, 40)
        victim = max(
            system.server_names(), key=lambda name: len(system.server(name).active_groups())
        )
        victim_table = system.server(victim).table
        orphans = len(system.server(victim).active_groups())
        assert orphans >= 3
        probed: list[ServerTable] = []
        contains = ServerTable.__contains__

        def counting(table, group):
            if table is not victim_table:
                probed.append(table)
            return contains(table, group)

        monkeypatch.setattr(ServerTable, "__contains__", counting)
        system.handle_server_failure(victim)
        assert len(probed) <= orphans
        system.verify_invariants()
