"""Property-based tests: random split/merge histories preserve global invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from reference.naive_clash import install_naive_balance

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.keys.identifier import IdentifierKey
from repro.util.rng import RandomStream

CONFIG = ClashConfig(
    key_bits=10,
    hash_bits=16,
    base_bits=4,
    initial_depth=2,
    min_depth=1,
    server_capacity=100.0,
)


def build_system(seed: int) -> ClashSystem:
    return ClashSystem.create(CONFIG, server_count=12, rng=RandomStream(seed))


@st.composite
def action_sequences(draw):
    """A list of (action, value) pairs: split at a key, or cool down and merge."""
    length = draw(st.integers(min_value=1, max_value=25))
    actions = []
    for _ in range(length):
        kind = draw(st.sampled_from(["split", "cooldown"]))
        value = draw(st.integers(min_value=0, max_value=(1 << CONFIG.key_bits) - 1))
        actions.append((kind, value))
    return actions


class TestProtocolInvariants:
    @given(seed=st.integers(min_value=0, max_value=50), actions=action_sequences())
    @settings(max_examples=40, deadline=None)
    def test_random_histories_preserve_invariants(self, seed, actions):
        system = build_system(seed)
        for kind, value in actions:
            key = IdentifierKey(value=value, width=CONFIG.key_bits)
            group, owner = system.find_active_group(key)
            if kind == "split":
                system.server(owner).set_group_rate(group, 3 * CONFIG.server_capacity)
                system.split_server(owner)
            else:
                for server in system.servers().values():
                    server.reset_interval()
                system.run_load_check()
            system.verify_invariants()

    @given(seed=st.integers(min_value=0, max_value=50), actions=action_sequences())
    @settings(max_examples=25, deadline=None)
    def test_client_resolution_matches_registry_after_history(self, seed, actions):
        system = build_system(seed)
        probe_rng = RandomStream(seed + 1000)
        for kind, value in actions:
            key = IdentifierKey(value=value, width=CONFIG.key_bits)
            group, owner = system.find_active_group(key)
            if kind == "split":
                system.server(owner).set_group_rate(group, 3 * CONFIG.server_capacity)
                system.split_server(owner)
            else:
                for server in system.servers().values():
                    server.reset_interval()
                system.run_load_check()
        client = system.make_client("prop-client")
        for _ in range(10):
            key = IdentifierKey(value=probe_rng.randbits(CONFIG.key_bits), width=CONFIG.key_bits)
            result = client.find_group(key, use_cache=False)
            registry_group, registry_owner = system.find_active_group(key)
            assert result.group == registry_group
            assert result.server == registry_owner
            assert result.probes <= CONFIG.key_bits + 1

    @given(seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_full_cooldown_returns_to_root_partition(self, seed):
        system = build_system(seed)
        rng = RandomStream(seed + 7)
        for _ in range(15):
            key = IdentifierKey(value=rng.randbits(CONFIG.key_bits), width=CONFIG.key_bits)
            group, owner = system.find_active_group(key)
            system.server(owner).set_group_rate(group, 3 * CONFIG.server_capacity)
            system.split_server(owner)
        for _ in range(30):
            for server in system.servers().values():
                server.reset_interval()
            report = system.run_load_check()
            if report.merge_count == 0:
                break
        assert len(system.active_groups()) == 1 << CONFIG.initial_depth
        system.verify_invariants()


# ---------------------------------------------------------------------- #
# The balance pass converges
# ---------------------------------------------------------------------- #

CONVERGENCE_BOUND = 40
"""Load checks a stationary workload may need before one neither splits nor
merges (measured worst case over the strategy below: 20)."""


def true_rate(group, cell_rates: list[float]) -> float:
    """The rate a stationary workload sends to ``group``: ``cell_rates`` gives
    the rate of each ``base_bits``-deep cell, uniform inside a cell."""
    bits = CONFIG.base_bits
    if group.depth <= bits:
        span = 1 << (bits - group.depth)
        return sum(cell_rates[group.prefix * span : (group.prefix + 1) * span])
    return cell_rates[group.prefix >> (group.depth - bits)] / (1 << (group.depth - bits))


@st.composite
def stationary_workloads(draw):
    """One to three skewed workloads, each well inside the deployment's capacity."""
    workloads = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        weights = draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 1.0, 5.0, 20.0, 60.0]),
                min_size=1 << CONFIG.base_bits,
                max_size=1 << CONFIG.base_bits,
            )
        )
        total = draw(st.floats(min_value=50.0, max_value=600.0))
        scale = total / (sum(weights) or 1.0)
        workloads.append([weight * scale for weight in weights])
    return workloads


class TestBalanceConverges:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        workloads=stationary_workloads(),
        naive=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_measured_rates_reach_a_quiet_check(self, seed, workloads, naive):
        """Repeating *measure the true rates → load check* settles, and no
        check along the way merges back a group it has just split — with the
        production balance pass and with the naive every-server scan."""
        system = build_system(seed)
        scan = install_naive_balance(system) if naive else None
        checks = 0
        for cell_rates in workloads:
            for _iteration in range(CONVERGENCE_BOUND):
                for group, owner in system.active_groups().items():
                    system.server(owner).set_group_rate(group, true_rate(group, cell_rates))
                report = system.run_load_check()
                checks += 1
                undone = {split.group for split in report.splits} & {
                    merge.parent_group for merge in report.merges
                }
                assert not undone, f"split and merged back in one check: {undone}"
                if report.split_count == 0 and report.merge_count == 0:
                    break
            else:
                raise AssertionError(
                    f"no quiet load check within {CONVERGENCE_BOUND} iterations"
                )
            system.verify_invariants()
        assert scan is None or scan.checks == checks
