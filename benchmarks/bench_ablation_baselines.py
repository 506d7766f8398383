"""Ablation A2 — CLASH vs the related-work load balancers (Section 2).

Compares three ways of handling the paper's highly skewed workload C on the
same server pool:

* CLASH (content-aware binary splitting),
* virtual-server migration (Rao et al. [13]) — moves whole virtual servers,
  so it cannot sub-divide a single hot key region, and
* power-of-2-choices placement (Byers et al. [5]) — balances object counts
  but scatters content-related objects across servers.

The printed table quantifies both the hotspot control and the content
clustering each scheme achieves.
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale
from repro.baselines.power_of_d import PowerOfDChoicesPlacer
from repro.baselines.virtual_server_lb import VirtualServerBalancer
from repro.dht.hashspace import HashSpace
from repro.dht.ring import ChordRing
from repro.experiments.reporting import format_table
from repro.keys.identifier import RandomKeyGenerator
from repro.keys.keygroup import KeyGroup
from repro.sim.loadmeasure import LoadMeasure
from repro.sim.simulator import FlowSimulator
from repro.util.rng import RandomStream
from repro.workload.distributions import workload_c
from repro.workload.scenario import PhasedScenario, ScenarioPhase


def _clash_row(scale) -> list:
    scenario = PhasedScenario([ScenarioPhase(spec=workload_c(), duration=scale.phase_duration)])
    result = FlowSimulator(scale.config(), scale.params(), scenario).run()
    phase = result.phase_summaries()[0]
    # Content clustering: how many servers share the hottest base value's keys.
    simulator_groups = result.final_active_groups
    return ["CLASH", phase.mean_max_load_percent, phase.mean_active_servers, simulator_groups]


def _virtual_server_row(scale) -> list:
    config = scale.config()
    measure = LoadMeasure(
        spec=workload_c(), total_rate=scale.source_count * workload_c().source_rate
    )
    balancer = VirtualServerBalancer(capacity=config.server_capacity)
    for index in range(scale.server_count):
        balancer.add_physical_node(f"m{index}")
    # Each of the 2^6 fixed key groups is one "virtual server" assigned by hash.
    rng = RandomStream(77)
    for prefix in range(1 << 6):
        group = KeyGroup(prefix=prefix, depth=6, width=config.key_bits)
        load = measure.group_rate(group)
        balancer.assign_virtual_server(f"m{rng.randint(0, scale.server_count - 1)}", f"v{prefix}", load)
    balancer.balance()
    utilisations = balancer.node_utilisations()
    active = sum(1 for value in balancer.node_loads().values() if value > 0)
    return [
        "virtual-server migration",
        100.0 * max(utilisations.values()),
        float(active),
        1 << 6,
    ]


def _power_of_d_row(scale) -> list:
    config = scale.config()
    ring = ChordRing.build(
        node_count=scale.server_count, space=HashSpace(bits=config.hash_bits), rng=RandomStream(3)
    )
    placer = PowerOfDChoicesPlacer(ring, choices=2)
    generator = RandomKeyGenerator(
        width=config.key_bits, base_bits=8, rng=RandomStream(5), base_weights=workload_c().weights
    )
    per_object_load = (
        scale.source_count * workload_c().source_rate / 5000.0
    )  # 5000 placed objects carry the full offered load
    keys = generator.generate_many(5000)
    placer.place_all(keys, load=per_object_load)
    loads = placer.server_loads()
    active = sum(1 for value in loads.values() if value > 0)
    # Clustering loss: how many servers the hottest base value's objects span.
    hottest_base = max(range(256), key=lambda value: workload_c().weights[value])
    related = [key for key in keys if key.prefix(8) == hottest_base]
    spanned = placer.servers_spanned(related)
    return [
        "power-of-2-choices",
        100.0 * max(loads.values()) / config.server_capacity,
        float(active),
        spanned,
    ]


def test_baseline_ablation_against_clash(benchmark):
    scale = bench_scale(phase_periods=2)

    def run_all():
        return [_clash_row(scale), _virtual_server_row(scale), _power_of_d_row(scale)]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["scheme", "max load %", "servers used", "groups/servers for hot content"],
            rows,
        )
    )
    clash_row, virtual_row, power_row = rows
    # CLASH bounds the hotspot better than whole-virtual-server migration,
    # which cannot split the single hot region.
    assert clash_row[1] < virtual_row[1]
    # Power-of-d uses (roughly) the whole pool; CLASH stays on a fraction.
    assert clash_row[2] < power_row[2]
