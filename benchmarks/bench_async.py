"""Benchmark — the async transport against inline and batching.

Runs the scaled reference workload (the ``scaled(factor=4)`` configuration
``make bench-check`` pins, the period-engine hot path) once per transport and
reports wall-clock side by side.  Two properties are asserted:

* **Metric equivalence** — the async run's ``PeriodSample`` stream is
  bit-identical to inline's (the same contract the golden test harness
  enforces at a smaller scale); batching must match too.
* **Bounded overhead** — deferring every envelope through a virtual-time
  calendar, and exchanging every load report in full every period (a
  transport that prices deliveries cannot diff them), costs real Python time;
  the async run must stay within ``ASYNC_OVERHEAD_BUDGET`` × the inline
  wall-clock so that cost cannot quietly grow.

Run via ``make bench-async`` (or ``pytest -q benchmarks/bench_async.py``).
"""

from __future__ import annotations

import time

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentScale
from repro.sim.simulator import FlowSimulator, SimulationResult

TRANSPORT_LINEUP = ("inline", "batching", "async")

ASYNC_OVERHEAD_BUDGET = 2.0
"""The async run may cost at most this multiple of inline wall-clock.

Measured 1.31× (0.41 s against 0.31 s, three runs within ±0.01 s): one heap
push and pop per envelope plus the full report exchange.  The budget leaves
half as much again for a noisy runner — both runs share the process, so noise
mostly cancels in the ratio — and is tight enough that the implementation this
one replaced (a private asyncio loop stepped once per exchange, 2.2× on the
same machine) would fail it."""


def _timed_run(transport: str, factor: int = 4, phase_periods: int = 4) -> tuple[SimulationResult, float]:
    scale = ExperimentScale.scaled(factor=factor, phase_periods=phase_periods)
    simulator = FlowSimulator(
        config=scale.config(),
        params=scale.params(transport=transport),
        scenario=scale.scenario(),
    )
    start = time.perf_counter()
    try:
        result = simulator.run()
    finally:
        simulator.transport.close()
    return result, time.perf_counter() - start


def _assert_streams_identical(result: SimulationResult, reference: SimulationResult) -> None:
    differences = result.diff(reference)
    assert not differences, "; ".join(differences)


def test_async_transport_wallclock_and_equivalence(benchmark):
    def run_lineup():
        return {kind: _timed_run(kind) for kind in TRANSPORT_LINEUP}

    lineup = benchmark.pedantic(run_lineup, rounds=1, iterations=1)
    inline_result, inline_time = lineup["inline"]
    print()
    print(
        format_table(
            ["transport", "wall-clock (s)", "vs inline", "splits", "merges", "final groups"],
            [
                [
                    kind,
                    f"{elapsed:.3f}",
                    f"{elapsed / inline_time:.2f}x",
                    result.total_splits,
                    result.total_merges,
                    result.final_active_groups,
                ]
                for kind, (result, elapsed) in lineup.items()
            ],
        )
    )
    for kind in ("batching", "async"):
        _assert_streams_identical(lineup[kind][0], inline_result)
    async_time = lineup["async"][1]
    assert async_time <= inline_time * ASYNC_OVERHEAD_BUDGET, (
        f"async transport took {async_time:.3f}s vs inline {inline_time:.3f}s "
        f"(> {ASYNC_OVERHEAD_BUDGET}x budget)"
    )
