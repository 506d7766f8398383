"""Benchmark smoke test (``pytest -m bench_smoke``).

The benchmark files under ``benchmarks/`` are not collected by the regular
test run (they are named ``bench_*.py``), so an import error or a drifted API
there would only surface when someone runs the full suite.  This smoke test
imports every benchmark module and executes one tiny benchmark configuration,
keeping the suite import-clean at tier-1 cost.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def _import_from_path(path: pathlib.Path):
    # ``benchmarks`` is importable as a namespace package only when the repo
    # root is on sys.path; the bench modules import their shared conftest
    # through it.
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    name = f"benchmarks.{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Register before executing (the documented importlib recipe): dataclass
    # decorators resolve string annotations through sys.modules[__module__],
    # which is None for an unregistered module.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.bench_smoke
def test_every_benchmark_module_imports_cleanly():
    paths = sorted(BENCH_DIR.glob("bench_*.py"))
    assert paths, "no benchmark modules found"
    for path in paths:
        _import_from_path(path)


@pytest.mark.bench_smoke
def test_tiny_async_benchmark_config_executes():
    """One miniature async-vs-inline run of the bench_async workload."""
    bench = _import_from_path(BENCH_DIR / "bench_async.py")

    inline_result, _ = bench._timed_run("inline", factor=50, phase_periods=2)
    async_result, _ = bench._timed_run("async", factor=50, phase_periods=2)
    bench._assert_streams_identical(async_result, inline_result)


@pytest.mark.bench_smoke
def test_tiny_sharded_benchmark_config_executes():
    """One miniature sharded-vs-single-ring run of the bench_sharded workload."""
    bench = _import_from_path(BENCH_DIR / "bench_sharded.py")

    single_result, _ = bench._timed_run(1, factor=50, phase_periods=2)
    sharded_result, _ = bench._timed_run(4, factor=50, phase_periods=2)
    assert single_result.total_splits > 0
    assert all(s.shard_count == 4 for s in sharded_result.metrics.samples)
    # Peak-to-mean per-shard load is >= 1 whenever a period carries load
    # (0.0 is the documented idle-period value).
    assert all(
        s.cross_shard_imbalance >= 1.0 or s.cross_shard_imbalance == 0.0
        for s in sharded_result.metrics.samples
    )


@pytest.mark.bench_smoke
def test_tiny_socket_benchmark_config_executes():
    """One miniature multi-process run of the bench_socket workload.

    Asserts the two portable halves of the benchmark's contract — the
    socket stream is bit-identical to inline and the wire plane really ran
    inside worker processes — plus clean worker teardown, so CI can never
    hang on a leaked child process.
    """
    import multiprocessing

    bench = _import_from_path(BENCH_DIR / "bench_socket.py")

    inline_result, _ = bench._timed_run("inline", factor=50, phase_periods=2)
    socket_result, socket_sample = bench._timed_run("socket", factor=50, phase_periods=2)
    bench._assert_streams_identical(socket_result, inline_result)
    assert socket_sample.worker_envelopes > 0
    assert multiprocessing.active_children() == []


@pytest.mark.bench_smoke
def test_tiny_paper_scale_benchmark_config_executes():
    """The paper-scale benchmark machinery on a miniature configuration.

    Runs the same ``_run``/``_metrics`` pipeline ``make bench-paper`` gates,
    but at scaled(factor=100) so it executes at tier-1 cost on every CI run.
    """
    import dataclasses

    bench = _import_from_path(BENCH_DIR / "bench_paper_scale.py")
    from repro.experiments.runner import ExperimentScale

    tiny = dataclasses.replace(
        ExperimentScale.scaled(factor=100, phase_periods=2),
        join_rate=bench.CHURN_RATE,
        fail_rate=bench.CHURN_RATE,
    )
    metrics = bench._metrics(bench._run(tiny))
    assert metrics["periods"] == 6
    assert metrics["total_splits"] > 0
    # The routing-tier work counters ride along as drift-gated metrics.
    assert metrics["ring_full_rebuilds"] == 1
    assert metrics["ring_finger_recomputations"] > 0
    assert metrics["memo_hits"] > 0


@pytest.mark.bench_smoke
def test_tiny_depth_search_benchmark_config_executes():
    """One miniature run of the depth-search benchmark workload."""
    bench = _import_from_path(BENCH_DIR / "bench_depth_search.py")
    from repro.keys.identifier import RandomKeyGenerator
    from repro.util.rng import RandomStream
    from repro.workload.distributions import workload_b

    system = bench._build_skewed_system(seed=13, splits=30)
    client = system.make_client("smoke-client")
    generator = RandomKeyGenerator(
        width=system.config.key_bits,
        base_bits=8,
        rng=RandomStream(99),
        base_weights=workload_b().weights,
    )
    probes = [
        client.find_group(generator.generate(), use_cache=False).probes
        for _ in range(25)
    ]
    assert all(1 <= count <= system.config.key_bits + 1 for count in probes)


@pytest.mark.bench_smoke
def test_paper_claims_gate_names_each_broken_row():
    """``bench_paper_scale.py --check``'s claim rows (docs/PAPER_CLAIMS.md) on
    synthetic metrics: a clean run passes, each broken row is reported, and a
    churned run may reshape in a phase's last period."""
    bench = _import_from_path(BENCH_DIR / "bench_paper_scale.py")
    quiet = {"end_load_percent": 89.8, "end_splits": 0, "end_merges": 0}
    clean = {"balance_cap_hits": 0, "overload_percent": 90.0, "phases": {"A": quiet, "B": quiet}}
    assert bench.paper_claim_failures(clean, churn_free=True) == []
    livelocked = {
        "balance_cap_hits": 48,
        "overload_percent": 90.0,
        "phases": {"A": quiet, "B": {"end_load_percent": 107.1, "end_splits": 240, "end_merges": 240}},
    }
    failures = bench.paper_claim_failures(livelocked, churn_free=True)
    assert len(failures) == 3
    assert any("48 period(s)" in failure for failure in failures)
    assert any("107.1" in failure for failure in failures)
    assert any("240 splits, 240 merges" in failure for failure in failures)
    reshaping = dict(clean, phases={"C": dict(quiet, end_splits=2)})
    assert bench.paper_claim_failures(reshaping, churn_free=False) == []
    assert len(bench.paper_claim_failures(reshaping, churn_free=True)) == 1


@pytest.mark.bench_smoke
def test_paper_claims_gate_bounds_the_probes_per_lookup():
    """Row 8: a depth search averages at most log2(key_bits) + 2 probes
    (6.58 at 24-bit keys), churned or not."""
    bench = _import_from_path(BENCH_DIR / "bench_paper_scale.py")
    quiet = {"end_load_percent": 80.0, "end_splits": 0, "end_merges": 0}
    run = {"balance_cap_hits": 0, "overload_percent": 90.0, "phases": {"A": quiet}, "key_bits": 24}
    for churn_free in (True, False):
        assert bench.paper_claim_failures(dict(run, probes_per_lookup=6.5), churn_free) == []
        failures = bench.paper_claim_failures(dict(run, probes_per_lookup=6.6), churn_free)
        assert failures == [
            "a depth search takes 6.60 probes on average, over log2(key_bits) + 2 = 6.58"
        ]


@pytest.mark.bench_smoke
def test_paper_scale_metrics_record_the_sampled_depth_searches():
    """``_metrics`` turns the simulator's two lookup notes into the row-8 number."""
    bench = _import_from_path(BENCH_DIR / "bench_paper_scale.py")
    from repro.experiments.runner import ExperimentScale

    scale = ExperimentScale.scaled(factor=100, phase_periods=1)
    metrics = bench._metrics(bench._run(scale))
    assert metrics["key_bits"] == scale.config().key_bits
    assert metrics["sampled_lookups"] > 0
    assert metrics["probes_per_lookup"] == round(
        metrics["sampled_lookup_probes"] / metrics["sampled_lookups"], 9
    )
    assert 1.0 <= metrics["probes_per_lookup"] <= metrics["key_bits"] + 1
