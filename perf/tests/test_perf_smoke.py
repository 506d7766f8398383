"""Every workload at miniature scale: all declared metrics, nothing left behind."""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import shutil
import subprocess
import sys

import pytest

from perf import harness
from perf.trace import program_targets, wrappers_installed
from perf.workloads import MINI, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_declares_what_the_harness_measures():
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == harness.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert SPEC["paths"] == ["perf"] and SPEC["command"] == ["python3", "perf/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_declared_metric(name, tmp_path):
    workload = WORKLOADS[name]
    originals = [vars(target.owner)[target.name] for target in program_targets()]

    timed = harness.measure_end_to_end(workload, 7, 0.0, MINI, rounds=1)
    assert timed.problems == [] and timed.failed_op_share == 0
    assert timed.attempted > 0
    assert set(timed.metrics) == set(_declared("end_to_end"))
    assert all(value > 0 for value in timed.metrics.values()), timed.metrics

    spans = tmp_path / "spans"
    traced = harness.measure_per_layer(workload, 7, MINI, spans_path=spans)
    assert traced.problems == [] and traced.failed_op_share == 0
    assert set(traced.metrics) == set(_declared("per_layer"))
    assert sum(v for k, v in traced.metrics.items() if k.endswith(".calls")) > 0
    assert traced.metrics["trace.coverage_share"] > 0.5
    assert spans.stat().st_size > 0
    # The same seed gives the same outputs, traced or not.
    assert set(timed.digests) == set(traced.digests)

    # The tracer put back every attribute it replaced; no shard worker is left.
    assert wrappers_installed(program_targets()) == []
    restored = [vars(target.owner)[target.name] for target in program_targets()]
    assert all(now is before for now, before in zip(restored, originals))
    assert multiprocessing.active_children() == []


def _run(cwd: pathlib.Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )  # fmt: skip


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_object_last(trace):
    finished = _run(
        ROOT, "--workload", "plane_sweep", "--seed", "3", "--seconds", "0.1",
        "--trace", trace, "--mini",
    )  # fmt: skip
    assert finished.returncode == 0, finished.stderr
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared


def test_command_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("results", "__pycache__")
    )
    finished = _run(tmp_path, "--workload", "paper_calm", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert finished.returncode != 0
    assert finished.stdout == ""
    assert "no program to measure" in finished.stderr
