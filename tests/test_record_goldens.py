"""``tools/record_goldens.py``: the one way to re-record, smoke-run with ``--mini``."""

from __future__ import annotations

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "record_goldens", ROOT / "tools" / "record_goldens.py"
)
record_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_goldens)


def test_mini_run_records_what_is_committed(tmp_path, capsys):
    assert record_goldens.main(["--mini", "--out-dir", str(tmp_path)]) == 0
    # The committed golden is exactly what the recorder writes: both halves,
    # byte for byte (the depth-search half is additionally asserted unmoved
    # by the tool itself, as is golden_async_order.json).
    recorded = (tmp_path / "golden_seed.json").read_bytes()
    assert recorded == record_goldens.GOLDEN_SEED.read_bytes()
    # One benchmark a gate, and it agrees with the committed drift gate.
    for name, benchmark in (
        ("BENCH_BASELINE.json", "bench_depth_search"),
        ("BENCH_PAPER_SCALE.json", "paper_scale"),
    ):
        mini = json.loads((tmp_path / name).read_text())["benchmarks"]
        committed = json.loads((ROOT / name).read_text())["benchmarks"]
        assert list(mini) == [benchmark]
        assert mini[benchmark]["metrics"] == committed[benchmark]["metrics"]
    table = capsys.readouterr().out
    assert "| recorded number | before | after |" in table


def test_table_lists_only_the_numbers_that_moved():
    before = {"a.splits": 600, "a.peak": 107.1, "a.same": 3}
    after = {"a.splits": 117, "a.peak": 89.96, "a.same": 3, "a.new": 0}
    table = record_goldens.render_table(before, after)
    assert "| `a.splits` | 600 | 117 |" in table
    assert "| `a.peak` | 107.1 | 89.96 |" in table
    assert "| `a.new` | — | 0 |" in table
    assert "a.same" not in table
    assert "no recorded simulated number moved" in record_goldens.render_table(before, before)


def test_series_collapse_to_sums_peaks_and_means():
    rows: dict[str, float] = {}
    record_goldens._flatten(
        "run",
        {"splits": [1, 2, 3], "load": [50.0, 90.0], "phases": {"A": {"merges": 4}}, "tag": "x"},
        rows,
    )
    assert rows == {
        "run.splits (sum)": 6,
        "run.load (peak)": 90.0,
        "run.load (mean)": 70.0,
        "run.phases.A.merges": 4,
    }
