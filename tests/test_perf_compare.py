"""``tools/perf_compare.py``: the verdict rule, the base-tree export and ``--layers``."""

from __future__ import annotations

import argparse
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perf_compare", ROOT / "tools" / "perf_compare.py"
)
perf_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_compare)

BASE = [17.0, 17.2, 16.9, 17.1, 17.3, 17.0, 16.8, 17.2, 17.1, 17.0]


def _verdict(base, change, better="higher", bound=0.25) -> str:
    return perf_compare.judge(base, change, better, bound)["verdict"]


class TestJudge:
    def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_base_spread(self):
        assert _verdict(BASE, [value * 1.8 for value in BASE]) == "gain"
        # Nine wins of ten still count…
        nine = [value * 1.8 for value in BASE[:9]] + [BASE[9] * 0.99]
        assert _verdict(BASE, nine) == "gain"
        # …eight do not, however large the medians' distance.
        eight = [value * 1.8 for value in BASE[:8]] + [16.0, 16.0]
        assert _verdict(BASE, eight) == "within bound"

    def test_winning_every_pair_inside_the_base_spread_is_no_gain(self):
        change = [value + 0.01 for value in BASE]
        summary = perf_compare.judge(BASE, change, "higher", 0.25)
        assert summary["wins"] == 10 and summary["verdict"] == "within bound"

    def test_ties_count_for_neither_side(self):
        summary = perf_compare.judge(BASE, list(BASE), "higher", 0.25)
        assert (summary["wins"], summary["losses"]) == (0, 0)
        assert summary["verdict"] == "within bound"

    def test_regression_is_the_median_worse_by_more_than_the_bound(self):
        assert _verdict(BASE, [value * 0.7 for value in BASE]) == "REGRESSION"
        assert _verdict(BASE, [value * 0.8 for value in BASE]) == "within bound"
        # Lower-is-better metrics flip the direction.
        assert _verdict(BASE, [value * 1.3 for value in BASE], better="lower") == "REGRESSION"
        assert _verdict(BASE, [value * 0.5 for value in BASE], better="lower") == "gain"

    def test_a_base_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [10.0, 20.0, 12.0, 19.0, 11.0, 21.0, 10.0, 20.0, 12.0, 18.0]
        change = [value + (1.0 if index % 2 else -1.0) for index, value in enumerate(noisy)]
        assert _verdict(noisy, change) == "unresolved"
        assert _verdict(noisy, [value + 0.5 for value in noisy]) == "unresolved"
        # …unless every run of the change reads better than every run of the base.
        lumpy = [0.1, 0.1, 0.1, 20.0, 20.0, 20.0, 20.0, 20.0, 20.0, 20.0]
        assert _verdict(lumpy, [20.5] * 10) == "within bound"
        assert _verdict(lumpy, [19.5] * 10) == "unresolved"

    def test_single_pair(self):
        summary = perf_compare.judge([2.0], [1.0], "lower", 0.25)
        assert summary["base"] == (2.0, 2.0, 2.0)
        assert summary["verdict"] == "gain"


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_export_base_unpacks_the_revision_under_this_trees_benchmark(tmp_path):
    perf_compare.export_base("HEAD", tmp_path)
    assert (tmp_path / "src" / "repro" / "core" / "protocol.py").is_file()
    assert (tmp_path / "BENCHMARK.json").read_bytes() == (ROOT / "BENCHMARK.json").read_bytes()
    for name in ("run.py", "harness.py", "workloads.py", "trace.py"):
        assert (tmp_path / "perf" / name).read_bytes() == (ROOT / "perf" / name).read_bytes()
    assert not (tmp_path / "perf" / "results").exists()


class TestLayers:
    ARGS = argparse.Namespace(seconds=1.0, mini=True)

    def test_one_tree_against_itself_agrees_and_prints_every_busy_layer(self, capsys):
        assert perf_compare.compare_layers("lookup_storm", ROOT, 11, self.ARGS)
        printed = capsys.readouterr().out
        assert "lookup_storm: traced, seed 11" in printed
        for layer in ("core.server_table.prefix_match", "core.client.find_group"):
            assert layer in printed
        assert "round digests identical" in printed
        assert "core.client.probes_per_lookup" in printed
        assert "DIFFER" not in printed

    @pytest.mark.parametrize(
        "field, other, flagged",
        [("counters", {"memo_hits": 8}, "DIFFERS"), ("digests", ["beef"], "round digests DIFFER")],
    )
    def test_a_moved_counter_or_digest_fails(self, monkeypatch, capsys, field, other, flagged):
        run = {
            "metrics": {"core.client.find_group.self_s": {"value": 0.5}},
            "digests": ["cafe"],
            "counters": {"memo_hits": 7},
        }
        runs = iter([run, {**run, field: other}])
        monkeypatch.setattr(perf_compare, "run_once", lambda *args, **kwargs: next(runs))
        assert not perf_compare.compare_layers("lookup_storm", ROOT, 11, self.ARGS)
        assert flagged in capsys.readouterr().out

    @pytest.mark.parametrize(
        "base_counters, change_counters, agrees",
        [
            ({"memo_hits": 7}, {"memo_hits": 7, "sampled_lookups": 40}, True),
            ({"memo_hits": 7, "sampled_lookups": 40}, {"memo_hits": 7}, False),
        ],
    )
    def test_a_counter_only_the_change_reports_is_new_not_a_difference(
        self, monkeypatch, capsys, base_counters, change_counters, agrees
    ):
        run = {"metrics": {}, "digests": ["cafe"]}
        runs = iter([{**run, "counters": base_counters}, {**run, "counters": change_counters}])
        monkeypatch.setattr(perf_compare, "run_once", lambda *args, **kwargs: next(runs))
        assert perf_compare.compare_layers("lookup_storm", ROOT, 11, self.ARGS) is agrees
        printed = capsys.readouterr().out
        assert ("  new" in printed) is agrees
        assert ("DIFFERS" in printed) is not agrees
