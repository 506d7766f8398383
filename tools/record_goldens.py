#!/usr/bin/env python3
"""Re-record every committed simulated number, one way (``make goldens``).

For a change that moves simulated behaviour *on purpose*.  In order:

1. the flow half of ``tests/net/golden_seed.json`` is re-recorded through the
   surface ``tests/net/equivalence.py`` tests it with (``run_flow`` on the
   inline transport at the golden's own scale);
2. the ``depth_search`` half of that file and ``tests/net/golden_async_order.json``
   are regenerated and must come out byte-identical — neither runs a load
   check, so a difference there is a bug, not a re-record;
3. ``benchmarks/baseline.py --update`` and ``benchmarks/bench_paper_scale.py
   --update`` rewrite ``BENCH_BASELINE.json`` and ``BENCH_PAPER_SCALE.json``;
4. a before/after table of every recorded simulated number that moved is
   printed, for the PR description.

``--out-dir DIR`` writes the three files under ``DIR`` instead of over the
committed ones; ``--mini`` (the smoke test) additionally runs each benchmark
gate's cheapest benchmark for one round only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT, ROOT / "tests" / "net"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import equivalence  # noqa: E402  (tests/net/equivalence.py)
import test_async_order as async_order  # noqa: E402  (tests/net/test_async_order.py)
from benchmarks import baseline, bench_paper_scale  # noqa: E402

GOLDEN_SEED = equivalence.GOLDEN_PATH
RECORDED = {
    "golden_seed": GOLDEN_SEED,
    "bench_baseline": baseline.BASELINE_PATH,
    "bench_paper_scale": bench_paper_scale.PAPER_BASELINE_PATH,
}


def _dump(payload: dict) -> str:
    # The committed file's exact format (no trailing newline), so a re-record
    # diffs only in the numbers that moved.
    return json.dumps(payload, indent=1, sort_keys=True)


def record_flow(golden: dict) -> dict:
    """The flow half: one inline run of the A → B → C scenario at the golden's scale."""
    scale = equivalence.reference_scale(golden)
    result = equivalence.run_flow("inline", scale, scale.scenario())
    return {
        "total_splits": result.total_splits,
        "total_merges": result.total_merges,
        "final_active_groups": result.final_active_groups,
        "samples": [
            {
                "time": sample.time,
                "workload": sample.workload,
                "splits": sample.splits,
                "merges": sample.merges,
                "max_load_percent": round(sample.max_load_percent, 6),
                "messages_per_server_per_second": round(
                    sample.messages_per_server_per_second, 6
                ),
                "breakdown": {
                    category: round(rate, 6)
                    for category, rate in sample.message_breakdown.items()
                },
            }
            for sample in result.metrics.samples
        ],
    }


def record_golden_seed(path: pathlib.Path) -> None:
    golden = equivalence.load_golden()
    depth_search = equivalence.trace_depth_search(
        *equivalence.build_traced_system(equivalence.make_transport("inline")),
        lookups=len(golden["depth_search"]["lookups"]),
    )
    if _dump(depth_search) != _dump(golden["depth_search"]):
        raise SystemExit(
            "record_goldens: the depth_search half of golden_seed.json moved; it runs "
            "no load check, so this is a defect to find, not a number to re-record"
        )
    path.write_text(
        _dump({"scale": golden["scale"], "depth_search": depth_search, **record_flow(golden)})
    )


def check_async_order() -> None:
    if async_order.recording_text() != async_order.GOLDEN_PATH.read_text():
        raise SystemExit(
            "record_goldens: golden_async_order.json moved; the async delivery order "
            "is never re-recorded from here (see tests/net/test_async_order.py)"
        )


# ---------------------------------------------------------------------- #
# The before/after table
# ---------------------------------------------------------------------- #


def _flatten(prefix: str, value, rows: dict[str, float]) -> None:
    """One scalar per row: dicts recurse, series collapse to sum or peak and mean."""
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, inner, rows)
    elif isinstance(value, list):
        if value and all(isinstance(item, dict) for item in value):
            for key in value[0]:
                _flatten(f"{prefix}.{key}", [item[key] for item in value], rows)
        elif value and all(isinstance(item, int) for item in value):
            rows[f"{prefix} (sum)"] = sum(value)
        elif value and all(isinstance(item, float) for item in value):
            rows[f"{prefix} (peak)"] = max(value)
            rows[f"{prefix} (mean)"] = sum(value) / len(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        rows[prefix] = value


def simulated_numbers(paths: dict[str, pathlib.Path]) -> dict[str, float]:
    """Every recorded simulated number of the three files, flattened to rows."""
    rows: dict[str, float] = {}
    for label, path in paths.items():
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        if label == "golden_seed":
            data = {key: data[key] for key in data if key not in ("depth_search", "scale")}
        else:
            data = {
                name: recorded["metrics"] for name, recorded in data["benchmarks"].items()
            }
        _flatten(label, data, rows)
    return rows


def render_table(before: dict[str, float], after: dict[str, float]) -> str:
    def cell(value: float | None) -> str:
        if value is None:
            return "—"
        return f"{value:.4g}" if isinstance(value, float) else str(value)

    lines = ["| recorded number | before | after |", "|---|---|---|"]
    for name in sorted(before.keys() | after.keys()):
        if before.get(name) != after.get(name):
            lines.append(f"| `{name}` | {cell(before.get(name))} | {cell(after.get(name))} |")
    if len(lines) == 2:
        lines.append("| (no recorded simulated number moved) | | |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=None,
        help="write the recorded files under this directory, not over the committed ones",
    )
    parser.add_argument(
        "--mini",
        action="store_true",
        help="smoke mode: one round of each gate's cheapest benchmark only",
    )
    args = parser.parse_args(argv)
    if args.mini and args.out_dir is None:
        parser.error("--mini records partial files; give it an --out-dir")
    targets = dict(RECORDED)
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        targets = {label: args.out_dir / path.name for label, path in RECORDED.items()}
    before = simulated_numbers(RECORDED)
    record_golden_seed(targets["golden_seed"])
    check_async_order()
    for label, module, cheapest in (
        ("bench_baseline", baseline, "bench_depth_search"),
        ("bench_paper_scale", bench_paper_scale, "paper_scale"),
    ):
        benchmarks = module.BENCHMARKS
        if args.mini:
            benchmarks = {cheapest: benchmarks[cheapest]}
        baseline.update(
            targets[label],
            benchmarks,
            1 if args.mini else module.ROUNDS,
            tag=label.removeprefix("bench_").replace("_", "-"),
        )
    print()
    print(render_table(before, simulated_numbers(targets)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
