#!/usr/bin/env python3
"""Compare this tree against a base revision on the ``perf/`` benchmark.

Automates the "Comparing two commits" recipe of ``perf/README.md``:

1. ``git archive`` the base revision into a temporary directory and copy this
   tree's ``perf/`` and ``BENCHMARK.json`` over it, so both sides run the
   identical benchmark code;
2. per workload, run ``--pairs`` pairs of ``perf/run.py --workload W --seed S
   --trace 0`` — the same seed on both sides of a pair, a different seed per
   pair, alternating which side goes first;
3. print, per end-to-end metric, each side's median and quartiles, the pairs
   the change won, and a verdict: ``gain`` (the change wins at least nine
   tenths of the pairs, ties counting for neither, and the medians lie further
   apart than the base's own quartile distance), ``REGRESSION`` (the change's
   median is worse than the base's by more than the metric's bound in
   ``BENCHMARK.json``), ``unresolved`` (the base's quartile spread is wider
   than the bound, unless every run of the change reads better than every run
   of the base) or ``within bound``.

With ``--layers`` each workload's pairs are followed by the guide's "use the
trace to show where the saving appears" step: one traced run a side
(``--trace 1``) on the seed after the last pair's, printed side by side per
layer — self time, its share of the traced round, calls — with the simulated
counters and the round digests, which a pure speed-up leaves identical.

The exit status is non-zero when any metric regressed, the change failed a
larger share of its operations than the base, or (``--layers``) a simulated
counter or a round digest differs between the sides (a counter only the
change reports is printed as new, not as a difference).

Usage::

    python3 tools/perf_compare.py --base REV [--workload NAME ...] [--pairs 10]
                                  [--seed FIRST_SEED] [--seconds S] [--mini]
                                  [--layers]
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def export_base(revision: str, target: pathlib.Path) -> None:
    """Unpack ``revision`` into ``target`` and give it this tree's benchmark."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=REPO_ROOT,
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    shutil.rmtree(target / "perf", ignore_errors=True)
    shutil.copytree(
        REPO_ROOT / "perf",
        target / "perf",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    shutil.copy2(REPO_ROOT / "BENCHMARK.json", target / "BENCHMARK.json")


def run_once(tree: pathlib.Path, workload: str, seed: int, args, trace: int = 0) -> dict:
    """One measurement in ``tree`` (timed, or traced with ``trace=1``): the
    result object plus the round digests and the simulated counters."""
    command = [
        sys.executable, "perf/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.mini:
        command.append("--mini")
    finished = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = finished.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        details = json.loads(next(l for l in lines if l.startswith("#details "))[9:])
    except (IndexError, StopIteration, json.JSONDecodeError):
        sys.exit(
            f"perf_compare: {workload} (seed {seed}) printed no result in {tree}; "
            f"exit code {finished.returncode}\n{finished.stdout}\n{finished.stderr}"
        )
    result["digests"] = details.get("digests", [])
    result["counters"] = details.get("counters", {})
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def judge(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pair-wise and median comparison of one metric (values are pair-aligned)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    improvement = sign * (change_median - base_median)
    pairs = len(base)
    if improvement < -bound * abs(base_median):
        verdict = "REGRESSION"
    elif wins >= 0.9 * pairs and improvement > base_q3 - base_q1:
        verdict = "gain"
    elif (
        base_median
        and (base_q3 - base_q1) / abs(base_median) > bound
        and min(sign * value for value in change) <= max(sign * value for value in base)
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "base": (base_q1, base_median, base_q3),
        "change": (change_q1, change_median, change_q3),
        "wins": wins,
        "losses": losses,
        "ratio": change_median / base_median if base_median else float("nan"),
        "verdict": verdict,
    }


def compare_workload(workload: str, base_tree: pathlib.Path, spec: dict, args) -> bool:
    """Run and print one workload's pairs; True when nothing got worse."""
    sides = {"base": base_tree, "change": REPO_ROOT}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed, args))
        base_run, change_run = runs["base"][-1], runs["change"][-1]
        common = min(len(base_run["digests"]), len(change_run["digests"]))
        same = base_run["digests"][:common] == change_run["digests"][:common]
        print(
            f"  pair {pair + 1:2d}  seed {seed}  first: {order[0]:6s}  "
            + "  ".join(
                f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.6g}/s"
                for side in ("base", "change")
            )
            + ("" if same else "  OUTPUT DIGESTS DIFFER"),
            flush=True,
        )
    ok = True
    print(f"{workload}: {args.pairs} pairs, q1 / median / q3 per side")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        summary = judge(
            [run["metrics"][name]["value"] for run in runs["base"]],
            [run["metrics"][name]["value"] for run in runs["change"]],
            metric["better"],
            metric["bound"],
        )
        ok = ok and summary["verdict"] != "REGRESSION"
        print(
            f"  {name:12s} {metric['unit']:4s} "
            f"base {' / '.join(f'{v:.5g}' for v in summary['base']):32s} "
            f"change {' / '.join(f'{v:.5g}' for v in summary['change']):32s} "
            f"x{summary['ratio']:.3f}  won {summary['wins']}/{args.pairs} "
            f"lost {summary['losses']}  {summary['verdict']}"
        )
    shares = {}
    for side in ("base", "change"):
        attempted = sum(run["attempted"] for run in runs[side])
        failed = sum(run["failed"] for run in runs[side])
        shares[side] = failed / attempted if attempted else 1.0
        print(f"  {side}: {failed} of {attempted} operations failed")
    return ok and shares["change"] <= shares["base"]


def compare_layers(workload: str, base_tree: pathlib.Path, seed: int, args) -> bool:
    """One traced run a side on ``seed``, printed layer by layer; True when the
    simulated counters and the round digests are the same on both sides."""
    base = run_once(base_tree, workload, seed, args, trace=1)
    change = run_once(REPO_ROOT, workload, seed, args, trace=1)

    def value(run: dict, name: str) -> float:
        return run["metrics"].get(name, {}).get("value", 0.0)

    layers = [name[: -len(".self_s")] for name in base["metrics"] if name.endswith(".self_s")]
    rounds = [sum(value(run, f"{layer}.self_s") for layer in layers) for run in (base, change)]
    print(f"{workload}: traced, seed {seed}: self_s, share of the traced round, calls")
    for layer in layers:
        selfs = [value(run, f"{layer}.self_s") for run in (base, change)]
        calls = [value(run, f"{layer}.calls") for run in (base, change)]
        if not any(selfs + calls):
            continue
        print(
            f"  {layer:36s} "
            + "  ".join(
                f"{side} {self_s:9.4f} s {self_s / total if total else 0.0:6.1%} {count:9.0f}"
                for side, self_s, total, count in zip(("base", "change"), selfs, rounds, calls)
            )
            + (f"  x{selfs[1] / selfs[0]:.3f}" if selfs[0] else "")
            + ("" if calls[0] == calls[1] else "  CALLS DIFFER")
        )
    same = base["digests"] == change["digests"]
    print(f"  round digests {'identical' if same else 'DIFFER'}: {base['digests']} {change['digests']}")
    # A counter only the change reports has nothing to equal: it is listed as
    # new.  One the change stopped reporting differs like a moved value.
    for name in sorted(base["counters"].keys() | change["counters"].keys()):
        values = [run["counters"].get(name) for run in (base, change)]
        new = name not in base["counters"]
        same = same and (new or values[0] == values[1])
        flag = "  new" if new else "" if values[0] == values[1] else "  DIFFERS"
        print(f"  {name:36s} base {values[0]!s:>14s}  change {values[1]!s:>14s}{flag}")
    return same


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed of the first pair (default: taken from the clock, so every "
        "invocation measures seeds nobody tuned against; printed for re-runs)",
    )
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--mini", action="store_true", help="miniature sizes (smoke test)")
    parser.add_argument(
        "--layers",
        action="store_true",
        help="after each workload's pairs, one traced run a side on a fresh seed, "
        "per layer side by side; fails when a simulated counter or digest differs",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seed is None:
        args.seed = int(time.time()) % 1_000_000_000
    print(f"base {args.base}, first seed {args.seed}, {args.seconds:g} s a run")
    ok = True
    with tempfile.TemporaryDirectory(prefix="perf-compare-") as scratch:
        base_tree = pathlib.Path(scratch)
        export_base(args.base, base_tree)
        for workload in args.workload:
            ok = compare_workload(workload, base_tree, spec, args) and ok
            if args.layers:
                ok = compare_layers(workload, base_tree, args.seed + args.pairs, args) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
