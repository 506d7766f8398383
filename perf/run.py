#!/usr/bin/env python3
"""The CLASH benchmark: one command, seven workloads.

Two ways to run it, from the root of a checkout:

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One measurement in this process.  ``--trace 0`` times rounds for ``S``
    seconds and reports the end-to-end metrics; ``--trace 1`` runs one
    untraced and one traced round and reports the per-layer metrics.  The
    last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 perf/run.py [--workload NAME ...] [--seeds K] [--repeat-check]``
    The whole set: every workload, each measurement in a fresh subprocess
    (``K`` timed runs on seeds ``N .. N+K-1``, then one traced run), printed
    metric by metric and written to ``--out``.  ``--repeat-check`` does it
    twice and fails unless the two sets agree.

See ``perf/README.md`` for the workloads, the metrics and how to compare two
commits.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20040324
HOST_TIME_NOTE = "host time: what this machine took"
SIMULATED_NOTE = "simulated: what the modelled deployment did; repeats exactly for one seed"


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_harness():
    """Import the harness with the program and the ``perf`` package on the path.

    Run as a script, ``sys.path[0]`` is this directory, where ``trace.py``
    would shadow the standard library's ``trace``; it is replaced by the
    checkout's root and ``src/``.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:] = [entry for entry in sys.path if pathlib.Path(entry or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perf import harness, workloads

    return harness, workloads


# ---------------------------------------------------------------------- #
# One measurement, in this process
# ---------------------------------------------------------------------- #


def measure(args: argparse.Namespace) -> int:
    harness, workloads = _import_harness()
    workload = workloads.WORKLOADS[args.workload[0]]
    sizes = workloads.MINI if args.mini else workloads.FULL
    if args.trace:
        spans = HERE / "results" / f"{workload.name}-seed{args.seed}.spans"
        measurement = harness.measure_per_layer(workload, args.seed, sizes, spans_path=spans)
        units = harness.PER_LAYER
    else:
        measurement = harness.measure_end_to_end(
            workload, args.seed, args.seconds, sizes, rounds=args.rounds
        )
        units = harness.END_TO_END
    print(
        f"{workload.name}: {measurement.attempted} operations attempted, "
        f"{measurement.failed} failed (failed_op_share {measurement.failed_op_share:.6f})"
    )
    for problem in measurement.problems:
        print(f"FAILED CHECK {workload.name}: {problem}")
    for name, value in measurement.metrics.items():
        if value or not args.trace:
            print(f"{workload.name:18s} {name:44s} {value:16.6f} {units[name]}")
    details = {
        "samples": measurement.samples,
        "op_samples": measurement.op_samples,
        "digests": measurement.digests,
        "counters": measurement.counters,
        "harness_share": measurement.harness_share,
        "loadavg": measurement.loadavg,
        "problems": measurement.problems,
    }
    print("#details " + json.dumps(details))
    result = {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in measurement.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if measurement.failed == 0 else 1


# ---------------------------------------------------------------------- #
# The whole set, one subprocess per measurement
# ---------------------------------------------------------------------- #


def _child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.mini:
        command.append("--mini")
    finished = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = finished.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        details = json.loads(next(l for l in lines if l.startswith("#details "))[9:])
    except (IndexError, StopIteration, json.JSONDecodeError):
        sys.exit(
            f"perf/run.py: {workload} (seed {seed}, trace {trace}) printed no result; "
            f"exit code {finished.returncode}\n{finished.stdout}\n{finished.stderr}"
        )
    return result, details


def _judge(values: list[float], round_samples: list[float], bound: float) -> dict:
    """Median, quartiles and spread (quartile distance as a share of the
    median) of a host-time metric, and whether that spread lets a change of
    ``bound`` be told from noise."""
    judged = values if len(values) >= 2 else round_samples
    summary = {"median": statistics.median(values), "values": values}
    if len(judged) < 2:
        summary["status"] = "one-sample"
        return summary
    first, _, third = statistics.quantiles(judged, n=4)
    width = (third - first) / statistics.median(judged)
    summary.update(q1=first, q3=third, spread=width)
    summary["status"] = "ok" if width <= bound else "unresolved"
    return summary


def run_set(args: argparse.Namespace, spec: dict, names: list[str]) -> dict:
    """Measure every named workload; returns the report written to ``--out``."""
    harness, _ = _import_harness()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    report = {}
    for name in names:
        runs = [_child(args, name, args.seed + offset, 0) for offset in range(args.seeds)]
        traced, traced_details = _child(args, name, args.seed, 1)
        attempted = sum(result["attempted"] for result, _ in runs) + traced["attempted"]
        failed = sum(result["failed"] for result, _ in runs) + traced["failed"]
        end_to_end = {}
        for metric, unit in harness.END_TO_END.items():
            values = [result["metrics"][metric]["value"] for result, _ in runs]
            round_samples = [v for _, details in runs for v in details["samples"].get(metric, [])]
            end_to_end[metric] = {
                "unit": unit,
                **_judge(values, round_samples, bounds[metric]),
            }
        report[name] = {
            "end_to_end": end_to_end,
            "op_samples": [details["op_samples"] for _, details in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "counters": [details["counters"] for _, details in runs] + [traced_details["counters"]],
            "digests": [details["digests"] for _, details in runs] + [traced_details["digests"]],
            "attempted": attempted,
            "failed": failed,
            "failed_op_share": failed / attempted,
            "problems": [p for _, d in runs for p in d["problems"]] + traced_details["problems"],
            "harness_share": statistics.median(d["harness_share"] for _, d in runs),
            "loadavg": [details["loadavg"] for _, details in runs],
        }
        _print_workload(name, report[name], harness)
    return report


def _print_workload(name: str, entry: dict, harness) -> None:
    print(f"\n== {name}: {entry['attempted']} operations attempted, {entry['failed']} failed "
          f"(failed_op_share {entry['failed_op_share']:.6f}); harness share of the timed body "
          f"{entry['harness_share']:.4f}; load average {entry['loadavg'][0][0]:.2f}")  # fmt: skip
    for problem in entry["problems"]:
        print(f"   FAILED CHECK: {problem}")
    print(f"   end to end ({HOST_TIME_NOTE}; op_ms_* over {entry['op_samples'][0]} operations)")
    for metric, summary in entry["end_to_end"].items():
        quartiles = (
            f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} spread {summary['spread']:.2%}"
            if "spread" in summary
            else ""
        )
        print(f"   {metric:14s} {summary['median']:14.6g} {summary['unit']:4s} "
              f"{summary['status']:11s} {quartiles}")  # fmt: skip
    layers = entry["per_layer"]
    print(f"   per layer, traced run ({SIMULATED_NOTE} - counts, ratios, sim.*; the rest is host time)")
    covered = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    for metric, value in layers.items():
        if not value:
            continue
        share = f"{value / covered:6.1%} of traced self time" if metric.endswith(".self_s") else ""
        print(f"   {metric:44s} {value:16.6f} {harness.PER_LAYER[metric]:6s} {share}")


def _environment(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without history
    return {
        "seed": args.seed,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "rounds": args.rounds,
        "mini": args.mini,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def repeat_check(first: dict, second: dict, spec: dict) -> int:
    """Compare two sets from one tree; returns the number of disagreements."""
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    disagreements = 0
    print(f"\n{'workload':18s} {'metric':14s} {'first':>14s} {'second':>14s} {'change':>8s} {'bound':>6s}")
    for name in first:
        for metric, bound in bounds.items():
            one = first[name]["end_to_end"][metric]["median"]
            two = second[name]["end_to_end"][metric]["median"]
            change = two / one - 1.0
            verdict = "ok" if abs(change) <= bound else "DISAGREE"
            disagreements += verdict != "ok"
            print(f"{name:18s} {metric:14s} {one:14.6g} {two:14.6g} {change:+8.2%} {bound:6.0%} {verdict}")
        for exact in ("counters", "failed"):
            same = first[name][exact] == second[name][exact]
            disagreements += not same
            print(f"{name:18s} {exact:14s} {'identical' if same else 'DIFFERENT'}")
        # Rounds are time-boxed, so a run may fit one more or fewer than its
        # twin; the rounds both made have the same seeds and must match.
        same = all(
            all(a == b for a, b in zip(run_one, run_two))
            for run_one, run_two in zip(first[name]["digests"], second[name]["digests"])
        )
        disagreements += not same
        print(f"{name:18s} {'digests':14s} {'identical' if same else 'DIFFERENT'}")
        counts = {
            metric: (value, second[name]["per_layer"][metric])
            for metric, value in first[name]["per_layer"].items()
            if metric.endswith(".calls")
        }
        moved = {metric: pair for metric, pair in counts.items() if pair[0] != pair[1]}
        disagreements += bool(moved)
        print(f"{name:18s} {'span counts':14s} {'identical' if not moved else f'DIFFERENT {moved}'}")
    return disagreements


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, metavar="NAME",
                        help=f"workloads to run (default: all of {', '.join(names)})")  # fmt: skip
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed body seconds per run (default: BENCHMARK.json run_seconds)")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure one workload in this process: 0 timed, 1 traced")  # fmt: skip
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many timed rounds instead of filling --seconds")  # fmt: skip
    parser.add_argument("--mini", action="store_true",
                        help="miniature sizes (the smoke tests' scale); numbers mean nothing")  # fmt: skip
    parser.add_argument("--seeds", type=int, default=1,
                        help="timed runs per workload, on consecutive seeds (whole-set mode)")  # fmt: skip
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "results" / "run.json",
                        help="where the whole-set mode writes its report")  # fmt: skip
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the set twice and fail unless the two agree")  # fmt: skip
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace measures exactly one --workload")
        return measure(args)
    selected = args.workload or names
    report = {"environment": _environment(args), "claim": None, "workloads": run_set(args, spec, selected)}
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    if args.repeat_check:
        report["repeat"] = run_set(args, spec, selected)
        failed += sum(entry["failed"] for entry in report["repeat"].values())
        failed += repeat_check(report["workloads"], report["repeat"], spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nreport written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
