"""Command-line interface for regenerating the paper's figures.

Examples
--------

Regenerate every figure at the default reduced scale into ``./results``::

    python -m repro all --output-dir results

Regenerate only Figure 4 at the full Section 6.1 scale (slow)::

    python -m repro fig4 --paper-scale --output-dir results

Each command writes one plain-text report per figure (plus a CSV of the
Figure 4 time series) and prints the report to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import Callable, Sequence

from repro.experiments.churn import (
    DEFAULT_CHURN_RATES,
    render_churn_sweep,
    run_churn_sweep,
)
from repro.experiments.fig1_fig2 import run_figure1_figure2
from repro.experiments.fig3 import run_figure3
from repro.experiments.fig4 import run_figure4
from repro.experiments.fig5 import run_figure5
from repro.experiments.reporting import (
    render_figure3,
    render_figure4,
    render_figure5,
    series_to_csv,
)
from repro.experiments.runner import ExperimentScale
from repro.fuzz.oracle import ORACLES
from repro.experiments.shard_scaling import (
    DEFAULT_CHURN_VARIANTS,
    DEFAULT_PARTITION_MODES,
    DEFAULT_SHARD_COUNTS,
    render_shard_scaling,
    run_shard_scaling,
)
from repro.dht.partition import PARTITION_KINDS
from repro.net import TRANSPORT_KINDS, TRANSPORTS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the figures of the CLASH paper (ICDCS 2004).",
    )
    parser.add_argument(
        "figure",
        choices=["fig1", "fig3", "fig4", "fig5", "churn", "shards", "fuzz", "repro", "all"],
        help="which figure to regenerate ('fig1' covers Figures 1 and 2; "
        "'churn' and 'shards' are the beyond-the-paper membership-churn and "
        "shard-scaling sweeps; 'fuzz' runs the adversarial schedule fuzzer "
        "and 'repro' replays one of its artifacts — neither is part of "
        "'all')",
    )
    parser.add_argument(
        "--output-dir",
        type=pathlib.Path,
        default=pathlib.Path("results"),
        help="directory the text reports are written to (default: ./results)",
    )
    parser.add_argument(
        "--scale-factor",
        type=int,
        default=10,
        help="down-scaling factor for the simulations (default: 10)",
    )
    parser.add_argument(
        "--phase-periods",
        type=int,
        default=8,
        help="load-check periods per workload phase at reduced scale (default: 8)",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run the full 1000-server / 100,000-client configuration (slow)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=20040324,
        help="master random seed (every figure run is reproducible from it)",
    )
    parser.add_argument(
        "--transport",
        choices=list(TRANSPORT_KINDS),
        default="inline",
        help="transport protocol messages travel through: "
        + "; ".join(f"'{spec.kind}' — {spec.summary}" for spec in TRANSPORTS.values())
        + " (default: inline)",
    )
    parser.add_argument(
        "--link-latency",
        type=float,
        default=0.0,
        help="one-way message latency in seconds for the time-modelling "
        "transports (event, async; ignored by the others; default: 0)",
    )
    parser.add_argument(
        "--join-rate",
        type=float,
        default=None,
        help="Poisson server-join rate in events/sec applied to every "
        "scenario phase (default: 0 = no churn; for the 'churn' command an "
        "explicit value pins a single sweep point)",
    )
    parser.add_argument(
        "--fail-rate",
        type=float,
        default=None,
        help="Poisson server-failure rate in events/sec applied to every "
        "scenario phase (default: 0 = no churn; for the 'churn' command an "
        "explicit value pins a single sweep point)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of Chord ring shards the key space is partitioned "
        "across (power of two; default: 1 = the paper's single global ring; "
        "for the 'shards' command an explicit value pins a single sweep "
        "point instead of sweeping "
        + "/".join(str(count) for count in DEFAULT_SHARD_COUNTS)
        + ")",
    )
    parser.add_argument(
        "--partition",
        choices=PARTITION_KINDS,
        default=None,
        help="partition map governing the key-space -> shard split "
        "(default: static, the equal top-bits prefix ranges; 'adaptive' "
        "rebalances boundaries from observed load and needs --shards > 1; "
        "for the 'shards' command an explicit value pins the sweep to that "
        "mode instead of sweeping "
        + "/".join(DEFAULT_PARTITION_MODES)
        + ")",
    )
    parser.add_argument(
        "--verify-invariants",
        action="store_true",
        help="run the full protocol invariant pass after every membership "
        "event and at every period boundary (slower; catches corruption at "
        "the moment it happens)",
    )
    fuzz = parser.add_argument_group(
        "fuzzing", "options for the 'fuzz' and 'repro' commands"
    )
    fuzz.add_argument(
        "--fuzz-budget",
        type=int,
        default=16,
        help="maximum number of fuzz cases to run (default: 16)",
    )
    fuzz.add_argument(
        "--fuzz-seeds",
        default="0:8",
        help="seed axis of the sweep: 'START:STOP' for a range or a "
        "comma-separated list (default: 0:8)",
    )
    fuzz.add_argument(
        "--fuzz-transports",
        default="async,event",
        help="comma-separated transport kinds to sweep (default: async,event)",
    )
    fuzz.add_argument(
        "--fuzz-shards",
        default="1,2",
        help="comma-separated shard counts to sweep (default: 1,2)",
    )
    fuzz.add_argument(
        "--fuzz-oracle",
        choices=sorted(ORACLES),
        default="invariants",
        help="which oracle to run at every quiescent point (default: invariants)",
    )
    fuzz.add_argument(
        "--shrink-budget",
        type=int,
        default=192,
        help="maximum replays ddmin may spend minimising one finding "
        "(default: 192)",
    )
    fuzz.add_argument(
        "--artifact",
        type=pathlib.Path,
        default=None,
        help="repro artifact JSON to replay (required by the 'repro' command)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="only write files, do not print the reports to stdout",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the figure generation under cProfile, write the raw stats "
        "to <output-dir>/profile.pstats and print a top-N cumulative-time "
        "table (for before/after comparisons in performance work)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="number of functions shown in the --profile table (default: 25)",
    )
    return parser


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    if args.paper_scale:
        scale = ExperimentScale.paper()
    else:
        scale = ExperimentScale.scaled(
            factor=args.scale_factor, phase_periods=args.phase_periods
        )
    return dataclasses.replace(
        scale,
        seed=args.seed,
        transport=args.transport,
        link_latency=args.link_latency,
        join_rate=args.join_rate if args.join_rate is not None else 0.0,
        fail_rate=args.fail_rate if args.fail_rate is not None else 0.0,
        shards=args.shards if args.shards is not None else 1,
        partition=args.partition if args.partition is not None else "static",
        verify_invariants=args.verify_invariants,
    )


def _write(output_dir: pathlib.Path, name: str, text: str, quiet: bool) -> pathlib.Path:
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    if not quiet:
        print(text)
        print(f"[written to {path}]")
    return path


def _run_fig1(args: argparse.Namespace) -> list[pathlib.Path]:
    result = run_figure1_figure2(seed=args.seed)
    text = "\n".join(
        [
            "Figure 1 — binary splitting tree (replayed split sequence)",
            "",
            result.tree_text,
            "",
            "Figure 2 — work table of the splitting server",
            "",
            result.table_text,
        ]
    )
    return [_write(args.output_dir, "figure1_figure2.txt", text, args.quiet)]


def _run_fig3(args: argparse.Namespace) -> list[pathlib.Path]:
    result = run_figure3(seed=args.seed)
    return [_write(args.output_dir, "figure3.txt", render_figure3(result), args.quiet)]


def _run_fig4(args: argparse.Namespace) -> list[pathlib.Path]:
    scale = _scale_from_args(args)
    result = run_figure4(scale)
    written = [_write(args.output_dir, "figure4.txt", render_figure4(result), args.quiet)]
    series = list(result.max_load_series().values())
    written.append(
        _write(
            args.output_dir,
            "figure4_max_load_series.csv",
            series_to_csv(series),
            quiet=True,
        )
    )
    return written


def _run_fig5(args: argparse.Namespace) -> list[pathlib.Path]:
    scale = _scale_from_args(args)
    result = run_figure5(scale)
    return [_write(args.output_dir, "figure5.txt", render_figure5(result), args.quiet)]


def _run_churn(args: argparse.Namespace) -> list[pathlib.Path]:
    scale = _scale_from_args(args)
    # Explicit --join-rate/--fail-rate (including explicit zeros) pin a
    # single sweep point; otherwise the default rate ladder is swept.
    if args.join_rate is not None or args.fail_rate is not None:
        rates = ((scale.join_rate, scale.fail_rate),)
    else:
        rates = DEFAULT_CHURN_RATES
    result = run_churn_sweep(scale, rates=rates)
    return [_write(args.output_dir, "churn.txt", render_churn_sweep(result), args.quiet)]


def _run_shards(args: argparse.Namespace) -> list[pathlib.Path]:
    scale = _scale_from_args(args)
    # An explicit --shards (any value, including 1) pins a single sweep
    # point; otherwise the default shard-count ladder is swept.
    counts = (args.shards,) if args.shards is not None else DEFAULT_SHARD_COUNTS
    # Explicit churn knobs pin the churn variants too (mirroring 'churn');
    # the scale already carries the parsed rates, 0.0 for whichever was
    # omitted.
    if args.join_rate is not None or args.fail_rate is not None:
        churn_rates = ((scale.join_rate, scale.fail_rate),)
    else:
        churn_rates = DEFAULT_CHURN_VARIANTS
    # An explicit --partition pins the sweep to that mode; the default
    # sweeps static and adaptive side by side.
    partition_modes = (
        (args.partition,) if args.partition is not None else DEFAULT_PARTITION_MODES
    )
    result = run_shard_scaling(
        scale,
        shard_counts=counts,
        churn_rates=churn_rates,
        partition_modes=partition_modes,
    )
    return [
        _write(args.output_dir, "shard_scaling.txt", render_shard_scaling(result), args.quiet)
    ]


def _parse_seed_axis(text: str) -> tuple[int, ...]:
    """Parse --fuzz-seeds: 'START:STOP' (half-open range) or 'a,b,c'."""
    text = text.strip()
    if ":" in text:
        start_text, stop_text = text.split(":", 1)
        start, stop = int(start_text), int(stop_text)
        if stop <= start:
            raise ValueError(f"empty seed range {text!r}")
        return tuple(range(start, stop))
    return tuple(int(part) for part in text.split(",") if part.strip())


def _run_fuzz_command(args: argparse.Namespace) -> int:
    """The 'fuzz' command: sweep, shrink, write artifacts; exit 1 on findings."""
    from repro.fuzz import FuzzPlan, build_oracle, render_report, run_fuzz
    from repro.fuzz.fuzzer import DEFAULT_CHURN_RATES as FUZZ_CHURN_RATES

    transports = tuple(
        part.strip() for part in args.fuzz_transports.split(",") if part.strip()
    )
    for kind in transports:
        if kind not in TRANSPORT_KINDS:
            raise SystemExit(f"unknown fuzz transport {kind!r}")
    shards = tuple(
        int(part) for part in args.fuzz_shards.split(",") if part.strip()
    )
    # Explicit churn knobs pin a single (join, fail) variant, mirroring the
    # 'churn' command; otherwise both the calm and churning variants run.
    if args.join_rate is not None or args.fail_rate is not None:
        churn_rates = ((args.join_rate or 0.0, args.fail_rate or 0.0),)
    else:
        churn_rates = FUZZ_CHURN_RATES
    plan = FuzzPlan(
        transports=transports,
        shards=shards,
        seeds=_parse_seed_axis(args.fuzz_seeds),
        churn_rates=churn_rates,
        budget=args.fuzz_budget,
        scale_factor=args.scale_factor,
        phase_periods=args.phase_periods,
        oracle=args.fuzz_oracle,
        shrink_budget=args.shrink_budget,
    )
    try:
        build_oracle(plan.oracle, plan.oracle_params)
    except (TypeError, ValueError) as error:
        raise SystemExit(
            f"oracle {plan.oracle!r} needs parameters the CLI cannot supply "
            f"({error}); use --fuzz-oracle invariants"
        ) from error
    report = run_fuzz(
        plan,
        output_dir=args.output_dir,
        log=None if args.quiet else print,
    )
    _write(args.output_dir, "fuzz.txt", render_report(report), args.quiet)
    return 0 if report.clean else 1


def _run_repro_command(args: argparse.Namespace) -> int:
    """The 'repro' command: replay an artifact; exit 0 iff it reproduces."""
    from repro.fuzz import ReproArtifact, replay_artifact

    if args.artifact is None:
        raise SystemExit("the 'repro' command requires --artifact PATH")
    try:
        artifact = ReproArtifact.load(args.artifact)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load artifact {str(args.artifact)!r}: {error}") from error
    outcome = replay_artifact(artifact)
    reproduced = (
        outcome.violation is not None
        and outcome.violation.check == artifact.failure_check
    )
    if not args.quiet:
        print(f"case:     {artifact.case.case_id()}")
        print(f"oracle:   {artifact.oracle}")
        print(f"expected: {artifact.failure_check} — {artifact.failure_message}")
        if outcome.violation is None:
            print("replay:   no violation (NOT reproduced)")
        else:
            print(
                f"replay:   {outcome.violation.check} — {outcome.violation.detail}"
                + ("" if reproduced else " (different check — NOT reproduced)")
            )
    return 0 if reproduced else 1


_COMMANDS: dict[str, Callable[[argparse.Namespace], list[pathlib.Path]]] = {
    "fig1": _run_fig1,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "churn": _run_churn,
    "shards": _run_shards,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The fuzz/repro commands have pass/fail exit codes of their own and are
    # deliberately excluded from 'all'.
    if args.figure == "fuzz":
        return _run_fuzz_command(args)
    if args.figure == "repro":
        return _run_repro_command(args)
    figures = list(_COMMANDS) if args.figure == "all" else [args.figure]
    written: list[pathlib.Path] = []

    def generate() -> None:
        for figure in figures:
            written.extend(_COMMANDS[figure](args))

    if args.profile:
        import cProfile
        import pstats

        from repro.experiments.reporting import render_profile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            generate()
        finally:
            # Write the profile even when generation dies part-way — a run
            # slow enough to be interrupted is exactly the one worth
            # profiling.
            profiler.disable()
            args.output_dir.mkdir(parents=True, exist_ok=True)
            stats_path = args.output_dir / "profile.pstats"
            profiler.dump_stats(stats_path)
            stats = pstats.Stats(profiler)
            print()
            print(f"Profile — top {args.profile_top} functions by cumulative time")
            print(render_profile(stats, top=args.profile_top))
            print(f"[raw stats written to {stats_path}]")
    else:
        generate()
    if not args.quiet:
        print(f"\n{len(written)} report file(s) written to {args.output_dir}/")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
