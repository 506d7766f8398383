"""Paper-scale benchmark gate: the Section 6.1 configuration as a routine run.

Two long-horizon benchmarks at the paper's full scale (1000 servers, 100,000
sources, the 6-hour A → B → C scenario), compared against the committed
``BENCH_PAPER_SCALE.json`` with the same semantics as ``BENCH_BASELINE.json``
(metric drift always fails; wall clock is gated at 25 % with retries):

* ``paper_scale`` — the churn-free reference run.
* ``paper_scale_churn`` — the same scenario with Poisson joins and failures
  at 0.005 events/second each, the configuration that exercised a full
  O(ring) stabilisation per membership event before the incremental repair.

The recorded metrics include the routing-tier work counters
(``ring_finger_recomputations``, memo hit/invalidation counts), so the
incremental-stabilisation win is itself drift-gated: a change that silently
reverts rings to full rebuilds shows up as a metric failure, not merely a
slow run.

Usage (from the repo root, also exposed as ``make bench-paper``)::

    PYTHONPATH=src python benchmarks/bench_paper_scale.py --check
    PYTHONPATH=src python benchmarks/bench_paper_scale.py --check --skip-wallclock
    PYTHONPATH=src python benchmarks/bench_paper_scale.py --update
    PYTHONPATH=src python benchmarks/bench_paper_scale.py --profile

After an intentional perf or behaviour change, re-record with ``--update``
and commit the new ``BENCH_PAPER_SCALE.json`` together with the change.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import sys
from typing import Callable

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.baseline import check, make_parser, update  # noqa: E402
from repro.experiments.runner import ExperimentScale  # noqa: E402
from repro.sim.simulator import FlowSimulator, SimulationResult  # noqa: E402

PAPER_BASELINE_PATH = REPO_ROOT / "BENCH_PAPER_SCALE.json"

CHURN_RATE = 0.005
"""Poisson join and failure rate (events/second) of the churn benchmark."""

ROUNDS = 2
"""Timed rounds per benchmark (plus the untimed warm-up).  The paper-scale
runs are long enough that two rounds bound the harness at a few minutes
while still letting --check pick a best round."""


def _round(value: float) -> float:
    return round(value, 9)


def _paper_scale(churn: bool) -> ExperimentScale:
    scale = ExperimentScale.paper()
    if churn:
        scale = dataclasses.replace(scale, join_rate=CHURN_RATE, fail_rate=CHURN_RATE)
    return scale


def _run(scale: ExperimentScale) -> SimulationResult:
    return FlowSimulator(
        config=scale.config(), params=scale.params(), scenario=scale.scenario()
    ).run()


def _phase_metrics(result: SimulationResult) -> dict[str, dict[str, object]]:
    """Per phase: every simulated number Figures 4 and 5 report, and what the
    paper-claims gate (docs/PAPER_CLAIMS.md) reads off the phase's last period."""
    phases: dict[str, dict[str, object]] = {}
    for phase in result.phase_summaries():
        last = [s for s in result.metrics.samples if s.workload == phase.workload][-1]
        phases[phase.workload] = {
            "peak_load_percent": _round(phase.peak_max_load_percent),
            "avg_load_percent": _round(phase.mean_avg_load_percent),
            "active_servers": _round(phase.mean_active_servers),
            "mean_depth": _round(phase.mean_depth),
            "messages_per_server_per_second": _round(phase.messages_per_server_per_second),
            "splits": phase.total_splits,
            "merges": phase.total_merges,
            "end_load_percent": _round(last.max_load_percent),
            "end_splits": last.splits,
            "end_merges": last.merges,
        }
    return phases


def _metrics(result: SimulationResult) -> dict[str, object]:
    samples = result.metrics.samples
    metrics: dict[str, object] = {
        "total_splits": result.total_splits,
        "total_merges": result.total_merges,
        "final_active_groups": result.final_active_groups,
        "periods": len(samples),
        "server_joins": sum(sample.server_joins for sample in samples),
        "server_failures": sum(sample.server_failures for sample in samples),
        "groups_reassigned": sum(sample.groups_reassigned for sample in samples),
        "split_series": [sample.splits for sample in samples],
        "merge_series": [sample.merges for sample in samples],
        "max_load_series": [_round(sample.max_load_percent) for sample in samples],
        "message_rate_series": [
            _round(sample.messages_per_server_per_second) for sample in samples
        ],
    }
    metrics["overload_percent"] = _round(100.0 * result.config.overload_threshold)
    metrics["key_bits"] = result.config.key_bits
    metrics["probes_per_lookup"] = _round(
        result.notes["sampled_lookup_probes"] / max(1.0, result.notes["sampled_lookups"])
    )
    metrics["phases"] = _phase_metrics(result)
    # The routing-tier work counters are deterministic functions of the seed
    # and scenario, so they are drift-gated like every other metric.
    metrics.update({key: int(value) for key, value in sorted(result.notes.items())})
    return metrics


def paper_claim_failures(metrics: dict[str, object], churn_free: bool) -> list[str]:
    """The paper-claims rows of docs/PAPER_CLAIMS.md that one run breaks.

    A balance loop that ended on its iteration cap, a depth search averaging
    more than ``log2(key_bits) + 2`` probes (row 8), an end-of-phase peak load
    above the overload threshold and — churn-free only, a membership event may
    legitimately reshape — a split or merge in the last period of a phase.
    """
    failures = []
    if metrics["balance_cap_hits"] > 0:
        failures.append(
            f"{metrics['balance_cap_hits']} period(s) ended on max_balance_iterations "
            "with the balance pass still reshaping"
        )
    # Metrics without a probe count pass this row; the drift gate, not this
    # check, catches a recording that drops it.
    probe_bound = math.log2(metrics.get("key_bits", 1)) + 2
    if metrics.get("probes_per_lookup", 0.0) > probe_bound:
        failures.append(
            f"a depth search takes {metrics['probes_per_lookup']:.2f} probes on average, "
            f"over log2(key_bits) + 2 = {probe_bound:.2f}"
        )
    for workload, phase in metrics["phases"].items():
        if phase["end_load_percent"] > metrics["overload_percent"] + 1e-9:
            failures.append(
                f"phase {workload} ends at peak load {phase['end_load_percent']:.1f} %, "
                f"over the {metrics['overload_percent']:g} % overload threshold"
            )
        if churn_free and (phase["end_splits"] or phase["end_merges"]):
            failures.append(
                f"phase {workload} still reshapes in its last period "
                f"({phase['end_splits']} splits, {phase['end_merges']} merges)"
            )
    return failures


def bench_paper_scale() -> dict[str, object]:
    """The churn-free paper-scale reference run."""
    return _metrics(_run(_paper_scale(churn=False)))


def bench_paper_scale_churn() -> dict[str, object]:
    """The paper-scale run under Poisson churn at 0.005 joins+fails/second."""
    return _metrics(_run(_paper_scale(churn=True)))


BENCHMARKS: dict[str, Callable[[], dict[str, object]]] = {
    "paper_scale": bench_paper_scale,
    "paper_scale_churn": bench_paper_scale_churn,
}


def profile_churn_run(
    top: int = 25,
    sort: str = "cumtime",
    output: pathlib.Path | None = None,
) -> str:
    """One churn-heavy paper-scale run under cProfile, as a top-N table.

    ``output`` additionally dumps the raw pstats data for offline analysis
    (``python -m pstats PATH``, snakeviz, flameprof, ...).
    """
    import cProfile
    import pstats

    from repro.experiments.reporting import render_profile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _run(_paper_scale(churn=True))
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    if output is not None:
        stats.dump_stats(str(output))
    return render_profile(stats, top=top, sort=sort)


LOAD_CHECK_PROBE_CEILING = 600_000
"""Hard ceiling on the churn run's ``load_check_probes`` counter, asserted by
``--check`` on top of the exact-drift gate.  The full-scan pass probed every
server every iteration (~2.9M probes at paper scale under churn); the
dirty-driven work queues need well under this many.  A change that quietly
reverts the balance pass to probe-everyone trips this even if it also
re-records the baseline counters."""


def _check_probe_ceiling(path: pathlib.Path) -> int:
    """Assert the committed churn baseline's probe counter is under the ceiling."""
    import json

    data = json.loads(path.read_text())
    probes = data["benchmarks"]["paper_scale_churn"]["metrics"].get("load_check_probes")
    if probes is None:
        print("paper-scale: FAIL churn baseline records no load_check_probes counter")
        return 1
    if probes > LOAD_CHECK_PROBE_CEILING:
        print(
            f"paper-scale: FAIL load_check_probes {probes} exceeds the "
            f"committed ceiling {LOAD_CHECK_PROBE_CEILING} (balance pass "
            "regressed toward probe-everyone)"
        )
        return 1
    return 0


def _check_paper_claims(path: pathlib.Path) -> int:
    """Evaluate the paper-claims rows on the committed (drift-gated) metrics."""
    import json

    benchmarks = json.loads(path.read_text())["benchmarks"]
    failures = [
        f"{name}: {failure}"
        for name, churn_free in (("paper_scale", True), ("paper_scale_churn", False))
        for failure in paper_claim_failures(benchmarks[name]["metrics"], churn_free)
    ]
    for failure in failures:
        print(f"paper-scale: FAIL {failure}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = make_parser(__doc__.splitlines()[0], PAPER_BASELINE_PATH, mode_required=False)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile one churn-heavy paper-scale run and print the hot-path table",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="rows in the --profile table (default: 25)",
    )
    parser.add_argument(
        "--sort",
        choices=("cumtime", "tottime"),
        default="cumtime",
        help="ranking column of the --profile table (default: cumtime)",
    )
    parser.add_argument(
        "--profile-output",
        type=pathlib.Path,
        default=None,
        help="also dump the raw cProfile stats to PATH (pstats format)",
    )
    args = parser.parse_args(argv)
    if args.profile:
        print(
            profile_churn_run(
                top=args.profile_top, sort=args.sort, output=args.profile_output
            )
        )
        return 0
    if not (args.check or args.update):
        parser.error("one of --check, --update or --profile is required")
    if args.update:
        return update(args.baseline, BENCHMARKS, ROUNDS, tag="paper-scale")
    status = check(
        args.baseline,
        skip_wallclock=args.skip_wallclock,
        benchmarks=BENCHMARKS,
        rounds=ROUNDS,
        tag="paper-scale",
    )
    ceiling_status = _check_probe_ceiling(args.baseline)
    claims_status = _check_paper_claims(args.baseline)
    return status or ceiling_status or claims_status


if __name__ == "__main__":
    sys.exit(main())
