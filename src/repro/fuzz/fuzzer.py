"""The fuzz driver: sweep → record → oracle → shrink → artifact.

:func:`run_fuzz` enumerates a :class:`FuzzPlan`'s case grid (delivery-order
seeds × churn timings × transports × shard counts), runs every case with its
schedule recorded and the oracle installed at each quiescent point, and — on
a violation — shrinks the recorded schedule with
:func:`~repro.fuzz.shrink.ddmin` and writes a self-contained
:class:`~repro.fuzz.artifact.ReproArtifact` that the ``repro`` CLI command
replays bit-identically.

Shrinking treats the recorded schedule as one combined event list:

* a *tie event* keeps one tie-tape entry — removing it masks that draw back
  to the FIFO default 0.0 (one reordering decision undone);
* a *churn event* keeps one recorded membership event — removing it drops
  the join/failure from the forced schedule entirely.

Recorded partition rebalances are *pinned*, not shrinkable: every candidate
schedule carries them verbatim, so a shrunk repro always replays the exact
partition history the failure occurred under.

The reproduction predicate replays the candidate schedule and demands the
*same oracle check* fail (check names are stable; detail text may differ).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.fuzz.artifact import ReproArtifact
from repro.fuzz.harness import CaseOutcome, FuzzCase, run_case
from repro.fuzz.oracle import build_oracle
from repro.fuzz.shrink import ShrinkResult, ddmin
from repro.net.replay import ChurnEvent, RebalanceEvent, ReplaySchedule

__all__ = ["FuzzFinding", "FuzzPlan", "FuzzReport", "enumerate_cases", "render_report", "run_fuzz"]

DEFAULT_CHURN_RATES: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.01, 0.01))
"""(join_rate, fail_rate) variants swept by default: calm, and churning."""


@dataclass(frozen=True)
class FuzzPlan:
    """The sweep grid and budgets for one fuzzing session.

    Attributes:
        transports: Transport kinds to sweep.
        shards: Shard counts to sweep (powers of two).
        partitions: Partition maps to sweep for sharded cases (``shards=1``
            cases always run static).
        seeds: Base seeds; each also derives the case's delivery/churn seeds
            so every axis varies per seed.
        churn_rates: (join_rate, fail_rate) variants to sweep.
        budget: Maximum cases to run (the grid is truncated seed-major, so a
            small budget still covers every transport/shard/churn variant).
        scale_factor: Down-scaling factor for every case.
        phase_periods: Load-check periods per workload phase.
        oracle: Registry name of the oracle to install.
        oracle_params: Oracle constructor parameters.
        shrink_budget: Maximum replays ddmin may spend per finding.
    """

    transports: tuple[str, ...] = ("async", "event")
    shards: tuple[int, ...] = (1, 2)
    partitions: tuple[str, ...] = ("static", "adaptive")
    seeds: tuple[int, ...] = tuple(range(8))
    churn_rates: tuple[tuple[float, float], ...] = DEFAULT_CHURN_RATES
    budget: int = 16
    scale_factor: int = 100
    phase_periods: int = 2
    oracle: str = "invariants"
    oracle_params: dict = field(default_factory=dict)
    shrink_budget: int = 192


def enumerate_cases(plan: FuzzPlan) -> list[FuzzCase]:
    """The plan's case grid, seed-major, truncated to the budget.

    Seed-major order means the first ``len(transports) × len(shards) ×
    len(churn_rates)`` cases already span the whole structural grid; extra
    budget buys more seeds (fresh delivery orders and churn timings) rather
    than more of the same seed.
    """
    cases: list[FuzzCase] = []
    for seed_index, seed in enumerate(plan.seeds):
        for transport in plan.transports:
            for shards in plan.shards:
                for partition in plan.partitions:
                    if partition != "static" and shards <= 1:
                        # A single ring has no shard boundaries to move.
                        continue
                    for join_rate, fail_rate in plan.churn_rates:
                        if len(cases) >= plan.budget:
                            return cases
                        cases.append(
                            FuzzCase(
                                transport=transport,
                                seed=20040324 + seed,
                                # Independent per-seed axes: the delivery
                                # order and churn timing sweeps never perturb
                                # the workload streams.
                                delivery_seed=(
                                    710_000 + seed_index if transport == "async" else None
                                ),
                                churn_seed=(
                                    830_000 + seed_index
                                    if (join_rate or fail_rate)
                                    else None
                                ),
                                join_rate=join_rate,
                                fail_rate=fail_rate,
                                shards=shards,
                                partition=partition,
                                scale_factor=plan.scale_factor,
                                phase_periods=plan.phase_periods,
                            )
                        )
    return cases


@dataclass
class FuzzFinding:
    """One violation, after shrinking.

    Attributes:
        case: The failing case.
        check: Violated oracle check name.
        message: The original violation's detail text.
        artifact: The packaged repro artifact.
        artifact_path: Where the artifact was written (``None`` when no
            output directory was given).
    """

    case: FuzzCase
    check: str
    message: str
    artifact: ReproArtifact
    artifact_path: pathlib.Path | None = None


@dataclass
class FuzzReport:
    """Everything one :func:`run_fuzz` sweep produced."""

    plan: FuzzPlan
    cases_run: int = 0
    findings: list[FuzzFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the whole sweep found no violation."""
        return not self.findings


def _schedule_from_events(
    events: Sequence[tuple],
    churn_recorded: bool,
    rebalances: tuple[RebalanceEvent, ...] | None,
) -> ReplaySchedule:
    """Build the replay schedule a kept-event subset denotes.

    Recorded rebalances ride along verbatim on every candidate — they are
    pinned, never part of the shrinkable event list, so each replay installs
    the exact partition history the original failure ran under.
    """
    ties: dict[int, float] = {}
    churn: list[ChurnEvent] = []
    for event in events:
        if event[0] == "tie":
            ties[event[1]] = event[2]
        else:
            churn.append(event[1])
    return ReplaySchedule(
        ties=ties,
        churn=tuple(churn) if churn_recorded else None,
        rebalances=rebalances,
    )


def shrink_outcome(
    outcome: CaseOutcome, plan: FuzzPlan
) -> tuple[ReplaySchedule, ShrinkResult, int]:
    """Minimise a violating recorded run to its smallest failing schedule.

    Returns ``(minimal schedule, ddmin result, original event count)``.
    """
    assert outcome.violation is not None
    trace = outcome.trace
    churn_recorded = trace.churn is not None
    rebalances = trace.rebalances
    events: list[tuple] = [
        ("tie", index, value) for index, value in enumerate(trace.ties)
    ]
    events.extend(("churn", event) for event in trace.churn or ())
    target_check = outcome.violation.check

    def still_fails(subset: list[tuple]) -> bool:
        schedule = _schedule_from_events(subset, churn_recorded, rebalances)
        oracle = build_oracle(plan.oracle, plan.oracle_params)
        replay = run_case(outcome.case, oracle=oracle, schedule=schedule)
        return (
            replay.violation is not None
            and replay.violation.check == target_check
        )

    shrunk = ddmin(events, still_fails, max_tests=plan.shrink_budget)
    minimal = _schedule_from_events(shrunk.kept, churn_recorded, rebalances)
    return minimal, shrunk, len(events)


def run_fuzz(
    plan: FuzzPlan,
    output_dir: pathlib.Path | str | None = None,
    log: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run the sweep; shrink and package every violation found.

    Args:
        plan: The sweep grid and budgets.
        output_dir: Directory repro artifacts are written to (one
            ``fuzz-<case id>.json`` per finding; ``None`` keeps them
            in-memory only).
        log: Progress sink (e.g. ``print``); ``None`` is silent.
    """
    emit = log if log is not None else (lambda message: None)
    report = FuzzReport(plan=plan)
    for case in enumerate_cases(plan):
        oracle = build_oracle(plan.oracle, plan.oracle_params)
        outcome = run_case(case, oracle=oracle, record=True)
        report.cases_run += 1
        if outcome.violation is None:
            emit(f"[fuzz] {case.case_id()}: ok")
            continue
        violation = outcome.violation
        emit(f"[fuzz] {case.case_id()}: VIOLATION {violation.check} — shrinking")
        minimal, shrunk, original_count = shrink_outcome(outcome, plan)
        artifact = ReproArtifact(
            case=case,
            oracle=plan.oracle,
            oracle_params=dict(plan.oracle_params),
            failure_check=violation.check,
            failure_message=violation.detail,
            ties=dict(minimal.ties),
            churn=minimal.churn,
            rebalances=minimal.rebalances,
            original_events=original_count,
            minimal_events=len(shrunk.kept),
            shrink_tests=shrunk.tests_run,
            shrink_minimal=shrunk.minimal,
            delivery_tail=outcome.trace.deliveries,
        )
        path: pathlib.Path | None = None
        if output_dir is not None:
            path = artifact.save(
                pathlib.Path(output_dir) / f"fuzz-{case.case_id()}.json"
            )
            emit(f"[fuzz] {case.case_id()}: artifact written to {path}")
        report.findings.append(
            FuzzFinding(
                case=case,
                check=violation.check,
                message=violation.detail,
                artifact=artifact,
                artifact_path=path,
            )
        )
    return report


def render_report(report: FuzzReport) -> str:
    """The sweep summarised as a plain-text report."""
    plan = report.plan
    lines = [
        "Adversarial schedule fuzz sweep",
        "",
        f"oracle:     {plan.oracle}",
        f"transports: {', '.join(plan.transports)}",
        f"shards:     {', '.join(str(count) for count in plan.shards)}",
        f"churn:      {', '.join(f'(j={j:g}, f={f:g})' for j, f in plan.churn_rates)}",
        f"cases run:  {report.cases_run} (budget {plan.budget})",
        "",
    ]
    if report.clean:
        lines.append("No oracle violations found.")
        return "\n".join(lines)
    lines.append(f"{len(report.findings)} violation(s):")
    for finding in report.findings:
        artifact = finding.artifact
        lines.append(
            f"  {finding.case.case_id()}: {finding.check} — "
            f"{artifact.original_events} events shrunk to "
            f"{artifact.minimal_events} in {artifact.shrink_tests} replays"
            + ("" if artifact.shrink_minimal else " (budget exhausted)")
        )
        if finding.artifact_path is not None:
            lines.append(f"    artifact: {finding.artifact_path}")
        lines.append(f"    {finding.message}")
    return "\n".join(lines)
