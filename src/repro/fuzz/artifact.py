"""Self-contained JSON repro artifacts for fuzzer-found violations.

An artifact carries everything needed to re-run a failing schedule on a
machine that has only this repository: the :class:`~repro.fuzz.harness.FuzzCase`
(rebuilds the exact simulator), the oracle name and parameters (rebuilds the
failed check), and the minimised schedule (tie-tape entries plus pinned churn
events).  ``replay_artifact`` — and the ``repro`` CLI command on top of it —
replays the schedule bit-identically and reports whether the violation still
fires.

The JSON is deterministic by construction: keys are sorted, field order is
fixed and no wall-clock timestamp is embedded, so re-fuzzing the same seed
produces byte-identical artifacts.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.fuzz.harness import CaseOutcome, FuzzCase, run_case
from repro.fuzz.oracle import build_oracle
from repro.net.replay import ChurnEvent, RebalanceEvent, ReplaySchedule

__all__ = ["ARTIFACT_FORMAT", "ReproArtifact", "replay_artifact"]

ARTIFACT_FORMAT = 3
"""Schema version stamped into every artifact.

Format history: 1 — ties + churn; 2 — adds the pinned partition-rebalance
schedule (and the case's ``partition`` axis); 3 — the case loses its
balance-pass-mode axis (``from_dict`` rejects the old field)."""


@dataclass
class ReproArtifact:
    """One fuzzer finding, minimised and packaged for replay.

    Attributes:
        case: The failing run's full parameterisation.
        oracle: Registry name of the oracle that flagged the violation.
        oracle_params: The oracle's constructor parameters.
        failure_check: Stable name of the violated check.
        failure_message: The violation's detail text from the original run.
        ties: The minimised tie tape — draw index to recorded value
            (indices absent from the map replay as FIFO 0.0).
        churn: The minimised churn schedule (``None`` when the recorded run
            captured no churn dimension).
        rebalances: The pinned partition-rebalance schedule, verbatim from
            the recorded run — never shrunk (``None`` when the run was not
            recorded with rebalance capture).
        original_events: Schedule size before shrinking.
        minimal_events: Schedule size after shrinking.
        shrink_tests: Replays the shrinker spent.
        shrink_minimal: Whether 1-minimality was proven within budget.
        delivery_tail: Last recorded deliveries of the failing run, for
            human context only.
    """

    case: FuzzCase
    oracle: str
    oracle_params: dict = field(default_factory=dict)
    failure_check: str = ""
    failure_message: str = ""
    ties: dict[int, float] = field(default_factory=dict)
    churn: tuple[ChurnEvent, ...] | None = None
    rebalances: tuple[RebalanceEvent, ...] | None = None
    original_events: int = 0
    minimal_events: int = 0
    shrink_tests: int = 0
    shrink_minimal: bool = True
    delivery_tail: tuple[tuple[float, str, str], ...] = ()

    def schedule(self) -> ReplaySchedule:
        """The replay schedule this artifact pins."""
        return ReplaySchedule(
            ties=dict(self.ties), churn=self.churn, rebalances=self.rebalances
        )

    # ------------------------------------------------------------------ #
    # JSON round trip
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        """Deterministic JSON text (sorted keys, no timestamps)."""
        payload = {
            "format": ARTIFACT_FORMAT,
            "case": self.case.to_dict(),
            "oracle": self.oracle,
            "oracle_params": self.oracle_params,
            "failure_check": self.failure_check,
            "failure_message": self.failure_message,
            # JSON object keys must be strings; from_json converts back.
            "ties": {str(index): value for index, value in sorted(self.ties.items())},
            "churn": (
                None
                if self.churn is None
                else [event.to_json() for event in self.churn]
            ),
            "rebalances": (
                None
                if self.rebalances is None
                else [event.to_json() for event in self.rebalances]
            ),
            "original_events": self.original_events,
            "minimal_events": self.minimal_events,
            "shrink_tests": self.shrink_tests,
            "shrink_minimal": self.shrink_minimal,
            "delivery_tail": [list(row) for row in self.delivery_tail],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReproArtifact":
        payload = json.loads(text)
        version = payload.get("format")
        if version != ARTIFACT_FORMAT:
            raise ValueError(
                f"unsupported repro artifact format {version!r} "
                f"(this build reads format {ARTIFACT_FORMAT})"
            )
        churn = payload.get("churn")
        rebalances = payload.get("rebalances")
        return cls(
            case=FuzzCase.from_dict(payload["case"]),
            oracle=payload["oracle"],
            oracle_params=dict(payload.get("oracle_params", {})),
            failure_check=payload.get("failure_check", ""),
            failure_message=payload.get("failure_message", ""),
            ties={
                int(index): float(value)
                for index, value in payload.get("ties", {}).items()
            },
            churn=(
                None
                if churn is None
                else tuple(ChurnEvent.from_json(row) for row in churn)
            ),
            rebalances=(
                None
                if rebalances is None
                else tuple(RebalanceEvent.from_json(row) for row in rebalances)
            ),
            original_events=int(payload.get("original_events", 0)),
            minimal_events=int(payload.get("minimal_events", 0)),
            shrink_tests=int(payload.get("shrink_tests", 0)),
            shrink_minimal=bool(payload.get("shrink_minimal", True)),
            delivery_tail=tuple(
                (float(row[0]), row[1], row[2])
                for row in payload.get("delivery_tail", [])
            ),
        )

    def save(self, path: pathlib.Path | str) -> pathlib.Path:
        """Write the artifact to ``path`` (parents created), return the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: pathlib.Path | str) -> "ReproArtifact":
        """Read an artifact previously written by :meth:`save`."""
        return cls.from_json(pathlib.Path(path).read_text(encoding="utf-8"))


def replay_artifact(artifact: ReproArtifact, mapping: Mapping | None = None) -> CaseOutcome:
    """Re-run an artifact's minimised schedule under its original oracle.

    Returns the replay's :class:`~repro.fuzz.harness.CaseOutcome`; the
    artifact *reproduces* when ``outcome.violation`` is set and its check
    name equals ``artifact.failure_check``.
    """
    oracle = build_oracle(artifact.oracle, mapping or artifact.oracle_params)
    return run_case(artifact.case, oracle=oracle, schedule=artifact.schedule())
