"""Golden churn runs: incremental stabilisation vs the full-rebuild path.

How a ring recomputes its routing state after membership events must never
change *what* that state is.  These runs drive a churn-heavy scenario with
the incremental repair and with ``tests/reference/``'s rebuild-on-every-event
ring twin installed on every shard ring, and require
:meth:`SimulationResult.diff` to come back empty (bit-identical
``PeriodSample`` streams, floats included) while the work counters carried
in ``SimulationResult.notes`` show the incremental path doing a small
fraction of the finger recomputation.
"""

from __future__ import annotations

import dataclasses

import pytest
from reference.naive_clash import install_naive_ring

from repro.experiments.runner import ExperimentScale
from repro.sim.simulator import FlowSimulator, SimulationResult

CHURN_SCALE = dataclasses.replace(
    ExperimentScale.scaled(factor=50, phase_periods=2),
    join_rate=0.01,
    fail_rate=0.01,
)


def _run(transport: str, shards: int, naive: bool) -> SimulationResult:
    scale = dataclasses.replace(CHURN_SCALE, transport=transport, shards=shards)
    simulator = FlowSimulator(
        config=scale.config(),
        params=scale.params(shards=shards),
        scenario=scale.scenario(),
    )
    if naive:
        install_naive_ring(simulator.system)
    result = simulator.run()
    simulator.system.verify_invariants()
    return result


class TestIncrementalChurnEquivalence:
    @pytest.mark.parametrize(
        ("transport", "shards"),
        [("inline", 1), ("inline", 4), ("async", 1)],
        ids=["inline", "inline-sharded", "async"],
    )
    def test_bit_identical_samples_and_less_finger_work(self, transport: str, shards: int):
        fast = _run(transport, shards, naive=False)
        slow = _run(transport, shards, naive=True)
        assert fast.diff(slow) == []
        # The scenario really churned (otherwise the comparison is vacuous).
        joins = sum(s.server_joins for s in fast.metrics.samples)
        failures = sum(s.server_failures for s in fast.metrics.samples)
        assert joins > 0 and failures > 0
        # ≥ 3× fewer finger-entry recomputations on the incremental path.
        fast_fingers = fast.notes["ring_finger_recomputations"]
        slow_fingers = slow.notes["ring_finger_recomputations"]
        assert fast_fingers * 3 <= slow_fingers
        # The fast run took the incremental path; the slow run never did.
        assert fast.notes["ring_incremental_events"] > 0
        assert slow.notes["ring_incremental_events"] == 0

    def test_memo_survives_churn_on_the_incremental_path(self):
        fast = _run("inline", 1, naive=False)
        # Selective invalidation must leave some lookups answered from the
        # memo even though the membership changed during the run.
        assert fast.notes["memo_hits"] > 0
        assert fast.notes["memo_invalidations"] < fast.notes["memo_misses"]
