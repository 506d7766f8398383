"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, or measures
one mechanism behind them (a Chord lookup, a split or merge, a
transport); docs/PERFORMANCE.md describes the gated ones.  The heavyweight
simulations are run once per benchmark (``benchmark.pedantic`` with a single
round) — the interesting output is the regenerated figure data, which each
benchmark prints, not a statistically tight timing distribution.

Scale: benchmarks default to a scaled-down configuration (see
``repro.experiments.runner.ExperimentScale.scaled``) so the whole suite runs
in a few minutes.  Set the environment variable ``CLASH_BENCH_PAPER_SCALE=1``
to run the full Section 6.1 configuration instead (much slower).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import ExperimentScale


def bench_scale(phase_periods: int = 4, query_clients: bool = False) -> ExperimentScale:
    """The experiment scale benchmarks run at (env-switchable to paper scale)."""
    if os.environ.get("CLASH_BENCH_PAPER_SCALE") == "1":
        return ExperimentScale.paper(query_clients=query_clients)
    return ExperimentScale.scaled(
        factor=25, query_clients=query_clients, phase_periods=phase_periods
    )


@pytest.fixture
def scale() -> ExperimentScale:
    """Default benchmark scale."""
    return bench_scale()
