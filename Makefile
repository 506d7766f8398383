# Developer entry points. `make check` is the gate a PR must pass:
# lint plus the tier-1 test suite.

PYTEST := PYTHONPATH=src python -m pytest

# Line-coverage gate for `make coverage`: one point below the measured
# coverage at the time the floor was last ratcheted (91.5%); raise it when
# coverage grows, never lower it to admit a regression.
COVERAGE_FLOOR := 90

.PHONY: check lint test coverage smoke bench-smoke bench bench-async bench-sharded bench-socket bench-check bench-baseline bench-paper bench-paper-baseline profile-paper fuzz-smoke perf perf-compare goldens

check: lint test

# ruff when installed (CI); otherwise tools/lint.py, a stdlib-only floor —
# every file compiles, no unused import (F401) — over everything but perf/,
# which stays ruff-only.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks perf tools; \
	else \
		echo "ruff not installed; running tools/lint.py (compile + F401) instead"; \
		python3 tools/lint.py src tests benchmarks tools; \
	fi

test:
	$(PYTEST) -x -q

# The tests/ suite under the stdlib line tracer in tools/coverage_floor.py,
# failing below COVERAGE_FLOOR.  One tool, no third-party dependency.
coverage:
	PYTHONPATH=src python tools/coverage_floor.py --fail-under $(COVERAGE_FLOOR)

# End-to-end CLI smoke runs: fig4 and churn on every registered transport,
# single ring and 4 shards under every partition policy (~40 s).
smoke:
	python3 tools/smoke_matrix.py

# One tiny benchmark configuration — fast enough for every CI run, keeps the
# benchmark modules import-clean and their hot paths executing.
bench-smoke:
	$(PYTEST) -q -m bench_smoke

# The full benchmark suite (regenerates the paper's figures; minutes).
bench:
	$(PYTEST) -q benchmarks

# Wall-clock comparison of the async transport against inline/batching on
# the scaled reference workload (asserts bit-identical metrics as it goes).
bench-async:
	$(PYTEST) -q benchmarks/bench_async.py

# Wall-clock + load-balance comparison of the sharded ring federation
# (shards 1/2/4/8) against the single-ring seed; asserts that shards=1 is
# bit-identical to a run without the knob.
bench-sharded:
	$(PYTEST) -q benchmarks/bench_sharded.py

# Wall-clock + CPU comparison of the multi-process socket transport against
# inline/batching on the 4-shard reference workload (asserts bit-identical
# metrics, worker-side wire work, and — on multi-CPU hosts — >1 aggregate
# core).
bench-socket:
	$(PYTEST) -q -s benchmarks/bench_socket.py

# Regression gate: re-run the reference workloads and fail loudly on any
# metric drift or a >25% wall-clock regression against BENCH_BASELINE.json.
# CI uses `--skip-wallclock` (shared runners time differently); see
# docs/PERFORMANCE.md for the update workflow.
bench-check:
	PYTHONPATH=src python benchmarks/baseline.py --check

# Re-record BENCH_BASELINE.json after an intentional perf/behaviour change.
bench-baseline:
	PYTHONPATH=src python benchmarks/baseline.py --update

# Paper-scale gate: the full Section 6.1 configuration (1000 servers, 100k
# sources, 6-hour scenario), churn-free and churn-heavy, against
# BENCH_PAPER_SCALE.json.  Same semantics as bench-check: metric drift always
# fails, wall clock gated at 25% with retries.
bench-paper:
	PYTHONPATH=src python benchmarks/bench_paper_scale.py --check

# Re-record BENCH_PAPER_SCALE.json after an intentional perf/behaviour change.
bench-paper-baseline:
	PYTHONPATH=src python benchmarks/bench_paper_scale.py --update

# After a change that moves simulated behaviour on purpose: re-record the flow
# half of tests/net/golden_seed.json, BENCH_BASELINE.json and
# BENCH_PAPER_SCALE.json in one go (refusing if the depth-search half or the
# async delivery order moved) and print the before/after table for the PR.
goldens:
	python3 tools/record_goldens.py

# Hot-path table for the churn-heavy paper-scale run (cProfile top-25).
# PROFILE_FLAGS passes extra switches through, e.g.
#   make profile-paper PROFILE_FLAGS="--sort tottime --profile-output /tmp/churn.pstats"
profile-paper:
	PYTHONPATH=src python benchmarks/bench_paper_scale.py --profile $(PROFILE_FLAGS)

# Adversarial schedule fuzz smoke: a fixed-seed, small-budget sweep of
# delivery orders and churn timings over the async transport and the
# batching transport — the one that runs the report-diff exchange, so its
# bookkeeping meets joins, failures and rebalances — (single ring, 4 static
# shards and 4 adaptively partitioned shards), each structural variant run
# with both the incremental work-queue balance pass and the reference
# probe-everyone scan (--fuzz-full-scan), with the invariant oracle at every
# quiescent point.  Budget 18 covers the whole 12-case grid on seed 0 and
# half of it on seed 1.  The run is deterministic; it must find zero
# violations (exit 1 otherwise).  See docs/FUZZING.md.
fuzz-smoke:
	PYTHONPATH=src python -m repro fuzz --scale-factor 100 --phase-periods 2 \
		--fuzz-budget 18 --fuzz-seeds 0:2 --fuzz-transports async,batching \
		--fuzz-shards 1,4 --join-rate 0.01 --fail-rate 0.01 --fuzz-full-scan \
		--verify-invariants --quiet --output-dir /tmp/fuzz-smoke

# The repository's benchmark (BENCHMARK.json; see perf/README.md): every
# workload, one timed and one traced run each.  PERF_FLAGS passes switches
# through, e.g.  make perf PERF_FLAGS="--workload membership_storm --seeds 10"
perf:
	python3 perf/run.py $(PERF_FLAGS)

# This tree against a base revision, seed-paired (perf/README.md, "Comparing
# two commits"): the base is git-archived into a temporary directory with this
# tree's perf/ and BENCHMARK.json copied over it, PAIRS pairs of runs alternate
# which side goes first on one fresh seed a pair, and every end-to-end metric
# gets its medians, quartiles, pairs won and a gain / within bound /
# unresolved / REGRESSION verdict.  WORKLOAD empty = all seven (~50 min).
# LAYERS=1 adds one traced run a side per workload, printed layer by layer,
# and fails when a simulated counter or a round digest differs.
#   make perf-compare BASE=HEAD~1 WORKLOAD=membership_storm PAIRS=10 LAYERS=1
BASE ?= HEAD
WORKLOAD ?=
PAIRS ?= 10
perf-compare:
	python3 tools/perf_compare.py --base $(BASE) --pairs $(PAIRS) \
		$(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(SEED),--seed $(SEED)) \
		$(if $(LAYERS),--layers)
