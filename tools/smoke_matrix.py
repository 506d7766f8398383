#!/usr/bin/env python3
"""End-to-end CLI smoke runs, one per cell of the deployment matrix.

``make smoke`` (and CI) runs ``python -m repro <command>`` at the tiny
``--scale-factor 100 --phase-periods 2`` configuration for every combination
of

* command — ``fig4`` (the paper's workload, no churn) and ``churn`` (Poisson
  joins and failures at 0.01/s),
* transport — every kind in :data:`repro.net.TRANSPORTS`,
* ring layout — the single ring, and 4 shards under every partition policy in
  :data:`repro.dht.partition.PARTITION_KINDS`,

so a transport or partition policy added to its registry is smoke-tested
without anyone editing a workflow file.  Single-ring churn cells on the
time-modelling transports also price links at 10 ms, which puts envelopes in
flight when a server fails.  Each cell runs in its own process group; a cell
that leaves a process behind (a leaked ``clash-shard-<k>`` socket worker) fails.

Exits non-zero when any cell fails, after running them all.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.dht.partition import PARTITION_KINDS  # noqa: E402
from repro.net import TRANSPORTS  # noqa: E402

COMMANDS = {
    "fig4": [],
    "churn": ["--join-rate", "0.01", "--fail-rate", "0.01"],
}
SHARDED = 4
LAYOUTS = [(1, "static")] + [(SHARDED, partition) for partition in PARTITION_KINDS]


def cell_arguments(command: str, kind: str, shards: int, partition: str) -> list[str]:
    """The ``python -m repro`` arguments of one cell (output directory aside)."""
    arguments = [command, "--scale-factor", "100", "--phase-periods", "2", "--quiet"]
    arguments += COMMANDS[command]
    if kind != "inline":
        arguments += ["--transport", kind]
    if shards > 1:
        arguments += ["--shards", str(shards)]
    if partition != "static":
        arguments += ["--partition", partition]
    if command == "churn" and shards == 1 and TRANSPORTS[kind].models_time:
        arguments += ["--link-latency", "0.01"]
    return arguments


def run_cell(arguments: list[str], output_dir: pathlib.Path) -> str | None:
    """Run one cell; returns what went wrong, or ``None``."""
    environment = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *arguments, "--output-dir", str(output_dir)],
        env=environment,
        cwd=ROOT,
        start_new_session=True,  # its own process group: leftovers are findable
    )
    code = process.wait()
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        leaked = False  # the group died with its leader, as it should
    else:
        leaked = True
    if code != 0:
        return f"exit code {code}"
    if leaked:
        return "left a process running after it exited (leaked shard worker?)"
    return None


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="clash-smoke-") as scratch:
        cells = itertools.product(COMMANDS, TRANSPORTS, LAYOUTS)
        for index, (command, kind, (shards, partition)) in enumerate(cells):
            arguments = cell_arguments(command, kind, shards, partition)
            started = time.perf_counter()
            problem = run_cell(arguments, pathlib.Path(scratch) / f"cell-{index}")
            elapsed = time.perf_counter() - started
            verdict = "ok" if problem is None else f"FAILED: {problem}"
            print(f"[{elapsed:5.1f}s] repro {' '.join(arguments)}  {verdict}", flush=True)
            if problem is not None:
                failures.append(arguments)
    if failures:
        print(f"{len(failures)} smoke cell(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
