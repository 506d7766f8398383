"""The retired reference-mode switches stay retired.

Production code once carried a second, naive path for the balance pass, the
ring repair and the rate assignment, each behind a switch.  The naive paths
now live in ``tests/reference/`` and install onto real objects; no switch,
parameter, fuzz axis or CLI flag may select them again.  This test searches
the code, the build and CI files and the fuzzing guide for the old names.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ["src", "tests", "benchmarks", "tools", "Makefile", ".github", "docs/FUZZING.md"]
RETIRED = ["force_full", "full_load_scan", "full_scans", "fuzz-full-scan"]


def test_no_retired_switch_is_named_anywhere():
    grep = shutil.which("grep")
    assert grep is not None, "grep is not installed"
    this_file = pathlib.Path(__file__).name
    command = [grep, "-rnI", "--exclude-dir=__pycache__", f"--exclude={this_file}"]
    for name in RETIRED:
        command += ["-e", name]
    found = subprocess.run(
        [*command, *SEARCHED], cwd=ROOT, capture_output=True, text=True, check=False
    )
    assert found.returncode == 1, f"retired switch names found:\n{found.stdout}{found.stderr}"
