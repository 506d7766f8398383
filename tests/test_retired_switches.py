"""Retired switches, options and plug-ins stay retired.

Production code once carried a second, naive path for the balance pass, the
ring repair and the rate assignment, each behind a switch.  The naive paths
now live in ``tests/reference/`` and install onto real objects; no switch,
parameter, fuzz axis or CLI flag may select them again.  Settable values that
only tests ever set went the same way: the split/merge policy plug-in (the
paper's hottest/coldest rules are the only ones), the simulator's second
``DHT(x)`` path, and single-value knobs that are now constants.  This test
searches the code, the build and CI files and the fuzzing guide for each old
name, one case per name.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ["src", "tests", "benchmarks", "tools", "Makefile", ".github", "docs/FUZZING.md"]
RETIRED = [
    "force_full",
    "full_load_scan",
    "full_scans",
    "fuzz-full-scan",
    "split_policy_factory",
    "merge_policy_factory",
    "SplitPolicy",
    "MergePolicy",
    "RandomGroupSplitPolicy",
    "RoundRobinSplitPolicy",
    "max_splits_per_server_per_iteration",
    "split_retry_limit",
    "max_enumeration_depth",
    "verify_after_membership",
]


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_named_nowhere(name):
    grep = shutil.which("grep")
    assert grep is not None, "grep is not installed"
    this_file = pathlib.Path(__file__).name
    command = [
        grep, "-rnIF", "--exclude-dir=__pycache__", f"--exclude={this_file}", "-e", name
    ]
    found = subprocess.run(
        [*command, *SEARCHED], cwd=ROOT, capture_output=True, text=True, check=False
    )
    assert found.returncode == 1, f"retired name {name!r} found:\n{found.stdout}{found.stderr}"
