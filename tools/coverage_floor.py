"""Measure line coverage of ``src/repro`` with the stdlib only.

This is the repository's one coverage tool: ``make coverage`` (locally and
in CI) runs it, and the committed coverage floor was derived from it.  It
needs no third-party package.  The measurement is a plain ``sys.settrace``
line tracer over the test run:

* *executable lines* of a module are the union of ``co_lines()`` over every
  code object compiled from the file (closely matching coverage.py's notion),
  minus lines marked ``pragma: no cover``;
* *covered lines* are the line events observed while running the suite.

It agrees with coverage.py to within about a point; the enforced floor keeps
a one-point margin below the measured value.

Usage::

    PYTHONPATH=src python tools/coverage_floor.py [--fail-under PCT] [pytest args...]
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
TARGET = str(SRC_ROOT / "repro")

if str(SRC_ROOT) not in sys.path:
    sys.path.insert(0, str(SRC_ROOT))

_hits: dict[str, set[int]] = {}


def _global_tracer(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(TARGET):
        return None
    lines = _hits.setdefault(filename, set())

    def local_tracer(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local_tracer

    if event == "call":
        lines.add(frame.f_lineno)
    return local_tracer


def _executable_lines(path: pathlib.Path) -> set[int]:
    source = path.read_text(encoding="utf-8")
    try:
        code = compile(source, str(path), "exec")
    except SyntaxError:
        return set()
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(line for _start, _end, line in obj.co_lines() if line)
        stack.extend(const for const in obj.co_consts if hasattr(const, "co_lines"))
    excluded = {
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if "pragma: no cover" in text
    }
    return lines - excluded


def main(argv: list[str]) -> int:
    import pytest

    fail_under: float | None = None
    if argv and argv[0] == "--fail-under":
        if len(argv) < 2:
            print("--fail-under requires a percentage", file=sys.stderr)
            return 2
        fail_under = float(argv[1])
        argv = argv[2:]

    sys.settrace(_global_tracer)
    try:
        exit_code = pytest.main(["-q", *argv] if argv else ["-q", "tests"])
    finally:
        sys.settrace(None)
    if exit_code != 0:
        print(f"[coverage-floor] test run failed (exit {exit_code})", file=sys.stderr)
        return int(exit_code)
    total_executable = 0
    total_covered = 0
    rows: list[tuple[str, int, int]] = []
    for path in sorted(pathlib.Path(TARGET).rglob("*.py")):
        executable = _executable_lines(path)
        covered = executable & _hits.get(str(path), set())
        total_executable += len(executable)
        total_covered += len(covered)
        rows.append((str(path.relative_to(REPO_ROOT)), len(covered), len(executable)))
    print()
    for name, covered, executable in rows:
        percent = 100.0 * covered / executable if executable else 100.0
        print(f"{name:<55} {covered:>5}/{executable:<5} {percent:6.1f}%")
    percent = 100.0 * total_covered / total_executable if total_executable else 100.0
    print(f"\nTOTAL: {total_covered}/{total_executable} lines = {percent:.2f}%")
    if fail_under is not None and percent < fail_under:
        print(
            f"[coverage-floor] FAIL: {percent:.2f}% is below the floor "
            f"({fail_under:.2f}%)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
