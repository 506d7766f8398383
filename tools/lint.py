#!/usr/bin/env python3
"""A stdlib-only lint: what ``make lint`` runs when ruff is not installed.

Two checks over every ``*.py`` file under the given paths:

1. **The file compiles** — the check ``compileall`` makes (source → code
   object, so syntax errors and compile-time errors such as ``return`` outside
   a function fail), done in memory so no bytecode is written.
2. **No unused import** — ruff's F401.  An imported name counts as used when
   the module names it anywhere else (a string annotation included), lists it in a
   literal ``__all__``, or re-exports it as ``import x as x`` /
   ``from m import x as x``.  ``from __future__`` and star imports are
   skipped, and a ``# noqa`` comment — bare, or naming F401 — on the
   statement's first or last line or on the name's own line silences it.

This is a floor, not ruff: it knows one rule.  Findings are printed as
``path:line:column: CODE message`` and the exit status is 1 when there are
any.

Usage::

    python3 tools/lint.py src tests benchmarks tools
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def python_files(paths: list[str]) -> list[pathlib.Path]:
    """Every ``*.py`` file under ``paths`` (files are taken as given), sorted."""
    found: set[pathlib.Path] = set()
    for path in map(pathlib.Path, paths):
        if path.is_dir():
            found.update(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def _silenced(line: str) -> bool:
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in {code.strip().upper() for code in codes.split(",")}


def _exported(tree: ast.Module) -> set[str]:
    """The names in module-level literal ``__all__`` assignments and extensions."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                )
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module mentions, including those inside string annotations."""
    names: set[str] = set()
    annotations: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str, path: str = "<source>") -> list[str]:
    """F401 findings for one module's source (which must parse)."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    used = _read_names(tree) | _exported(tree)
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if alias.asname is None:
                bound = alias.name.split(".")[0]
            elif alias.asname == alias.name:
                continue  # an explicit re-export
            else:
                bound = alias.asname
            if bound in used:
                continue
            line_numbers = {node.lineno, node.end_lineno, alias.lineno}
            if any(_silenced(lines[number - 1]) for number in line_numbers):
                continue
            findings.append(
                f"{path}:{alias.lineno}:{alias.col_offset + 1}: F401 "
                f"{alias.name!r} imported but unused"
            )
    return findings


def lint_file(path: pathlib.Path) -> list[str]:
    """Every finding for one file: a compile error, or its unused imports."""
    try:
        source = path.read_text(encoding="utf-8")
        compile(source, str(path), "exec", dont_inherit=True)
    except (SyntaxError, ValueError) as error:  # ValueError: undecodable or NUL bytes
        line = getattr(error, "lineno", None) or 1
        column = getattr(error, "offset", None) or 1
        return [f"{path}:{line}:{column}: E999 {type(error).__name__}: {error}"]
    return unused_imports(source, str(path))


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: lint.py PATH [PATH ...]", file=sys.stderr)
        return 2
    files = python_files(paths)
    findings = [finding for path in files for finding in lint_file(path)]
    for finding in findings:
        print(finding)
    print(f"lint.py: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
