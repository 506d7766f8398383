"""Every module under ``src/repro/`` is reachable from a shipped entry point.

A module that only its own tests (or a benchmark) import earns no place in
``src/``.  The entry points are the CLI (``repro.cli``, ``repro.__main__``)
and the scripts under ``perf/``, ``examples/`` and ``tools/``; tests and
benchmarks are not entry points.  The scan parses imports with :mod:`ast` and
follows ``from repro[.pkg] import Name`` through the package ``__init__`` to
the module that defines ``Name``, so a package re-export alone does not keep a
module alive.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_MODULES = ("repro.cli", "repro.__main__")
# Scripts directly in these folders; their tests/ subfolders are not entry points.
ENTRY_DIRS = ("perf", "examples", "tools")


def module_paths(src: Path) -> dict[str, Path]:
    """Dotted name → file of every module and package under ``src``."""
    paths = {}
    for path in src.rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


def resolve(modules: dict[str, Path], module: str, name: str) -> str:
    """The module behind ``from module import name``, through package re-exports.

    A name a package defines itself (``repro.net.build_transport``) resolves to
    the package, and every import of that ``__init__`` is then followed.
    """
    if f"{module}.{name}" in modules:
        return f"{module}.{name}"
    if modules[module].name == "__init__.py":
        for node in ast.parse(modules[module].read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.module in modules:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return resolve(modules, node.module, alias.name)
    return module


def imported_modules(modules: dict[str, Path], path: Path) -> set[str]:
    """The modules an import anywhere in ``path`` reaches."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name in modules)
        elif isinstance(node, ast.ImportFrom) and node.module in modules:
            found.update(resolve(modules, node.module, alias.name) for alias in node.names)
    return found


def orphans(modules: dict[str, Path], entry_modules: set[str], entry_files: list[Path]) -> list[str]:
    """Non-package modules that neither are nor import-chain from an entry point."""
    reached: set[str] = set()
    frontier = entry_modules.union(*(imported_modules(modules, path) for path in entry_files))
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier |= imported_modules(modules, modules[module])
    return sorted(
        module
        for module, path in modules.items()
        if path.name != "__init__.py" and module not in reached
    )


def test_every_src_module_is_reachable_from_an_entry_point():
    modules = module_paths(ROOT / "src")
    entry_files = [path for folder in ENTRY_DIRS for path in sorted((ROOT / folder).glob("*.py"))]
    found = orphans(modules, set(ENTRY_MODULES), entry_files)
    assert not found, f"modules no entry point reaches: {found}"


def test_a_package_reexport_alone_does_not_reach_a_module(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.used import Used\nfrom pkg.orphan import Orphan\n"
    )
    (package / "used.py").write_text("from pkg import helper\nclass Used: ...\n")
    (package / "helper.py").write_text("")
    (package / "orphan.py").write_text("class Orphan: ...\n")
    entry = tmp_path / "main.py"
    entry.write_text("from pkg import Used\n")
    assert orphans(module_paths(tmp_path / "src"), set(), [entry]) == ["pkg.orphan"]
