"""``tools/lint.py``: the stdlib lint ``make lint`` falls back to, on a toy tree."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _tree(tmp_path: pathlib.Path, files: dict[str, str]) -> pathlib.Path:
    for name, source in files.items():
        path = tmp_path / "pkg" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path / "pkg"


CLEAN = {
    "__init__.py": """
        from pkg.core import Thing, helper

        __all__ = ["Thing", "helper"]
    """,
    "core.py": """
        from __future__ import annotations

        import os.path
        from collections import OrderedDict as Ordered
        from typing import Iterable

        from pkg import extras as extras
        from pkg.optional import feature  # noqa: F401


        class Thing:
            def items(self, source: "Iterable[int]") -> Ordered:
                return Ordered((os.path.sep, value) for value in source)


        def helper() -> None:
            import json

            json.dumps({})
    """,
}


def test_a_clean_tree_passes(tmp_path, capsys):
    package = _tree(tmp_path, CLEAN)
    assert lint.main([str(package)]) == 0
    assert "2 files, 0 finding(s)" in capsys.readouterr().out


def test_one_unused_import_is_flagged(tmp_path, capsys):
    package = _tree(
        tmp_path,
        dict(CLEAN, **{"extra.py": "import math\nfrom typing import Any, Sequence\n\nx: Any = 1\n"}),
    )
    assert lint.main([str(package)]) == 1
    out = capsys.readouterr().out
    assert f"{package / 'extra.py'}:1:8: F401 'math' imported but unused" in out
    assert f"{package / 'extra.py'}:2:25: F401 'Sequence' imported but unused" in out
    assert "'Any'" not in out
    assert "2 finding(s)" in out


def test_an_all_re_export_is_not_flagged_but_a_noqa_for_another_code_is(tmp_path):
    exported = "from pkg.core import Thing\n\n__all__ = ['Thing']\n"
    assert lint.unused_imports(exported) == []
    assert lint.unused_imports(exported.replace("__all__ = ['Thing']", "__all__ = []")) == [
        "<source>:1:22: F401 'Thing' imported but unused"
    ]
    assert lint.unused_imports("import sys  # noqa\n") == []
    assert lint.unused_imports("import sys  # noqa: E402\n") == [
        "<source>:1:8: F401 'sys' imported but unused"
    ]


def test_a_syntax_error_fails(tmp_path, capsys):
    package = _tree(tmp_path, dict(CLEAN, **{"broken.py": "def f(:\n    pass\n"}))
    assert lint.main([str(package)]) == 1
    assert f"{package / 'broken.py'}:1" in capsys.readouterr().out


def test_a_compile_time_error_fails(tmp_path, capsys):
    package = _tree(tmp_path, {"outside.py": "return 1\n"})
    assert lint.main([str(package)]) == 1
    assert "E999 SyntaxError" in capsys.readouterr().out


def test_the_command_line_exits_non_zero_on_a_finding(tmp_path):
    package = _tree(tmp_path, {"extra.py": "import math\n"})
    finished = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lint.py"), str(package)],
        capture_output=True,
        text=True,
    )
    assert finished.returncode == 1
    assert "F401 'math'" in finished.stdout
