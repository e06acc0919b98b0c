"""Source hygiene: every imported name is used.

Scans ``src/hopfdual/*.py`` (but ``__init__.py``, whose imports are the
package's re-exports) and ``tests/*.py`` with the standard ``ast`` module.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "hopfdual").glob("*.py")
               if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by import statements in ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_only_unused_names():
    source = "import os, sys\nfrom a.b import c as d, e\nimport x.y\nprint(sys, e, x)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: d"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
