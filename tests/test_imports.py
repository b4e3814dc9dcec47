"""Every import in the package and the scripts is used.

No linter ships with the test dependencies, so this is the unused-import
check (pyflakes' F401) on the standard library's ``ast``.  A name counts
as used when the module reads it anywhere, annotations included (string
annotations are parsed), when ``__all__`` lists it, or when its import
line carries ``# noqa: F401`` (imports kept for another module to find).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/implreg/*.py"), *ROOT.glob("scripts/*.py")])


def _bound_names(node):
    # (name the import binds, line it is on) per imported name
    for alias in node.names:
        if alias.name == "*":
            continue
        bound = alias.asname or (alias.name.split(".")[0] if isinstance(node, ast.Import) else alias.name)
        yield bound, node.lineno


def _used_names(tree) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name, lineno in _bound_names(node):
                if name not in used and "# noqa: F401" not in lines[lineno - 1]:
                    unused.append(f"line {lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_sources_found():
    assert len(SOURCES) >= 10


def test_checker_flags_and_spares():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path as osp\n"
        "from typing import Mapping, Sequence\n"
        "from .x import kept  # noqa: F401\n"
        "from .y import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Sequence) -> 'Mapping':\n"
        "    return sys.argv\n"
    )
    assert unused_imports(src) == ["line 2: os", "line 3: osp"]
