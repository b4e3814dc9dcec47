"""Every import in the package and the scripts is used, and every public
name is read.

No linter ships with the test dependencies, so this is the unused-import
check (pyflakes' F401) on the standard library's ``ast``.  A name counts
as used when the module reads it anywhere, annotations included (string
annotations are parsed), when ``__all__`` lists it, or when its import
line carries ``# noqa: F401`` (imports kept for another module to find).
A second check finds dead public code: every ``__all__`` name of the
package must be read by the package, the scripts or the benchmark, or be
kept for a stated reason.  The last test keeps the process pool's
imports off the CLI's start.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/implreg/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("scripts/*.py")])
# the code a run executes: the package, the scripts and the benchmark (not its tests)
PROGRAM = [*SOURCES, *sorted(p for p in ROOT.glob("perfbench/*.py") if not p.name.startswith("test_"))]

# public names that nothing in PROGRAM reads, and why each stays
KEPT_UNREFERENCED = {
    "implreg.stream": "the package-level seed entry the README documents (rng.stream re-exported)",
    "matfac.loss": "test oracle for the step kernels' loss (finite-difference gradients)",
    "matfac.factor_gradients": "criterion 11",
    "matfac.product_ode_step": "criterion 6",
    "matfac.singular_value_rates": "ROADMAP item 19",
    "matfac.unbalancedness_magnitude": "criteria 5 and 8",
    "matfac.balance_project": "criterion 8",
    "metrics.dist_from_rank": "ROADMAP item 10",
    "metrics.solution_singular_values": "criterion 7",
    "metrics.solution_norm_argmin": "criterion 7",
    "tenfac.cp_loss_and_grads": "criterion 11",
}


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


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, (ast.Import, ast.ImportFrom)):  # a re-export
        return any(bound == name for bound, _ in _bound_names(node))
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def reads(tree, where: str, module: str, name: str) -> bool:
    """Whether the code of module ``where`` reads ``name`` of ``module``
    (both dotted, e.g. "implreg.matfac"): by its bare name inside the
    defining module, as ``matfac.name``, through ``from ... import name``
    (a submodule also through ``from .name import ...``),
    or as a string in a script or benchmark module that imports
    ``module`` (the benchmark names its trace targets by attribute).  The
    defining statement and ``__all__`` do not count."""
    short = module.rpartition(".")[2]
    own = where == module
    by_string = not where.startswith("implreg") and any(
        isinstance(n, ast.alias) and (n.asname or n.name) == short for n in ast.walk(tree)
    )
    for top in tree.body:
        if _is_all(top) or (own and _defines(top, name)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                origin = "implreg" + (f".{node.module}" if node.module else "") if node.level else node.module
                if origin == f"{module}.{name}" or (origin == module and any(a.name == name for a in node.names)):
                    return True
            elif (
                (own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name and getattr(node.value, "id", None) == short)
                or (by_string and isinstance(node, ast.Constant) and node.value == name)
            ):
                return True
    return False


def _module(path: Path) -> str:
    return "implreg" if path.stem == "__init__" else f"implreg.{path.stem}"


def test_every_public_name_is_read_or_kept():
    trees = {_module(p) if p in PACKAGE else str(p): ast.parse(p.read_text()) for p in PROGRAM}
    unread = set()
    for path in PACKAGE:
        module = _module(path)
        for name in (e.value for node in trees[module].body if _is_all(node) for e in node.value.elts):
            if not any(reads(tree, where, module, name) for where, tree in trees.items()):
                unread.add(f"{module.removeprefix('implreg.')}.{name}")
    assert sorted(unread) == sorted(KEPT_UNREFERENCED)


def test_read_check_sees_each_kind_of_read():
    lib = ast.parse("__all__ = ['f', 'g']\ndef f():\n    return f\ndef g(x):\n    return f(x)\n")
    assert not reads(lib, "implreg.lib", "implreg.lib", "g")
    assert reads(lib, "implreg.lib", "implreg.lib", "f")
    for user in ("from .lib import g", "from implreg import lib\nlib.g(1)", "from .lib.g import h"):
        assert reads(ast.parse(user), "implreg.user", "implreg.lib", "g")
    traced = ast.parse("from implreg import lib\nT = (lib, 'g')")
    assert reads(traced, "perfbench/layers.py", "implreg.lib", "g")
    assert not reads(traced, "implreg.user", "implreg.lib", "g")  # a column name, say
    assert not reads(ast.parse("T = ('g',)\ng = 1\n"), "perfbench/layers.py", "implreg.lib", "g")
    assert not reads(ast.parse("from . import lib\n"), "implreg", "implreg", "lib")  # its own re-export


def test_cli_import_leaves_out_the_process_pool():
    # a serial run never starts a pool, so starting the CLI must not pay
    # for importing multiprocessing
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    code = "import sys, implreg.cli; print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
