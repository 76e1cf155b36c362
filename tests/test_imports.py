"""Every name a module in src/ or tests/ imports is used in that module, and
the third-party modules src/ imports are the dependencies pyproject.toml
declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))
# distributions whose import name is not their own name
IMPORT_NAMES = {"PyYAML": "yaml"}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a bare name, as the root of an
    attribute chain, inside a quoted annotation, or in `__all__`. A name
    that only appears in some other string is not read. `__future__`
    imports are directives, not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for ann in filter(None, annotations):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                expr = ast.parse(c.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from math import pi, tau as two_pi\n"
        "from typing import Sequence\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return numpy.linalg.norm(x) + pi + sys.maxsize, 'os-two_pi'\n"
    )
    assert unused_imports(source) == ["dumps (line 6)", "os (line 2)", "two_pi (line 4)"]


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports of a module that are not in
    the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text()) for p in SOURCES))
    assert {IMPORT_NAMES.get(d, d) for d in declared} == imported


def test_dependency_guard_sees_third_party_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy.linalg as la\n"
        "from scipy import optimize\n"
        "from . import rng\n"
        "from .solvers import Row\n"
    )
    assert third_party_imports(source) == {"numpy", "scipy"}
