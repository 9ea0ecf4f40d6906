"""No imported name goes unread.

CI's ruff selection has no F401 (unused import), so this is the check: an
``ast`` walk over every Python file of the library, the tests, the
benchmarks, the scripts and the examples that reports each imported name
nothing in its file loads.  A name counts as used when an ``ast.Name``
loads it, when the module's ``__all__`` lists it, or when a string
annotation names it.  Imports in an ``__init__.py`` are re-exports, and an
import line that carries ``# noqa`` is kept on purpose.

``perfbench/`` is not walked: it is the benchmark's own harness, which
changes only together with the benchmark.

Run it as a script to print the findings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WALKED = ("src/repro", "tests", "benchmarks", "scripts", "examples")


def _annotation_names(node):
    """Names loaded by an annotation, inside its string parts too."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out |= _annotation_names(expr)
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree):
    """The strings of a module-level ``__all__`` list or tuple."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                for elt in ast.walk(node.value):
                    if isinstance(elt, ast.Constant) \
                            and isinstance(elt.value, str):
                        names.add(elt.value)
    return names


def unused_imports(path: Path):
    """``(line, name)`` for each name ``path`` imports and never reads."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Load, ast.Del))}
    used |= _exported(tree)
    for ann in _annotations(tree):
        used |= _annotation_names(ann)
    reexports = path.name == "__init__.py"
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if reexports and node in tree.body:
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa" in line for line in span):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                found.append((node.lineno, bound))
    return found


def findings():
    out = []
    for top in WALKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path):
                out.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    return out


def test_no_unused_imports():
    assert findings() == []


def test_the_walk_sees_what_it_must_and_nothing_else(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from collections import deque  # noqa: F401\n"
        "from fractions import Fraction\n"
        "from decimal import Decimal\n"
        "__all__ = ['Fraction']\n"
        "def f(x: 'Optional[Dict]') -> None:\n"
        "    return os.path.join(x)\n")
    assert unused_imports(mod) == [(2, "json"), (4, "List"),
                                   (7, "Decimal")]
    init = tmp_path / "__init__.py"
    init.write_text("from json import dumps\n")
    assert unused_imports(init) == []


if __name__ == "__main__":
    print("\n".join(findings()))
