"""Static checks on the package source that need no linter."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ldbounds"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references.

    A name counts as referenced when it appears as an identifier anywhere
    in the module, annotations included, or inside a string annotation.
    `from __future__ import ...` is exempt.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                parsed = ast.parse(ann.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


def test_unused_imports_detects_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from typing import Callable\n"
        "from .bounds import ceil_ratio, covering_count_log2\n"
        "def f(g: 'Callable') -> int:\n"
        "    return ceil_ratio(1, math.pi)\n"
    )
    assert unused_imports(source) == ["covering_count_log2 (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """Underscore names a module imports from another ldbounds module."""
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ldbounds")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_imports_detects_an_underscore_name():
    source = (
        "from __future__ import annotations\n"
        "from numpy import _NoValue\n"
        "from .norms import _gaps, distance\n"
        "from ldbounds.queryfn import _CHUNK_CELLS\n"
    )
    assert private_imports(source) == ["_CHUNK_CELLS (line 4)", "_gaps (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_all_lists_every_imported_name():
    # `from ldbounds import *` gives exactly what the package imports
    import ldbounds

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(ldbounds.__all__) == sorted(imported)
