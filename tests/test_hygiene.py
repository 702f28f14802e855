"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alefem"

# Imported for other modules to find here: the benchmark's tracer wraps
# `alefem.assembly.GeometryTables.__init__`.
RE_EXPORTS = {("assembly.py", "GeometryTables")}


def unused_imports(tree: ast.Module):
    """(line, name) of every name bound by an import that the scope of
    the import (its module or function, nested functions included) never
    reads."""
    unused = []

    def visit(scope):
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                visit(node)
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append((node.lineno, name))

    visit(tree)
    return sorted(unused)


def test_scan_finds_unused_names():
    tree = ast.parse("import os\nimport numpy as np\n\n"
                     "def f():\n    from math import pi, tau\n    return pi\n\n"
                     "def g():\n    return np.zeros(1)\n")
    assert unused_imports(tree) == [(1, "os"), (5, "tau")]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    tree = ast.parse((PACKAGE / path).read_text())
    unused = [(line, name) for line, name in unused_imports(tree)
              if (path, name) not in RE_EXPORTS]
    assert unused == [], f"{path}: imported but unused: {unused}"
