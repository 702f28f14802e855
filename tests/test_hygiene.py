"""No module of the package or of its tests imports a name it never
uses."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "alefem"

# Imported for other modules to find here: the benchmark's tracer wraps
# `alefem.assembly.GeometryTables.__init__`, and the tests import
# `smooth_displacement` from conftest.
RE_EXPORTS = {("assembly.py", "GeometryTables"),
              ("conftest.py", "smooth_displacement")}


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


@pytest.mark.parametrize("path", sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list(TESTS.glob("*.py"))), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = [(line, name) for line, name in unused_imports(tree)
              if (path.name, name) not in RE_EXPORTS]
    assert unused == [], f"{path.name}: imported but unused: {unused}"


# Public names kept although nothing in the package uses them.
UNREFERENCED_OK = {
    # raised by nothing yet; the benchmark's workloads import it
    ("fespace.py", "NewtonError"),
    # Gmsh reader and writer, kept for replaying dumped failures
    ("msh_io.py", "read_msh"),
    ("msh_io.py", "write_msh"),
}


def names_read(node) -> set[str]:
    """Names a statement refers to: plain names, attributes and the
    names it imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def unreferenced_public(modules: dict[str, ast.Module]):
    """(module, name) of every top-level public function or class that
    no statement of the package refers to, its own definition aside."""
    statements = [(path, stmt) for path, tree in modules.items()
                  for stmt in tree.body]
    reads = [names_read(stmt) for _, stmt in statements]
    unused = []
    for i, (path, stmt) in enumerate(statements):
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not stmt.name.startswith("_")
                and not any(stmt.name in r for j, r in enumerate(reads)
                            if j != i)):
            unused.append((path, stmt.name))
    return sorted(unused)


def test_scan_finds_unreferenced_public_names():
    modules = {
        "a.py": ast.parse("def used():\n    pass\n\n"
                          "def lonely():\n    return lonely\n\n"
                          "class _Private:\n    pass\n"),
        "b.py": ast.parse("from .a import used\n"),
    }
    assert unreferenced_public(modules) == [("a.py", "lonely")]


def test_every_public_name_is_used_in_the_package():
    modules = {p.name: ast.parse(p.read_text())
               for p in sorted(PACKAGE.glob("*.py"))}
    unused = [entry for entry in unreferenced_public(modules)
              if entry not in UNREFERENCED_OK]
    assert unused == [], f"public but unused in the package: {unused}"
