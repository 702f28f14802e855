"""No module of the package or of its tests imports a name it never
uses; every public name and every parameter default of the package is
used by the package; no function of the package takes a mesh beside a
space; the package keeps no state at module level; importing the
package starts no thread."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "alefem"

# Imported for other modules to find here: the benchmark's tracer wraps
# `alefem.assembly.GeometryTables.__init__` and the `__post_init__` and
# `locate` of `alefem.fespace.PointLocator`, the benchmark's workloads
# import `PointLocationError` from `alefem.fespace`, and the tests import
# `smooth_displacement` from conftest.
RE_EXPORTS = {("assembly.py", "GeometryTables"),
              ("fespace.py", "PointLocator"),
              ("fespace.py", "PointLocationError"),
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
}


def module_aliases(tree: ast.Module) -> set[str]:
    """Names bound to modules by `import x [as y]` or `from . import x
    [as y]` anywhere in the module."""
    return {(alias.asname or alias.name).split(".")[0]
            for n in ast.walk(tree)
            if isinstance(n, ast.Import)
            or (isinstance(n, ast.ImportFrom) and n.module is None)
            for alias in n.names}


def names_read(node, aliases: set[str]) -> set[str]:
    """Names a statement refers to: the names it loads, the attributes
    it reads off the module aliases of its module (`meshmod.displace`)
    and the names it imports.  A field declaration stores its name and
    an attribute of any other object is not a reference."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in aliases):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def unreferenced_public(modules: dict[str, ast.Module]):
    """(module, name) of every top-level public function or class that
    no statement of the package refers to, its own definition aside."""
    statements = [(path, stmt) for path, tree in modules.items()
                  for stmt in tree.body]
    aliases = {path: module_aliases(tree) for path, tree in modules.items()}
    reads = [names_read(stmt, aliases[path]) for path, stmt in statements]
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
                          "def field():\n    pass\n\n"
                          "def attr():\n    pass\n\n"
                          "def qualified():\n    pass\n\n"
                          "class _Private:\n    pass\n"),
        "b.py": ast.parse("from dataclasses import dataclass\n"
                          "from . import a as amod\n"
                          "from .a import used\n\n"
                          "@dataclass\nclass _Record:\n    field: float\n\n"
                          "def _show(rec):\n"
                          "    return rec.attr, amod.qualified()\n"),
    }
    assert unreferenced_public(modules) == [
        ("a.py", "attr"), ("a.py", "field"), ("a.py", "lonely")]


def package_modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text())
            for p in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_is_used_in_the_package():
    unused = [entry for entry in unreferenced_public(package_modules())
              if entry not in UNREFERENCED_OK]
    assert unused == [], f"public but unused in the package: {unused}"


# Functions that may take a mesh beside a space or a pair of spaces.
MESH_BESIDE_SPACES_OK = {
    # the benchmark's workloads call it with both; it refuses a pair that
    # was not built on mesh_star
    ("verify.py", "homotopy_identity_residual"),
    # it binds a pair to a mesh of the same connectivity
    ("ale.py", "spaces_with_mesh"),
}
MESH_TYPES = {"Mesh"}
SPACE_TYPES = {"FESpacePair", "ScalarSpace"}


def _parameter_kinds(arg: ast.arg) -> set[str]:
    """"mesh" and/or "spaces" for a parameter that names or annotates a
    mesh or a space (or a pair of spaces)."""
    annotated = ({n.id for n in ast.walk(arg.annotation)
                  if isinstance(n, ast.Name)} if arg.annotation else set())
    name = arg.arg
    kinds = set()
    if annotated & MESH_TYPES or name == "mesh" or name.startswith("mesh_"):
        kinds.add("mesh")
    if (annotated & SPACE_TYPES or name in ("space", "spaces")
            or name.endswith(("_space", "_spaces"))):
        kinds.add("spaces")
    return kinds


def mesh_beside_spaces(modules: dict[str, ast.Module]):
    """(module, function) of every function that takes a mesh parameter
    and a space or pair parameter: a configuration named twice, whose
    two names can disagree."""
    found = []
    for path, tree in modules.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            kinds = set().union(*map(_parameter_kinds, a.posonlyargs
                                     + a.args + a.kwonlyargs))
            if kinds == {"mesh", "spaces"}:
                found.append((path, fn.name))
    return sorted(found)


def test_scan_finds_a_mesh_beside_spaces():
    modules = {"a.py": ast.parse(
        "def by_name(mesh, spaces):\n    pass\n\n"
        "def by_type(m: Mesh, *, s: FESpacePair | None = None):\n"
        "    pass\n\n"
        "def scalar(velocity_space, mesh_star):\n    pass\n\n"
        "class C:\n    def method(self, space: ScalarSpace, mesh):\n"
        "        pass\n\n"
        "def mesh_only(mesh: Mesh, meshes):\n    pass\n\n"
        "def spaces_only(spaces, old: FESpacePair):\n    pass\n")}
    assert mesh_beside_spaces(modules) == [
        ("a.py", "by_name"), ("a.py", "by_type"), ("a.py", "method"),
        ("a.py", "scalar")]


def test_no_function_takes_a_mesh_beside_its_spaces():
    """A pair of spaces (or a scalar space) names its configuration, and
    the mesh is read off it; see `ale.spaces_with_mesh`."""
    found = [entry for entry in mesh_beside_spaces(package_modules())
             if entry not in MESH_BESIDE_SPACES_OK]
    assert found == [], f"a mesh beside a space or pair: {found}"


# Defaults kept although no call in the package passes the parameter.
DEFAULTS_OK = {
    # argparse reads sys.argv without it; the tests and the benchmark's
    # make_reference.py pass an argument list
    ("cli.py", "main", "argv"),
}


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether call passes the parameter name, whose position among the
    arguments is index (None for a keyword-only parameter)."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return (len(call.args) > index
            or any(isinstance(a, ast.Starred) for a in call.args))


def defaults_never_passed(modules: dict[str, ast.Module]):
    """(module, function, parameter) of every parameter with a default
    that no call in the modules passes, by keyword or by position.
    Calls match functions by name, plain or as an attribute; self and
    cls are skipped."""
    calls = defaultdict(list)
    for tree in modules.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                if isinstance(f, (ast.Name, ast.Attribute)):
                    calls[f.id if isinstance(f, ast.Name) else f.attr].append(n)
    unset = []
    for path, tree in modules.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            bound = int(bool(positional)
                        and positional[0].arg in ("self", "cls"))
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i - bound) for i, a in enumerate(positional)
                      if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                       if d is not None]
            unset += [(path, fn.name, name) for name, index in params
                      if not any(_passes(c, name, index)
                                 for c in calls[fn.name])]
    return sorted(unset)


def test_default_scan_finds_unpassed_parameters():
    modules = {
        "a.py": ast.parse(
            "def f(x, y=1, *, z=2, w=3):\n    pass\n\n"
            "class C:\n    def m(self, a=0, b=0):\n        pass\n\n"
            "def g(*args):\n    pass\n\n"
            "def h(p=0, q=0):\n    pass\n"),
        "b.py": ast.parse("f(0, z=5)\nC().m(1)\nh(*g())\n"),
    }
    assert defaults_never_passed(modules) == [
        ("a.py", "f", "w"), ("a.py", "f", "y"), ("a.py", "m", "b")]


def test_every_default_is_set_by_a_caller():
    unset = [entry for entry in defaults_never_passed(package_modules())
             if entry not in DEFAULTS_OK]
    assert unset == [], f"defaults that no call in the package sets: {unset}"


# Functions that may keep a cache at module level: pure functions of
# integers and form names, whose results cannot go stale.
CACHED_OK = {("assembly.py", "_reference_tensor"),
             ("quadrature.py", "triangle_rule"),
             ("quadrature.py", "edge_rule"),
             ("reference.py", "reference_element"),
             ("reference.py", "edge_element")}

CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "deque",
                   "OrderedDict"}
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop",
            "popitem", "clear", "add", "discard", "remove"}


def _called_name(node) -> str | None:
    f = node.func if isinstance(node, ast.Call) else node
    if isinstance(f, ast.Name):
        return f.id
    return f.attr if isinstance(f, ast.Attribute) else None


def module_state(path: str, tree: ast.Module):
    """(line, what) of every way the module keeps state between calls:
    a `global` statement, a cache decorator, a module-level name bound
    to None (a slot to fill later), and a module-level container that a
    statement of the module changes."""
    found = [(n.lineno, "global " + ", ".join(n.names))
             for n in ast.walk(tree) if isinstance(n, ast.Global)]
    found += [(fn.lineno, "cache " + fn.name) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and (path, fn.name) not in CACHED_OK
              and any(_called_name(d) in ("lru_cache", "cache")
                      for d in fn.decorator_list)]
    containers = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        value = stmt.value
        for t in targets:
            if not isinstance(t, ast.Name):
                continue
            if isinstance(value, ast.Constant) and value.value is None:
                found.append((stmt.lineno, t.id))
            elif isinstance(value, CONTAINERS) or (
                    isinstance(value, ast.Call)
                    and _called_name(value) in CONTAINER_CALLS):
                containers[t.id] = stmt.lineno
    for n in ast.walk(tree):
        name = None
        if (isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
                and isinstance(n.ctx, (ast.Store, ast.Del))):
            name = n.value.id
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and isinstance(n.func.value, ast.Name)
              and n.func.attr in MUTATORS):
            name = n.func.value.id
        elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
            name = n.target.id
        if name in containers:
            found.append((containers.pop(name), name))
    return sorted(found)


def test_scan_finds_module_state():
    tree = ast.parse("from functools import lru_cache\n"
                     "_slot = None\n_seen = {}\n_log = []\nTABLE = {1: 2}\n\n"
                     "def f(x):\n    global _slot\n    _slot = x\n"
                     "    _seen[x] = 1\n    _log.append(x)\n"
                     "    return TABLE[x]\n\n"
                     "@lru_cache(maxsize=None)\ndef g(k):\n    return k\n")
    assert module_state("a.py", tree) == [
        (2, "_slot"), (3, "_seen"), (4, "_log"), (8, "global _slot"),
        (15, "cache g")]


def test_package_keeps_no_module_level_state():
    """Caches live on the objects they describe (a mesh keeps its
    geometry table, a pair of spaces the index maps of its numbering),
    so several configurations can be alive at once."""
    state = {path: found for path, tree in package_modules().items()
             if (found := module_state(path, tree))}
    assert state == {}, f"module-level state: {state}"


def test_importing_the_package_starts_no_thread():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    code = ("import importlib, threading\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('alefem.' + name)\n"
            "print(threading.active_count())\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.split() == ["1"]
