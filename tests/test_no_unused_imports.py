"""Every name the library imports is used, and no private name or constant is dead.

No linter ships with the test extra, so this walks the syntax tree of
every module under ``src/kw1`` with the standard library only.  An
imported name counts as used when it occurs as a ``Name`` anywhere in the
module or is listed in ``__all__``.  ``__init__.py`` files re-export on
purpose and are skipped, as are ``from __future__`` imports.

A module-level ``_private`` name or ALL-CAPS constant (assigned, or
defined by ``def`` or ``class``) counts as referenced when any module of
the library reads it as a ``Name``, an attribute or an imported name;
tests do not count.

A method of a ``matops`` class or of a private class, dunders aside,
counts as reached when some attribute access in the library names it.
An override of a base-class method is exempt: the base class calls it.

A defaulted parameter of a ``_private`` function or method counts as
live when some call in the library to a function of that name passes
it, by keyword or by position; a call that unpacks ``*args`` or
``**kwargs`` passes every parameter.  A parameter no call passes is a
constant in disguise.
"""

import ast
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kw1"


def _imported_names(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)
            )
    return used


def test_library_has_no_unused_imports():
    modules = sorted(p for p in SRC.glob("**/*.py") if p.name != "__init__.py")
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for name, line in _imported_names(tree):
            if name not in used:
                found.append(f"{path.relative_to(SRC)}:{line} {name}")
    assert not found, f"unused imports in the library: {found}"


def _module_level_names(tree):
    """(name, line) of every private name or constant the module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if re.fullmatch(r"_[A-Za-z0-9]\w*|[A-Z][A-Z0-9_]*", name) and not name.startswith("__"):
                yield name, node.lineno


def _read_names(tree):
    """Names a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _dead_names(trees):
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    return [
        f"{path}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _module_level_names(tree)
        if name not in read
    ]


def test_library_has_no_dead_private_names_or_constants():
    trees = {
        path.relative_to(SRC): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("**/*.py"))
    }
    assert trees
    dead = _dead_names(trees)
    assert not dead, f"private names or constants nothing in the library reads: {dead}"


def _methods(tree, module):
    """(class, method, line) of each non-dunder method of a class the check covers."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (module == "matops" or node.name.startswith("_")):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield node.name, item.name, item.lineno


def _dead_methods(trees, namespaces):
    """Covered methods no attribute access reaches; ``namespaces`` holds the live classes."""
    reached = {
        node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    dead = []
    for path, tree in trees.items():
        for cls, name, line in _methods(tree, path.stem):
            bases = namespaces[path][cls].__mro__[1:]
            if name not in reached and not any(name in vars(base) for base in bases):
                dead.append(f"{path}:{line} {cls}.{name}")
    return dead


def test_library_has_no_unreached_methods():
    trees = {
        path.relative_to(SRC): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("**/*.py"))
        if path.name != "__init__.py"
    }
    namespaces = {
        path: vars(importlib.import_module(".".join(("kw1",) + path.with_suffix("").parts)))
        for path in trees
    }
    dead = _dead_methods(trees, namespaces)
    assert not dead, f"methods nothing in the library reaches: {dead}"


def _private_functions(tree):
    """(name, positional parameters a call fills, defaulted parameters, line) of each private def.

    A method called on an instance fills its parameters after ``self``.
    """
    methods = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not re.fullmatch(r"_[A-Za-z0-9]\w*", node.name):
            continue
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args][id(node) in methods:]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if defaulted:
            yield node.name, positional, defaulted, node.lineno


def _dead_parameters(trees):
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    dead = []
    for path, tree in trees.items():
        for name, positional, defaulted, line in _private_functions(tree):
            passed = set()
            for call in calls.get(name, ()):
                if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords
                ):
                    passed.update(defaulted)
                passed.update(positional[: len(call.args)])
                passed.update(k.arg for k in call.keywords)
            dead += [f"{path}:{line} {name}({arg})" for arg in defaulted if arg not in passed]
    return dead


def test_library_has_no_dead_parameters():
    trees = {
        path.relative_to(SRC): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("**/*.py"))
    }
    assert trees
    dead = _dead_parameters(trees)
    assert not dead, f"defaulted parameters no call in the library passes: {dead}"


def test_the_check_sees_a_dead_parameter():
    tree = ast.parse(
        "def _scale(x, factor=2, *, cap=9, strict=False):\n    return x * factor\n\n"
        "def _spread(*rows, width=1):\n    return rows\n\n"
        "class _Table:\n    def _row(self, i, width=3):\n        return i\n\n"
        "def public(t, ok=True):\n"
        "    return _scale(1, 3, strict=True) + t._row(0) + _spread(*t)\n"
    )
    assert _dead_parameters({"m.py": tree}) == ["m.py:1 _scale(cap)", "m.py:8 _row(width)"]


def test_the_check_sees_an_unreached_method():
    sources = {
        Path("m.py"): (
            "import argparse\n\n"
            "class _Table:\n    def used(self):\n        return 1\n\n"
            "    def dead(self):\n        return 2\n\n"
            "    def __len__(self):\n        return 0\n\n"
            "class _Parser(argparse.ArgumentParser):\n    def error(self, message):\n        raise SystemExit(message)\n\n"
            "class Public:\n    def dead(self):\n        return 3\n\n"
            "def run(t, ops):\n    return t.used() + len(ops.nullspace(t))\n"
        ),
        Path("matops.py"): (
            "class ExtOps:\n    def nullspace(self, a):\n        return a\n\n"
            "    def nullity(self, a):\n        return 0\n"
        ),
    }
    trees = {path: ast.parse(src) for path, src in sources.items()}
    namespaces = {}
    for path, src in sources.items():
        namespaces[path] = {}
        exec(compile(src, str(path), "exec"), namespaces[path])
    assert _dead_methods(trees, namespaces) == ["m.py:7 _Table.dead", "matops.py:5 ExtOps.nullity"]


def test_the_check_sees_a_dead_name():
    tree = ast.parse(
        "CAP = 3\nUNUSED = 4\n_rounds = 2\n\n"
        "def _helper():\n    return CAP\n\n"
        "class _Table:\n    pass\n\n"
        "def public():\n    return _helper()\n"
    )
    assert _dead_names({"m.py": tree}) == ["m.py:2 UNUSED", "m.py:3 _rounds", "m.py:8 _Table"]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n")
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["os", "lcm"]
