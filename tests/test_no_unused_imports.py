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
"""

import ast
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
