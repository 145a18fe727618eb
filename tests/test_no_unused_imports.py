"""Every name the library imports is used in the module that imports it.

No linter ships with the test extra, so this walks the syntax tree of
every module under ``src/kw1`` with the standard library only.  A name
counts as used when it occurs as a ``Name`` anywhere in the module or is
listed in ``__all__``.  ``__init__.py`` files re-export on purpose and are
skipped, as are ``from __future__`` imports.
"""

import ast
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


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n")
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["os", "lcm"]
