"""The library signals failures with exceptions, never with ``assert``.

``python -O`` strips assert statements, so a check written as one would
silently stop checking.  This walks the syntax tree of every module under
``src/kw1`` and fails on any ``Assert`` node.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kw1"


def test_library_has_no_assert_statements():
    modules = sorted(SRC.glob("**/*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"
