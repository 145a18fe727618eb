"""Only ``kw1.fields`` knows how an element of F_{p^e} is stored.

An ``FFElem`` keeps its e residues in ``.coeffs``; every other module
reads them through ``GF.coefficients`` and builds elements with
``GF.elem``, so a prime-field scalar (a plain int) passes through the
same code.  This walks the syntax tree of every library module except
``fields.py`` and fails on an attribute read of ``coeffs`` or a call of
``FFElem``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kw1"


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "coeffs":
            yield node.lineno, ".coeffs"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "FFElem":
                yield node.lineno, "FFElem(...)"


def test_only_fields_reads_the_extension_layout():
    modules = sorted(p for p in SRC.glob("**/*.py") if p.name != "fields.py")
    assert len(modules) > 10
    found = [
        f"{path.relative_to(SRC)}:{line} {what}"
        for path in modules
        for line, what in _offences(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"F_(p^e) layout read outside kw1.fields: {found}"


def test_the_walk_sees_both_reads():
    tree = ast.parse("a = x.coeffs\nb = fields.FFElem(f, (1, 0))\nc = FFElem(f, (0, 1))\n")
    assert sorted(_offences(tree)) == [(1, ".coeffs"), (2, "FFElem(...)"), (3, "FFElem(...)")]
