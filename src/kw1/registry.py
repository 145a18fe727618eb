"""Builtin example algebras and the JSON input document format.

Documents are a single JSON object; rationals are strings ("a" or
"a/b" with positive denominator) so no float ever touches a structure
constant:

    {
      "name": "sl2",
      "basis": ["h", "e", "f"],
      "brackets": [
        {"left": "h", "right": "e", "result": {"e": "2"}},
        {"left": "h", "right": "f", "result": {"f": "-2"}},
        {"left": "e", "right": "f", "result": {"h": "1"}}
      ],
      "pmapOverride": {"h": {"h": "1"}}        // optional
    }

Builtin names: abelian:N, nonabelian2, heisenberg, sl2, gl2, borel2,
and the three-dimensional weighted family remark:N:M with relations
[h,x] = N x, [h,y] = M y, [x,y] = 0.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import DuplicateLabel, JacobiError, ParseError
from .liealg import LieAlgebraPresentation, validate_presentation

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _parse_rational(text, location):
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(
            f"expected a rational string 'a' or 'a/b' with b > 0, got {text!r}",
            location,
        )
    return Fraction(text)


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def abelian(n: int) -> LieAlgebraPresentation:
    return LieAlgebraPresentation(
        f"abelian:{n}", tuple(f"x{i + 1}" for i in range(n)), {}
    )


def nonabelian2() -> LieAlgebraPresentation:
    return LieAlgebraPresentation("nonabelian2", ("h", "x"), {(0, 1): {1: 1}})


def heisenberg() -> LieAlgebraPresentation:
    return LieAlgebraPresentation("heisenberg", ("x", "y", "z"), {(0, 1): {2: 1}})


def sl2() -> LieAlgebraPresentation:
    return LieAlgebraPresentation(
        "sl2", ("h", "e", "f"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    )


def gl2() -> LieAlgebraPresentation:
    basis = [(1, 1), (1, 2), (2, 1), (2, 2)]
    constants = {}
    for i in range(4):
        for j in range(i + 1, 4):
            (a, b), (c, d) = basis[i], basis[j]
            comp: dict = {}
            if b == c:
                k = basis.index((a, d))
                comp[k] = comp.get(k, 0) + 1
            if d == a:
                k = basis.index((c, b))
                comp[k] = comp.get(k, 0) - 1
            comp = {k: v for k, v in comp.items() if v}
            if comp:
                constants[(i, j)] = comp
    return LieAlgebraPresentation(
        "gl2", ("e11", "e12", "e21", "e22"), constants
    )


def borel2() -> LieAlgebraPresentation:
    return LieAlgebraPresentation("borel2", ("h", "e"), {(0, 1): {1: 2}})


def remark_family(n: int, m: int) -> LieAlgebraPresentation:
    """The weighted three-dimensional family [h,x] = n x, [h,y] = m y."""
    if n < 1 or m < 1:
        raise ParseError(f"remark family needs positive weights, got {n}:{m}")
    return LieAlgebraPresentation(
        f"remark:{n}:{m}", ("h", "x", "y"), {(0, 1): {1: n}, (0, 2): {2: m}}
    )


def get_example(name: str) -> LieAlgebraPresentation:
    """Resolve a builtin name, including parametric forms."""
    if name == "nonabelian2":
        return nonabelian2()
    if name == "heisenberg":
        return heisenberg()
    if name == "sl2":
        return sl2()
    if name == "gl2":
        return gl2()
    if name == "borel2":
        return borel2()
    if name.startswith("abelian:"):
        try:
            return abelian(int(name.split(":")[1]))
        except (IndexError, ValueError):
            raise ParseError(f"bad abelian example name {name!r}") from None
    if name.startswith("remark:"):
        parts = name.split(":")
        try:
            return remark_family(int(parts[1]), int(parts[2]))
        except (IndexError, ValueError):
            raise ParseError(f"bad remark example name {name!r}") from None
    raise ParseError(f"unknown example {name!r}")


def builtin_examples() -> dict:
    """Representative instances of every builtin, validated on the spot."""
    out = {}
    for pres in (
        abelian(2),
        abelian(4),
        nonabelian2(),
        heisenberg(),
        sl2(),
        gl2(),
        borel2(),
        remark_family(1, 1),
        remark_family(1, 2),
        remark_family(2, 3),
    ):
        bad = validate_presentation(pres)
        if bad:
            raise JacobiError([t[:3] for t in bad])
        out[pres.name] = pres
    return out


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def parse_document(doc: dict) -> LieAlgebraPresentation:
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError("missing or empty 'name'", "name")
    labels = doc.get("basis")
    if not isinstance(labels, list) or not labels or not all(
        isinstance(x, str) and x for x in labels
    ):
        raise ParseError("'basis' must be a nonempty list of labels", "basis")
    seen = set()
    for lbl in labels:
        if lbl in seen:
            raise DuplicateLabel(lbl)
        seen.add(lbl)
    index = {lbl: i for i, lbl in enumerate(labels)}
    constants: dict = {}
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("'brackets' must be a list", "brackets")
    for k, entry in enumerate(brackets):
        loc = f"brackets[{k}]"
        if not isinstance(entry, dict):
            raise ParseError("bracket entries must be objects", loc)
        left = entry.get("left")
        right = entry.get("right")
        for lbl in (left, right):
            if not isinstance(lbl, str) or lbl not in index:
                raise ParseError(f"undeclared label {lbl!r}", loc)
        if left == right:
            raise ParseError(f"bracket [{left}, {right}] is identically zero", loc)
        i, j = index[left], index[right]
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        if (i, j) in constants:
            raise ParseError(f"bracket [{left}, {right}] given twice", loc)
        comp = {}
        result = entry.get("result", {})
        if not isinstance(result, dict):
            raise ParseError("'result' must map labels to rational strings", loc)
        for lbl, val in result.items():
            if lbl not in index:
                raise ParseError(f"undeclared label {lbl!r} in result", loc)
            comp[index[lbl]] = sign * _parse_rational(val, f"{loc}.result.{lbl}")
        constants[(i, j)] = comp
    override = None
    if "pmapOverride" in doc and doc["pmapOverride"] is not None:
        raw = doc["pmapOverride"]
        if not isinstance(raw, dict):
            raise ParseError("'pmapOverride' must be an object", "pmapOverride")
        override = {}
        for lbl, row in raw.items():
            if lbl not in index:
                raise ParseError(f"undeclared label {lbl!r}", "pmapOverride")
            if not isinstance(row, dict):
                raise ParseError("override rows must be objects", f"pmapOverride.{lbl}")
            override[lbl] = {}
            for tgt, val in row.items():
                if tgt not in index:
                    raise ParseError(
                        f"undeclared label {tgt!r}", f"pmapOverride.{lbl}"
                    )
                override[lbl][tgt] = _parse_rational(val, f"pmapOverride.{lbl}.{tgt}")
    pres = LieAlgebraPresentation(name, labels, constants, pmap_override=override)
    bad = validate_presentation(pres)
    if bad:
        raise JacobiError([t[:3] for t in bad])
    return pres


def parse_input(source: str) -> LieAlgebraPresentation:
    """Parse a JSON document from a path or a literal JSON string."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read input file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", f"line {exc.lineno}") from None
    return parse_document(doc)


def render_document(pres: LieAlgebraPresentation) -> dict:
    """Inverse of parse_document on valid presentations."""
    brackets = []
    for (i, j), comp in sorted(pres.constants.items()):
        brackets.append(
            {
                "left": pres.labels[i],
                "right": pres.labels[j],
                "result": {
                    pres.labels[k]: str(v) for k, v in sorted(comp.items())
                },
            }
        )
    doc = {"name": pres.name, "basis": list(pres.labels), "brackets": brackets}
    if pres.pmap_override is not None:
        doc["pmapOverride"] = {
            lbl: {tgt: str(v) for tgt, v in sorted(row.items())}
            for lbl, row in sorted(pres.pmap_override.items())
        }
    return doc
