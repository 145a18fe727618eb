"""Exact arithmetic in the universal enveloping algebra.

Elements are sparse maps from PBW monomials (exponent vectors in the
basis order of the algebra) to scalars.  Products are straightened to
normal form with the rewrite x_j x_i = x_i x_j - [x_i, x_j] for j > i,
applied recursively one letter at a time and memoized per algebra; the
PBW relations are confluent so no Groebner machinery is needed.

Scalars follow the field kind (``GF.scalar``): over F_p they are plain
ints, residues in [0, p), and a stored coefficient is never 0; over the
rationals they are ``Fraction``.  Elements live over F_p or QQ only:
F_{p^e} enters at specialization points, as coefficient arrays
(``center._CoordinateTerms.values``).  The straightening loops
accumulate raw int products and reduce them mod p when a memo entry or
an element is finished.  Constructors accept int and Fraction
coefficients and normalize them.

Also provides the symmetrization section Sym(g) -> U(g), principal
symbols in the associated graded, and the detector for elements on
which the adjoint action is scalar (semi-invariants).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import (
    CoefficientFieldMismatch,
    FactorialNotInvertible,
    ZeroElement,
)
from .fields import FFElem, QQ, reduce_sparse
from .util import deglex_key

NEG_INF = float("-inf")


def _add_into(out, terms, sign=1):
    """Raw accumulation of ``sign * terms`` into ``out``; reduce afterwards."""
    get = out.get
    for m, c in terms.items():
        out[m] = get(m, 0) + sign * c
    return out


def _divide(field, a, b):
    p = field.residue_modulus
    return a * pow(b, -1, p) % p if p else a / b


# ---------------------------------------------------------------------------
# monomial-level straightening with memoization
# ---------------------------------------------------------------------------

def _mono_times_letter(ctx, mono, k):
    """Normal form of x^mono * x_k as a sparse monomial map."""
    memo = ctx._pbw_memo
    key = (mono, k)
    hit = memo.get(key)
    if hit is not None:
        return hit
    top = -1
    for i in range(len(mono) - 1, -1, -1):
        if mono[i]:
            top = i
            break
    if top <= k:
        ek = tuple(a + (1 if i == k else 0) for i, a in enumerate(mono))
        result = {ek: ctx.field.scalar(1)}
        memo[key] = result
        return result
    # strip the rightmost letter x_top:  x^mono x_k = x^rest (x_top x_k)
    # and x_top x_k = x_k x_top - [x_k, x_top]
    rest = tuple(a - (1 if i == top else 0) for i, a in enumerate(mono))
    out = {}
    get = out.get
    for m2, c2 in _mono_times_letter(ctx, rest, k).items():
        for m3, c3 in _mono_times_letter(ctx, m2, top).items():
            out[m3] = get(m3, 0) + c2 * c3
    for l, cl in ctx.bracket(k, top).items():
        for m2, c2 in _mono_times_letter(ctx, rest, l).items():
            out[m2] = get(m2, 0) - cl * c2
    out = reduce_sparse(out, ctx.field.p)
    memo[key] = out
    return out


def _times_letters(ctx, cur, letters):
    """Normal form of cur * x_{l_1} x_{l_2} ...

    Raw int sums carry over from one letter to the next; each is reduced
    mod p when it is read, and the whole map once at the end.
    """
    p = ctx.field.p
    for letter in letters:
        nxt = {}
        get = nxt.get
        for mono, c in cur.items():
            if p:
                c %= p
            if c:
                for m2, c2 in _mono_times_letter(ctx, mono, letter).items():
                    nxt[m2] = get(m2, 0) + c * c2
        cur = nxt
    return reduce_sparse(cur, p)


def _mono_times_mono(ctx, a, b):
    """Normal form of x^a * x^b, folding the letters of b left to right."""
    if not any(b):
        return {a: ctx.field.scalar(1)}
    if not any(a):
        return {b: ctx.field.scalar(1)}
    memo = ctx._pbw_memo
    key = (a, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    letters = [letter for letter, count in enumerate(b) for _ in range(count)]
    cur = _times_letters(ctx, {a: ctx.field.scalar(1)}, letters)
    memo[key] = cur
    return cur


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class UEElement:
    """Sparse PBW-normal-form element of U(g); immutable by convention."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        scalar = ctx.field.scalar
        self.ctx = ctx
        self.terms = {m: s for m, c in terms.items() if (s := scalar(c))}

    @classmethod
    def _reduced(cls, ctx, terms):
        """Wrap a map that is already canonical (no zeros, reduced scalars)."""
        self = cls.__new__(cls)
        self.ctx = ctx
        self.terms = terms
        return self

    @property
    def degree(self):
        """Filtration degree; -inf for the zero element."""
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if not isinstance(other, UEElement):
            raise TypeError("expected an enveloping-algebra element")
        if other.ctx is not self.ctx:
            raise CoefficientFieldMismatch(
                "elements live over different algebras or coefficient fields"
            )

    def _combine(self, other, sign):
        self._check_compatible(other)
        out = _add_into(dict(self.terms), other.terms, sign)
        return UEElement._reduced(self.ctx, reduce_sparse(out, self.ctx.field.p))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        field = self.ctx.field
        c = field.scalar(c)
        terms = {m: c * v for m, v in self.terms.items()}
        return UEElement._reduced(self.ctx, reduce_sparse(terms, field.p))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FFElem)):
            return self.scale(other)
        return pbw_multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FFElem)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in U(g)")
        result = ue_one(self.ctx)
        for _ in range(k):
            result = pbw_multiply(result, self)
        return result

    def __eq__(self, other):
        return (
            isinstance(other, UEElement)
            and self.ctx is other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def bracket(self, other):
        return pbw_bracket(self, other)

    def render(self) -> str:
        return render_terms(self.terms, self.ctx.labels)

    def __repr__(self):
        return self.render()


def render_monomial(mono, labels) -> str:
    parts = []
    for i, a in enumerate(mono):
        if a == 0:
            continue
        parts.append(labels[i] if a == 1 else f"{labels[i]}^{a}")
    return "*".join(parts) if parts else "1"


def render_scalar(c) -> str:
    return c.render() if isinstance(c, FFElem) else str(c)


def render_terms(terms, labels) -> str:
    """Canonical text form: terms in descending deg-lex order.

    Total and injective on normal forms: coefficients are rendered in
    canonical residue form and monomials in a fixed order, so equal
    strings mean equal elements.
    """
    if not terms:
        return "0"
    parts = []
    for mono in sorted(terms, key=deglex_key, reverse=True):
        c = terms[mono]
        cs = render_scalar(c)
        ms = render_monomial(mono, labels)
        if ms == "1":
            parts.append(cs)
        elif cs == "1":
            parts.append(ms)
        else:
            parts.append(f"{cs}*{ms}")
    return " + ".join(parts)


# constructors -------------------------------------------------------------

def ue_zero(ctx) -> UEElement:
    return UEElement._reduced(ctx, {})


def ue_one(ctx) -> UEElement:
    return ue_monomial(ctx, (0,) * ctx.n)


def ue_gen(ctx, i: int) -> UEElement:
    return ue_monomial(ctx, tuple(1 if k == i else 0 for k in range(ctx.n)))


def ue_monomial(ctx, exps, coeff=1) -> UEElement:
    return UEElement(ctx, {tuple(exps): coeff})


# operations ---------------------------------------------------------------

def pbw_multiply(a: UEElement, b: UEElement) -> UEElement:
    """PBW normal form of the product; deg(ab) <= deg(a) + deg(b)."""
    a._check_compatible(b)
    ctx = a.ctx
    out = {}
    get = out.get
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            c = ca * cb
            for m, cm in _mono_times_mono(ctx, ma, mb).items():
                out[m] = get(m, 0) + c * cm
    return UEElement._reduced(ctx, reduce_sparse(out, ctx.field.p))


def pbw_bracket(a: UEElement, b: UEElement) -> UEElement:
    """ab - ba; filtration degree drops by at least one."""
    return pbw_multiply(a, b) - pbw_multiply(b, a)


def principal_symbol(a: UEElement) -> "SymPoly":
    """Top homogeneous part of a nonzero element, read in Sym(g)."""
    if a.is_zero():
        raise ZeroElement("the zero element has no principal symbol")
    d = a.degree
    terms = {m: c for m, c in a.terms.items() if sum(m) == d}
    return SymPoly(a.ctx.field, a.ctx.n, terms)


def _distinct_words(exps):
    """All distinct letter orderings of the monomial, lexicographically."""
    letters = []
    for i, a in enumerate(exps):
        letters.extend([i] * a)
    if not letters:
        yield ()
        return

    def rec(remaining):
        if not remaining:
            yield ()
            return
        seen = set()
        for idx in range(len(remaining)):
            l = remaining[idx]
            if l in seen:
                continue
            seen.add(l)
            rest = remaining[:idx] + remaining[idx + 1:]
            for tail in rec(rest):
                yield (l,) + tail

    yield from rec(tuple(letters))


def symmetrize(f: "SymPoly", ctx) -> UEElement:
    """Average of all orderings of each monomial, multiplied out in U(g).

    Implemented as a sum over distinct words with multinomial weights,
    which equals the naive average over all d! words.  Requires
    characteristic 0 or p > deg(f) so the factorials are invertible.
    """
    if f.field is not ctx.field:
        raise CoefficientFieldMismatch("polynomial and algebra fields differ")
    field = ctx.field
    one = {(0,) * ctx.n: field.scalar(1)}
    out = ue_zero(ctx)
    for exps, c in f.terms.items():
        d = sum(exps)
        if field is not QQ and d >= field.p:
            raise FactorialNotInvertible(d, field.p)
        num = 1
        for a in exps:
            num *= factorial(a)
        weight = _divide(field, field.scalar(num), field.scalar(factorial(d)))
        acc = {}
        for word in _distinct_words(exps):
            _add_into(acc, _times_letters(ctx, one, word))
        term = UEElement._reduced(ctx, reduce_sparse(acc, field.p))
        out = out + term.scale(weight).scale(c)
    return out


# ---------------------------------------------------------------------------
# commutative polynomials (Sym(g) and coordinate rings)
# ---------------------------------------------------------------------------

class SymPoly:
    """Sparse commutative polynomial with exact coefficients."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field, n, terms):
        scalar = field.scalar
        self.field = field
        self.n = n
        self.terms = {tuple(m): s for m, c in terms.items() if (s := scalar(c))}

    @classmethod
    def _reduced(cls, field, n, terms):
        """Wrap a map that is already canonical (no zeros, reduced scalars)."""
        self = cls.__new__(cls)
        self.field = field
        self.n = n
        self.terms = terms
        return self

    @classmethod
    def monomial(cls, field, n, exps, coeff=1):
        return cls(field, n, {tuple(exps): coeff})

    @classmethod
    def zero(cls, field, n):
        return cls._reduced(field, n, {})

    @classmethod
    def one(cls, field, n):
        return cls.monomial(field, n, (0,) * n)

    def is_zero(self):
        return not self.terms

    def _with(self, raw):
        return SymPoly._reduced(
            self.field, self.n, reduce_sparse(raw, self.field.residue_modulus)
        )

    def __add__(self, other):
        return self._with(_add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self._with(_add_into(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self.field.scalar(c)
        return self._with({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FFElem)):
            return self.scale(other)
        out = {}
        get = out.get
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                out[m] = get(m, 0) + ca * cb
        return self._with(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = SymPoly.one(self.field, self.n)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, SymPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, point, field):
        """Value at a point of scalars of ``field``, a scalar of ``field``.

        Term by term in Python, the reference for the vectorized
        ``center._CoordinateTerms.values``.
        """
        total = field.zero
        for m, c in self.terms.items():
            v = field.from_int(c)
            for x, a in zip(point, m):
                v = field.scalar(v * x**a)
            total = field.scalar(total + v)
        return total

    def render(self, labels) -> str:
        return render_terms(self.terms, labels)

    def __repr__(self):
        return render_terms(
            self.terms, tuple(f"u{i}" for i in range(self.n))
        )


def semi_invariant_weight(a: UEElement):
    """The weight vector of a semi-invariant, or None.

    Checks [x_i, a] = lambda_i a exactly for every basis element and
    returns the tuple of weights when all hold.
    """
    ctx = a.ctx
    if a.is_zero():
        raise ZeroElement("weight of the zero element is undefined")
    field = ctx.field
    ref = max(a.terms, key=deglex_key)
    ref_coeff = a.terms[ref]
    weights = []
    for i in range(ctx.n):
        b = pbw_bracket(ue_gen(ctx, i), a)
        if b.is_zero():
            weights.append(field.scalar(0))
            continue
        num = b.terms.get(ref)
        if num is None:
            return None
        lam = _divide(field, num, ref_coeff)
        if b != a.scale(lam):
            return None
        weights.append(lam)
    return tuple(weights)
