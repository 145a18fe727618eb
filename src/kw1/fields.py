"""Exact scalars: arbitrary-precision rationals and finite fields F_{p^e}.

Each field kind has one scalar representation in sparse elements
(``GF.scalar``, ``reduce_sparse``).  Rationals are ``fractions.Fraction``
(lowest terms, positive denominator by construction).  Over a prime
field F_p scalars are plain ints, residues in [0, p): every constructor
of GF(p) (``zero``, ``one``, ``from_int``, ``elem``, ``random``,
``random_nonzero``, ``scalar``) returns one.  An element of GF(p, e) with
e > 1 is an ``FFElem``: a polynomial of degree < e over F_p, stored as a
tuple of e small ints and kept reduced modulo a fixed monic irreducible
defining polynomial.  Only this module reads that layout: dense code
takes the e residues of any scalar from ``GF.coefficients`` and works on
int64 coefficient arrays, builds an element from residues with
``GF.elem``, and asks ``field_of`` which field a tuple of scalars is in.

Defining polynomials are either supplied or drawn from a seeded RNG and
certified irreducible by the Frobenius gcd criterion, so the triple
(p, e, seed) always names the same field.  The certificate and the
reduction table of t^e .. t^(2e-2) are computed with ``fastpoly``, the
one F_p polynomial kernel, which is exact at every p inside
``linalg.require_exact_prime``; inverses in F_{p^e} are Fermat powers.
No scalar is ever a float.
"""

from __future__ import annotations

import random
from fractions import Fraction
from numbers import Integral

import numpy as np

from . import fastpoly
from .errors import CoefficientFieldMismatch, DenominatorDivisibleByP
from .util import derive_seed


class RationalField:
    """Coefficient-field object for exact rational arithmetic."""

    is_rational = True
    p = 0
    e = 1
    residue_modulus = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def scalar(self, x):
        return Fraction(x)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible_modp(f, p) -> bool:
    """Frobenius gcd criterion for a monic polynomial over F_p."""
    e = len(f) - 1
    if e < 1 or f[-1] != 1:
        return False
    if e == 1:
        return True
    f = np.array(f, dtype=np.int64)
    x = np.array([0, 1], dtype=np.int64)
    # x^(p^e) == x mod f
    if not np.array_equal(fastpoly.powmod(x, p**e, f, p), x):
        return False
    # gcd(x^(p^(e/q)) - x, f) == 1 for every prime q | e
    for q in _prime_divisors(e):
        h = fastpoly.sub(fastpoly.powmod(x, p ** (e // q), f, p), x, p)
        if fastpoly.gcd(h, f, p).size != 1:
            return False
    return True


def find_irreducible(p: int, e: int, rng: random.Random):
    """Random monic irreducible of degree e over F_p (tuple of e+1 ints)."""
    while True:
        coeffs = tuple(rng.randrange(p) for _ in range(e)) + (1,)
        if is_irreducible_modp(coeffs, p):
            return coeffs


def render_poly_modp(coeffs, var="t") -> str:
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{var}" if c == 1 else f"{c}*{var}")
        else:
            parts.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class GF:
    """The finite field F_{p^e} with an explicit defining polynomial."""

    is_rational = False

    def __init__(self, p: int, e: int = 1, modulus=None, seed: int = 0):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.order = p**e
        # scalars are int residues mod p exactly when e == 1
        self.residue_modulus = p if e == 1 else 0
        if e == 1:
            self.modulus = None
        else:
            if modulus is None:
                rng = random.Random(derive_seed("defining-poly", p, e, seed))
                modulus = find_irreducible(p, e, rng)
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not is_irreducible_modp(modulus, p):
                raise ValueError("modulus is not irreducible")
            self.modulus = modulus
            # reduction table: t^(e+k) mod modulus for k = 0..e-2
            f = np.array(modulus, dtype=np.int64)
            t = np.array([0, 1], dtype=np.int64)
            self._red = [
                tuple(int(c) for c in r) + (0,) * (e - r.size)
                for r in (fastpoly.powmod(t, e + k, f, p) for k in range(e - 1))
            ]
        self.zero = self.elem(())
        self.one = self.elem((1,))

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e}; {render_poly_modp(self.modulus)})"

    def from_int(self, k: int):
        return self.elem((k,))

    def _rational_residue(self, x) -> int:
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise DenominatorDivisibleByP(x, self.p)
        return (x.numerator * pow(x.denominator, -1, self.p)) % self.p

    def scalar(self, x):
        """``x`` in this field's sparse representation.

        Over F_p that is a plain int in [0, p), from an int or a Fraction;
        over F_{p^e}, e > 1, an ``FFElem``.
        """
        if self.e > 1:
            return self.embed(x)
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self._rational_residue(x)
        if isinstance(x, Integral):  # numpy integers
            return int(x) % self.p
        raise CoefficientFieldMismatch(f"cannot read {x!r} as a scalar of {self!r}")

    def elem(self, coeffs):
        """The scalar with these residues, constant term first (an int when e == 1)."""
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.e:
            raise ValueError("too many coefficients")
        coeffs += (0,) * (self.e - len(coeffs))
        return FFElem(self, coeffs) if self.e > 1 else coeffs[0]

    def coefficients(self, x) -> tuple:
        """The e residues of the scalar ``x``, constant term first."""
        x = self.scalar(x)
        return x.coeffs if self.e > 1 else (x,)

    def random(self, rng: random.Random):
        return self.elem([rng.randrange(self.p) for _ in range(self.e)])

    def random_nonzero(self, rng: random.Random):
        while True:
            x = self.random(rng)
            if x:
                return x

    def embed(self, x) -> "FFElem":
        """An int residue, or an element of this field, as an ``FFElem`` (e > 1)."""
        if isinstance(x, Integral):
            return self.from_int(int(x))
        if isinstance(x, FFElem) and (x.field is self or x.field == self):
            return x
        raise CoefficientFieldMismatch(f"cannot read {x!r} as a scalar of {self!r}")


class FFElem:
    """Element of a GF(p, e) with e > 1; immutable, supports field arithmetic."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _pair(self, other):
        if isinstance(other, int):
            return self, self.field.from_int(other)
        if not isinstance(other, FFElem):
            return NotImplemented
        if other.field is self.field or other.field == self.field:
            return self, other
        raise CoefficientFieldMismatch(
            f"cannot combine {self.field!r} and {other.field!r}"
        )

    def __add__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        p = a.field.p
        return FFElem(a.field, tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        p = a.field.p
        return FFElem(a.field, tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple((-x) % p for x in self.coeffs))

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        field = a.field
        p = field.p
        e = field.e
        out = [0] * (2 * e - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    out[i + j] += x * y
        # fold coefficients of t^e .. t^(2e-2) through the reduction table
        for k in range(2 * e - 2, e - 1, -1):
            c = out[k] % p
            if c:
                row = field._red[k - e]
                for i in range(e):
                    out[i] += c * row[i]
            out[k] = 0
        return FFElem(field, tuple(c % p for c in out[:e]))

    __rmul__ = __mul__

    def inverse(self) -> "FFElem":
        field = self.field
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        # Fermat: the multiplicative group has order p^e - 1
        return self ** (field.order - 2)

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.from_int(other)
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.coeffs == other.coeffs and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def render(self, var="t") -> str:
        body = render_poly_modp(self.coeffs, var)
        return body if "+" not in body and "*" not in body else f"({body})"

    def __repr__(self):
        return self.render()


def reduce_sparse(raw: dict, modulus: int) -> dict:
    """Canonical sparse map from raw accumulated scalars, zeros dropped.

    With ``modulus`` p > 0 the values are unreduced ints and come out as
    residues in [1, p); with 0 they are Fraction or FFElem values, which
    are already reduced.
    """
    if modulus:
        return {k: r for k, c in raw.items() if (r := c % modulus)}
    return {k: c for k, c in raw.items() if c}


_FIELD_CACHE: dict = {}


def prime_field(p: int) -> GF:
    """Interned GF(p)."""
    key = (p, 1, None)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = GF(p)
    return _FIELD_CACHE[key]


def field_of(values, p: int) -> GF:
    """The field of these characteristic-p scalars: F_p when they are ints."""
    return values[0].field if values and isinstance(values[0], FFElem) else prime_field(p)


def galois_field(p: int, e: int = 1, seed: int = 0) -> GF:
    """Interned GF(p^e) with seed-determined defining polynomial."""
    if e == 1:
        return prime_field(p)
    key = (p, e, seed)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = GF(p, e, seed=seed)
    return _FIELD_CACHE[key]
