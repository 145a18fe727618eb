"""Exact scalars: arbitrary-precision rationals and finite fields F_{p^e}.

Each field kind has one scalar representation in sparse elements
(``GF.scalar``, ``reduce_sparse``).  Rationals are ``fractions.Fraction``
(lowest terms, positive denominator by construction).  Over a prime
field F_p scalars are plain ints, residues in [0, p).  An element of
GF(p, e) with e > 1 is an ``FFElem``: a polynomial of degree < e over
F_p, stored as a tuple of e small ints and kept reduced modulo a fixed
monic irreducible defining polynomial.  ``FFElem`` over GF(p) (a single
residue) remains for dense matrix and character code.

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
        self.zero = FFElem(self, (0,) * e)
        self.one = FFElem(self, (1,) + (0,) * (e - 1))

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

    def from_int(self, k: int) -> "FFElem":
        return FFElem(self, (k % self.p,) + (0,) * (self.e - 1))

    def _rational_residue(self, x) -> int:
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise DenominatorDivisibleByP(x, self.p)
        return (x.numerator * pow(x.denominator, -1, self.p)) % self.p

    def scalar(self, x):
        """``x`` in this field's sparse representation.

        Over F_p that is a plain int in [0, p), from an int, a Fraction
        or a prime-field ``FFElem``; over F_{p^e}, e > 1, an ``FFElem``.
        """
        if self.e > 1:
            return self.embed(x)
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, FFElem) and x.field.p == self.p and x.field.e == 1:
            return x.coeffs[0]
        if isinstance(x, Fraction):
            return self._rational_residue(x)
        if isinstance(x, Integral):  # numpy integers
            return int(x) % self.p
        raise CoefficientFieldMismatch(f"cannot read {x!r} as a scalar of {self!r}")

    def elem(self, coeffs) -> "FFElem":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) > self.e:
            raise ValueError("too many coefficients")
        return FFElem(self, coeffs + (0,) * (self.e - len(coeffs)))

    def random(self, rng: random.Random) -> "FFElem":
        return FFElem(self, tuple(rng.randrange(self.p) for _ in range(self.e)))

    def random_nonzero(self, rng: random.Random) -> "FFElem":
        while True:
            x = self.random(rng)
            if x:
                return x

    def embed(self, x) -> "FFElem":
        """Embed an int residue or an element of the prime subfield."""
        if isinstance(x, Integral):
            return self.from_int(int(x))
        if x.field is self or x.field == self:
            return x
        if x.field.p != self.p or x.field.e != 1:
            raise CoefficientFieldMismatch(
                f"cannot embed {x.field!r} into {self!r}"
            )
        return self.from_int(x.coeffs[0])

    def mul_matrix(self, a: "FFElem"):
        """Rows of the e x e F_p-matrix of multiplication by ``a``.

        Entry [i][j] is coefficient i of a * t^j; used to turn rank
        problems over F_{p^e} into rank problems over F_p.
        """
        e = self.e
        cols = []
        cur = a.coeffs
        for _ in range(e):
            cols.append(cur)
            if e == 1:
                cur = ((cur[0] * 0) % self.p,)  # unused for e == 1
                break
            shifted = (0,) + cur[: e - 1]
            top = cur[e - 1]
            if top:
                shifted = tuple(
                    (s + top * r) % self.p for s, r in zip(shifted, self._red[0])
                )
            cur = shifted
        return [[cols[j][i] for j in range(len(cols))] for i in range(e)]


class FFElem:
    """Element of a GF instance; immutable, supports field arithmetic."""

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
        if self.field.p == other.field.p:
            if self.field.e == 1:
                return other.field.embed(self), other
            if other.field.e == 1:
                return self, self.field.embed(other)
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
        if e == 1:
            return FFElem(field, ((a.coeffs[0] * b.coeffs[0]) % p,))
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
        if field.e == 1:
            return FFElem(field, (pow(self.coeffs[0], -1, field.p),))
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
        if self.field is not other.field and self.field != other.field:
            if self.field.p == other.field.p and (
                self.field.e == 1 or other.field.e == 1
            ):
                a, b = self._pair(other)
                return a.coeffs == b.coeffs
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __int__(self):
        if self.field.e != 1:
            raise ValueError("only prime-field elements convert to int")
        return self.coeffs[0]

    def render(self, var="t") -> str:
        if self.field.e == 1:
            return str(self.coeffs[0])
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


def galois_field(p: int, e: int = 1, seed: int = 0) -> GF:
    """Interned GF(p^e) with seed-determined defining polynomial."""
    if e == 1:
        return prime_field(p)
    key = (p, e, seed)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = GF(p, e, seed=seed)
    return _FIELD_CACHE[key]
