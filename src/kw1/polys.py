"""Dense univariate polynomials over an extension field F_{p^e}, e > 1.

Polynomials are tuples of ``FFElem`` coefficients, little endian, with no
trailing zeros (the zero polynomial is the empty tuple).  All routines
take the coefficient field explicitly.  Over F_p, where scalars are
ints, ``fastpoly`` is the kernel; this module serves the MeatAxe's
extension backend (``matops.ExtOps.iter_factors``).

Provides the arithmetic plus squarefree / distinct-degree /
equal-degree (Cantor-Zassenhaus) factorization, an irreducibility test,
and root extraction.  Randomized steps consume a caller-supplied RNG so
results are reproducible from a seed.
"""

from __future__ import annotations

import random

from .fields import GF, FFElem, _prime_divisors


def ptrim(coeffs) -> tuple:
    coeffs = tuple(coeffs)
    i = len(coeffs)
    while i > 0 and not coeffs[i - 1]:
        i -= 1
    return coeffs[:i]


def as_poly(field: GF, ints) -> tuple:
    return ptrim(tuple(field.from_int(c) if isinstance(c, int) else c for c in ints))


def pdeg(f) -> int:
    return len(f) - 1


def padd(f, g, field):
    n = max(len(f), len(g))
    f = f + (field.zero,) * (n - len(f))
    g = g + (field.zero,) * (n - len(g))
    return ptrim(a + b for a, b in zip(f, g))


def psub(f, g, field):
    n = max(len(f), len(g))
    f = f + (field.zero,) * (n - len(f))
    g = g + (field.zero,) * (n - len(g))
    return ptrim(a - b for a, b in zip(f, g))


def pmul(f, g, field):
    if not f or not g:
        return ()
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
    return ptrim(out)


def pdivmod(f, g, field):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = pdeg(g)
    inv = g[-1].inverse()
    q = [field.zero] * max(0, len(f) - dg)
    while len(rem) - 1 >= dg and rem:
        if not rem[-1]:
            rem.pop()
            continue
        k = len(rem) - 1 - dg
        c = rem[-1] * inv
        q[k] = c
        for j in range(dg + 1):
            rem[k + j] = rem[k + j] - c * g[j]
        rem.pop()
    return ptrim(q), ptrim(rem)


def pmod(f, g, field):
    return pdivmod(f, g, field)[1]


def pmonic(f, field):
    if not f:
        return f
    inv = f[-1].inverse()
    return tuple(c * inv for c in f)


def pgcd(f, g, field):
    while g:
        f, g = g, pmod(f, g, field)
    return pmonic(f, field)


def ppowmod(base, exp: int, mod, field):
    result = (field.one,)
    base = pmod(base, mod, field)
    while exp:
        if exp & 1:
            result = pmod(pmul(result, base, field), mod, field)
        base = pmod(pmul(base, base, field), mod, field)
        exp >>= 1
    return result


def pderiv(f, field):
    return ptrim(f[i] * field.from_int(i) for i in range(1, len(f)))


def peval(f, a: FFElem, field):
    acc = field.zero
    for c in reversed(f):
        acc = acc * a + c
    return acc


def pis_irreducible(f, field: GF) -> bool:
    """Frobenius gcd criterion over F_q, q = field.order."""
    f = pmonic(f, field)
    d = pdeg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    q = field.order
    x = (field.zero, field.one)
    if ppowmod(x, q**d, f, field) != pmod(x, f, field):
        return False
    for r in _prime_divisors(d):
        h = psub(ppowmod(x, q ** (d // r), f, field), x, field)
        if pdeg(pgcd(h, f, field)) != 0:
            return False
    return True


def _pth_root(c: FFElem, field: GF) -> FFElem:
    # Frobenius is invertible on a finite field: c^(p^(e-1)) is the p-th root
    return c ** (field.p ** (field.e - 1))


def _squarefree_parts(f, field):
    """Return (squarefree factor, multiplicity) pairs, handling p-th powers."""
    out = []
    stack = [(pmonic(f, field), 1)]
    while stack:
        g, scale = stack.pop()
        if pdeg(g) == 0:
            continue
        dg = pderiv(g, field)
        if not dg:
            # g is a polynomial in x^p; take the p-th root coefficientwise
            p = field.p
            root = ptrim(
                tuple(_pth_root(g[i], field) for i in range(0, len(g), p))
            )
            stack.append((root, scale * p))
            continue
        c = pgcd(g, dg, field)
        w = pdivmod(g, c, field)[0]
        i = 1
        while pdeg(w) > 0:
            y = pgcd(w, c, field)
            fac = pdivmod(w, y, field)[0]
            if pdeg(fac) > 0:
                out.append((pmonic(fac, field), i * scale))
            w = y
            c = pdivmod(c, y, field)[0]
            i += 1
        # the remaining part of c is a p-th power (derivative vanished)
        if pdeg(c) > 0:
            stack.append((c, scale))
    return out


def _distinct_degree(f, field):
    """Split a squarefree monic f into (product-of-degree-d factors, d)."""
    out = []
    q = field.order
    x = (field.zero, field.one)
    h = x
    d = 0
    rest = f
    while pdeg(rest) >= 2 * (d + 1):
        d += 1
        h = ppowmod(h, q, rest, field)
        g = pgcd(psub(h, x, field), rest, field)
        if pdeg(g) > 0:
            out.append((g, d))
            rest = pdivmod(rest, g, field)[0]
            h = pmod(h, rest, field)
    if pdeg(rest) > 0:
        out.append((rest, pdeg(rest)))
    return out


def _equal_degree_split(f, d, field, rng: random.Random):
    """Find a proper monic factor of f (product of degree-d irreducibles)."""
    q = field.order
    n = pdeg(f)
    while True:
        a = ptrim(tuple(field.random(rng) for _ in range(n)))
        if pdeg(a) < 1:
            continue
        g = pgcd(a, f, field)
        if 0 < pdeg(g) < n:
            return g
        if field.p == 2:
            # trace map over F_2: sum of a^(2^i), i < d*e
            t = a
            acc = a
            for _ in range(d * field.e - 1):
                t = pmod(pmul(t, t, field), f, field)
                acc = padd(acc, t, field)
            g = pgcd(acc, f, field)
        else:
            b = ppowmod(a, (q**d - 1) // 2, f, field)
            g = pgcd(psub(b, (field.one,), field), f, field)
        if 0 < pdeg(g) < n:
            return g


def _equal_degree(f, d, field, rng):
    if pdeg(f) == d:
        return [f]
    g = _equal_degree_split(f, d, field, rng)
    h = pdivmod(f, g, field)[0]
    return _equal_degree(g, d, field, rng) + _equal_degree(h, d, field, rng)


def pfactor(f, field: GF, rng: random.Random):
    """Full factorization of a nonzero polynomial.

    Returns a list of (monic irreducible, multiplicity) pairs sorted by
    (degree, coefficient tuples) so the output is deterministic given
    the RNG state.
    """
    if not f:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    found: dict = {}
    for sf, mult in _squarefree_parts(f, field):
        for block, d in _distinct_degree(sf, field):
            for irr in _equal_degree(block, d, field, rng):
                irr = pmonic(irr, field)
                found[irr] = found.get(irr, 0) + mult
    def key(item):
        poly = item[0]
        return (pdeg(poly), tuple(field.coefficients(c) for c in poly))
    return sorted(found.items(), key=key)

