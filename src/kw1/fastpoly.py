"""Vectorized univariate polynomial arithmetic over F_p.

Coefficients are numpy int64 arrays, little endian, reduced mod p.
This is the one F_p polynomial kernel: the MeatAxe factors minimal
polynomials with it, and ``fields`` certifies defining polynomials and
builds reduction tables with it, at every p inside
``linalg.require_exact_prime``.

Every operation is exact there.  Outside ``mul`` an entry holds at most
one product of two residues before it is reduced, below (p - 1)^2 <
2^63; ``deriv`` multiplies a residue by an exponent, a degree far below
2^63 / p.  A coefficient of a product sums up to k such products, k the
length of the shorter factor, so ``mul`` convolves the first factor in
chunks of s coefficients with s (p - 1)^2 <= 2^63 - p, the bound
``linalg.matmul_modp`` uses: s >= 1 while p (p - 1) < 2^63.  The chunk
size follows from p alone.  At the small p the MeatAxe sees
(p^n <= ``redenv.DIM_CAP``) s is over 10^13, so a product is one
convolution; at the top of the envelope s = 1.

Used on the hot path of module splitting, where minimal polynomials of
dimension-sized degree must be factored quickly; the factor iterator is
lazy and yields irreducible factors in order of increasing degree,
because the splitter almost always only needs the smallest one.
"""

from __future__ import annotations

import random

import numpy as np


def trim(f: np.ndarray) -> np.ndarray:
    nz = np.nonzero(f)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=np.int64)
    return f[: int(nz[-1]) + 1]


def from_ints(coeffs, p) -> np.ndarray:
    return trim(np.array([c % p for c in coeffs], dtype=np.int64))


def sub(f, g, p):
    n = max(f.size, g.size)
    return trim((np.pad(f, (0, n - f.size)) - np.pad(g, (0, n - g.size))) % p)


def mul(f, g, p):
    if f.size == 0 or g.size == 0:
        return np.zeros(0, dtype=np.int64)
    step = (2**63 - p) // (p - 1) ** 2
    if f.size <= step:
        return np.convolve(f, g) % p
    out = np.zeros(f.size + g.size - 1, dtype=np.int64)
    for lo in range(0, f.size, step):
        part = np.convolve(f[lo:lo + step], g) % p
        out[lo:lo + part.size] += part
        out[lo:lo + part.size] %= p
    return out


def divmod_(f, g, p):
    if g.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    f = f.copy()
    dg = g.size - 1
    inv = pow(int(g[-1]), -1, p)
    if f.size <= dg:
        return np.zeros(0, dtype=np.int64), trim(f)
    q = np.zeros(f.size - dg, dtype=np.int64)
    for k in range(f.size - dg - 1, -1, -1):
        c = (f[k + dg] * inv) % p
        if c:
            q[k] = c
            f[k : k + dg + 1] = (f[k : k + dg + 1] - c * g) % p
    return trim(q), trim(f)


def mod(f, g, p):
    return divmod_(f, g, p)[1]


def monic(f, p):
    if f.size == 0:
        return f
    inv = pow(int(f[-1]), -1, p)
    return (f * inv) % p


def gcd(f, g, p):
    while g.size:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def powmod(base, exp: int, m, p):
    result = np.ones(1, dtype=np.int64)
    base = mod(base, m, p)
    while exp:
        if exp & 1:
            result = mod(mul(result, base, p), m, p)
        base = mod(mul(base, base, p), m, p)
        exp >>= 1
    return result


def deriv(f, p):
    if f.size <= 1:
        return np.zeros(0, dtype=np.int64)
    return trim((f[1:] * np.arange(1, f.size, dtype=np.int64)) % p)


def squarefree_part(f, p):
    """Product of the distinct irreducible factors of f, monic."""
    f = monic(trim(f), p)
    out = np.ones(1, dtype=np.int64)
    while f.size > 1:
        d = deriv(f, p)
        if d.size == 0:
            # f is a polynomial in x^p; over F_p the p-th root just
            # compresses exponents
            f = monic(trim(f[::p].copy()), p)
            continue
        g = gcd(f, d, p)
        w = divmod_(f, g, p)[0]
        # w carries each irreducible factor of f not already in out
        w = divmod_(w, gcd(w, out, p), p)[0]
        out = mul(out, w, p)
        f = g
    return monic(out, p)


def _equal_degree_split(f, d, p, rng: random.Random):
    n = f.size - 1
    q = p
    while True:
        a = trim(np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64))
        if a.size < 2:
            continue
        g = gcd(a, f, p)
        if 0 < g.size - 1 < n:
            return g
        if p == 2:
            t = a.copy()
            acc = a.copy()
            for _ in range(d - 1):
                t = mod(mul(t, t, p), f, p)
                acc = trim((np.pad(acc, (0, max(0, t.size - acc.size))) +
                            np.pad(t, (0, max(0, acc.size - t.size)))) % p)
            g = gcd(acc, f, p)
        else:
            b = powmod(a, (q**d - 1) // 2, f, p)
            b = b.copy()
            if b.size == 0:
                b = np.array([p - 1], dtype=np.int64)
            else:
                b[0] = (b[0] - 1) % p
            g = gcd(trim(b), f, p)
        if 0 < g.size - 1 < n:
            return g


def _equal_degree_all(f, d, p, rng):
    if f.size - 1 == d:
        return [f]
    g = _equal_degree_split(f, d, p, rng)
    h = divmod_(f, g, p)[0]
    return _equal_degree_all(g, d, p, rng) + _equal_degree_all(h, d, p, rng)


def iter_irreducible_factors(f, p, rng: random.Random):
    """Yield the distinct monic irreducible factors of f by degree.

    Lazy: the expensive Frobenius powers for degree k are only computed
    once all factors of smaller degree have been consumed.  Factors of
    equal degree come out in a deterministic order given the RNG.
    """
    rest = squarefree_part(f, p)
    x = np.array([0, 1], dtype=np.int64)
    h = x.copy()
    d = 0
    while rest.size - 1 >= 2 * (d + 1):
        d += 1
        h = powmod(h, p, rest, p)
        g = gcd(sub(h, x, p), rest, p)
        if g.size > 1:
            batch = _equal_degree_all(g, d, p, rng)
            batch.sort(key=lambda poly: tuple(int(c) for c in poly))
            for irr in batch:
                yield irr
            rest = divmod_(rest, g, p)[0]
            h = mod(h, rest, p)
    if rest.size > 1:
        yield rest
