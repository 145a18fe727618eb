import random
from fractions import Fraction

import numpy as np
import pytest

from kw1 import fastpoly, linalg
from kw1.errors import CoefficientFieldMismatch, DenominatorDivisibleByP
from kw1.fields import (
    GF,
    FFElem,
    galois_field,
    is_irreducible_modp,
    is_prime,
    prime_field,
    render_poly_modp,
)
from kw1.pbw import render_scalar


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_field_arithmetic():
    """GF(p) builds plain int residues, drawn as ``rng.randrange(p)``."""
    f5 = prime_field(5)
    rng, ref = random.Random(3), random.Random(3)
    made = [f5.zero, f5.one, f5.from_int(-2), f5.elem([7]), f5.elem(()), f5.scalar(Fraction(1, 2))]
    assert made == [0, 1, 3, 2, 0, 3]
    assert [f5.random(rng) for _ in range(20)] == [ref.randrange(5) for _ in range(20)]
    assert all(f5.random_nonzero(rng) for _ in range(20))
    assert all(type(x) is int for x in made + [f5.random(rng), f5.random_nonzero(rng)])
    assert f5.coefficients(3) == (3,) and f5.coefficients(-1) == (4,)


def test_rational_reduction():
    f5 = prime_field(5)
    assert f5.scalar(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1
    assert f5.scalar(Fraction(-2, 3)) == 1  # 3 * 1 = 3 = -2
    with pytest.raises(DenominatorDivisibleByP):
        prime_field(2).scalar(Fraction(1, 2))


def test_extension_field_basic():
    f = galois_field(5, 3)
    assert f.order == 125
    assert is_irreducible_modp(f.modulus, 5)
    rng = random.Random(7)
    for _ in range(50):
        a = f.random(rng)
        if not a:
            continue
        assert a * a.inverse() == f.one
        assert a ** (f.order - 1) == f.one


def test_extension_field_deterministic():
    a = galois_field(7, 4, seed=0)
    b = GF(7, 4, seed=0)
    assert a.modulus == b.modulus


def test_char2_extension():
    f = galois_field(2, 8)
    rng = random.Random(1)
    a = f.random_nonzero(rng)
    assert a ** (2**8 - 1) == f.one


def test_embedding_and_coercion():
    f3 = prime_field(3)
    f9 = galois_field(3, 2)
    two = f3.from_int(2)
    lifted = f9.embed(two)
    assert lifted + f9.one == f9.zero
    # mixed arithmetic coerces through the prime field
    assert two * f9.one == lifted
    assert two == lifted
    f25 = galois_field(5, 2)
    with pytest.raises(CoefficientFieldMismatch):
        f25.embed(galois_field(5, 2, seed=99).random(random.Random(0)) * 1 + f3.one)


def test_mul_matrix_is_multiplication():
    """The block ``linalg`` builds for a is the F_p-matrix of b -> a b."""
    f = galois_field(3, 3)
    rng = random.Random(5)
    for _ in range(20):
        a = f.random(rng)
        b = f.random(rng)
        big, first = linalg.blocked_form(1, 1, f)
        first[...] = f.coefficients(a)
        rows = linalg._fill_blocks(big, f).tolist()
        coeffs = tuple(
            sum(rows[i][j] * b.coeffs[j] for j in range(3)) % 3 for i in range(3)
        )
        assert f.elem(coeffs) == a * b


def test_render():
    f = galois_field(2, 3)
    assert render_poly_modp(f.modulus).count("t") >= 1
    assert render_scalar(prime_field(7).from_int(12)) == "5"
    assert render_scalar(galois_field(7, 2).elem([5, 1])) == "(t + 5)"


# modulus and reduction table (t^e .. t^(2e-2) mod the modulus) of
# galois_field(p, e, seed), as the list-based polynomial helpers built them
PINNED_FIELDS = {
    (2, 8, 0): (
        (1, 0, 0, 0, 1, 1, 1, 0, 1),
        [(1, 0, 0, 0, 1, 1, 1, 0), (0, 1, 0, 0, 0, 1, 1, 1), (1, 0, 1, 0, 1, 1, 0, 1),
         (1, 1, 0, 1, 1, 0, 0, 0), (0, 1, 1, 0, 1, 1, 0, 0), (0, 0, 1, 1, 0, 1, 1, 0),
         (0, 0, 0, 1, 1, 0, 1, 1)],
    ),
    (5, 4, 0): ((1, 0, 3, 1, 1), [(4, 0, 2, 4), (1, 4, 3, 3), (2, 1, 0, 0)]),
    (3, 6, 2): (
        (1, 2, 0, 2, 1, 0, 1),
        [(2, 1, 0, 1, 2, 0), (0, 2, 1, 0, 1, 2), (1, 2, 2, 0, 1, 1), (2, 2, 2, 0, 2, 1),
         (2, 0, 2, 0, 2, 2)],
    ),
    (7, 5, 3): (
        (4, 0, 6, 0, 1, 1),
        [(3, 0, 1, 0, 6), (4, 3, 6, 1, 1), (3, 4, 4, 6, 0), (0, 3, 4, 4, 6)],
    ),
    (13, 2, 0): ((9, 2, 1), [(4, 11)]),
    (3037000493, 2, 1): ((1237654620, 1282300926, 1), [(1799345873, 1754699567)]),
    (3037000493, 3, 1): (
        (1408960783, 218335141, 2192833448, 1),
        [(1628039710, 2818665352, 844167045), (2746476829, 208894616, 1570546729)],
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_FIELDS))
def test_defining_polynomials_are_pinned(key):
    field = galois_field(*key)
    modulus, red = PINNED_FIELDS[key]
    assert field.modulus == modulus
    assert field._red == red
    assert all(type(c) is int for row in field._red for c in row)


TOP = 3037000493


def _ref_mod(f, g, p):
    # long division in Python ints
    f = [int(c) for c in f]
    g = [int(c) for c in g]
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        for j, b in enumerate(g):
            f[shift + j] = (f[shift + j] - c * b) % p
        f.pop()
    while f and not f[-1]:
        f.pop()
    return f


def _ref_mul(f, g, p):
    # convolution of object-dtype (Python int) coefficients
    prod = np.convolve(np.array(f, dtype=object), np.array(g, dtype=object)) % p
    return [int(c) for c in fastpoly.trim(prod)]


def _ref_powmod(base, exp, m, p):
    result, base = [1], _ref_mod(base, m, p)
    while exp:
        if exp & 1:
            result = _ref_mod(_ref_mul(result, base, p), m, p)
        base = _ref_mod(_ref_mul(base, base, p), m, p)
        exp >>= 1
    return result


def test_fastpoly_is_exact_at_the_top_of_the_envelope():
    p = TOP
    # np.convolve alone returned 290948288 for the x^2 coefficient here
    f = np.array([p - 1] * 3, dtype=np.int64)
    g = np.array([p - 1] * 2, dtype=np.int64)
    assert fastpoly.mul(f, g, p).tolist() == [1, 2, 2, 1]
    rng = random.Random(11)
    for _ in range(20):
        a = fastpoly.from_ints([rng.randrange(p) for _ in range(rng.randrange(1, 9))], p)
        b = fastpoly.from_ints([rng.randrange(p) for _ in range(rng.randrange(1, 9))], p)
        m = fastpoly.from_ints([rng.randrange(p) for _ in range(rng.randrange(2, 6))] + [1], p)
        assert fastpoly.mul(a, b, p).tolist() == _ref_mul(a, b, p)
        exp = rng.randrange(p**3)
        assert fastpoly.powmod(a, exp, m, p).tolist() == _ref_powmod(a, exp, m, p)
        # m divides gcd(a m, b m)
        g = fastpoly.gcd(fastpoly.mul(a, m, p), fastpoly.mul(b, m, p), p)
        assert fastpoly.mod(g, m, p).size == 0
        r, s = a.tolist(), m.tolist()
        while s:
            r, s = s, _ref_mod(r, s, p)
        ref_gcd = [c * pow(r[-1], -1, p) % p for c in r]
        assert fastpoly.gcd(a, m, p).tolist() == ref_gcd


@pytest.mark.parametrize("e", [2, 3])
def test_inverse_at_the_top_of_the_envelope(e):
    field = galois_field(TOP, e, seed=1)
    rng = random.Random(e)
    for _ in range(10):
        a = field.random_nonzero(rng)
        inv = a.inverse()
        assert a * inv == field.one
        assert inv.inverse() == a
        assert a / a == field.one


def test_prime_fields_build_no_ffelem(make_algebra, monkeypatch):
    """A prime-field scalar is an int on the verdict, oracle and index paths."""
    from kw1.center import kw1_verdict
    from kw1.liealg import index_generic
    from kw1.redenv import max_irreducible_dim

    built = FFElem.__init__

    def guarded(self, field, coeffs):
        if field.e == 1:
            raise TypeError(f"FFElem over the prime field {field!r}")
        built(self, field, coeffs)

    monkeypatch.setattr(FFElem, "__init__", guarded)
    nonabelian2, sl2 = make_algebra("nonabelian2", 37), make_algebra("sl2", 5)
    assert kw1_verdict(nonabelian2).e == 1
    assert kw1_verdict(sl2).e > 1
    assert max_irreducible_dim(make_algebra("heisenberg", 3)).m_est == 3
    assert index_generic(nonabelian2) == 0
    assert index_generic(sl2) == 1
