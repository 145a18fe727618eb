import random
from fractions import Fraction

import pytest

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


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_field_arithmetic():
    f5 = prime_field(5)
    a = f5.from_int(3)
    b = f5.from_int(4)
    assert int(a + b) == 2
    assert int(a - b) == 4
    assert int(a * b) == 2
    assert int(a / b) == int(a * b.inverse())
    assert int(-a) == 2
    assert a**4 == f5.one
    assert not f5.zero
    assert a


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
    f = galois_field(3, 3)
    rng = random.Random(5)
    for _ in range(20):
        a = f.random(rng)
        b = f.random(rng)
        rows = f.mul_matrix(a)
        coeffs = tuple(
            sum(rows[i][j] * b.coeffs[j] for j in range(3)) % 3 for i in range(3)
        )
        assert f.elem(coeffs) == a * b


def test_render():
    f = galois_field(2, 3)
    assert render_poly_modp(f.modulus).count("t") >= 1
    assert prime_field(7).from_int(12).render() == "5"
