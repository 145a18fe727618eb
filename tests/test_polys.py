import random

import pytest

from kw1 import fastpoly
from kw1.fields import galois_field, prime_field
from kw1.polys import (
    as_poly,
    pdeg,
    pdivmod,
    peval,
    pfactor,
    pgcd,
    pis_irreducible,
    pmul,
    ptrim,
)


def random_poly(field, degree, rng):
    return ptrim([field.random(rng) for _ in range(degree)] + [field.one])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
def test_factor_recombines(p, e):
    field = galois_field(p, e)
    rng = random.Random(100 * p + e)
    for trial in range(8):
        f = random_poly(field, rng.randrange(2, 9), rng)
        factors = pfactor(f, field, rng)
        prod = (field.one,)
        for irr, mult in factors:
            assert pis_irreducible(irr, field), (p, e, trial)
            for _ in range(mult):
                prod = pmul(prod, irr, field)
        # f is monic by construction of random_poly up to leading unit
        lead = f[-1]
        scaled = tuple(c * lead for c in prod)
        assert scaled == f


def test_factor_known_splitting():
    f3 = prime_field(3)
    # x^3 - x = x (x-1) (x+1)
    f = as_poly(f3, [0, -1, 0, 1])
    rng = random.Random(0)
    factors = pfactor(f, f3, rng)
    assert [pdeg(g) for g, _ in factors] == [1, 1, 1]
    roots = [-g[0] for g, _ in factors]
    assert sorted(int(r) for r in roots) == [0, 1, 2]


def test_artin_schreier_irreducible():
    f3 = prime_field(3)
    f = as_poly(f3, [-1, -1, 0, 1])  # x^3 - x - 1
    assert pis_irreducible(f, f3)
    # splits over F_27 into linear factors
    f27 = galois_field(3, 3)
    lifted = as_poly(f27, [f27.from_int(-1), f27.from_int(-1), f27.zero, f27.one])
    rng = random.Random(3)
    roots = [-g[0] for g, _ in pfactor(lifted, f27, rng) if pdeg(g) == 1]
    assert len(roots) == 3
    assert all(not peval(lifted, r, f27) for r in roots)


def test_repeated_factors_multiplicity():
    f5 = prime_field(5)
    rng = random.Random(9)
    x_plus_1 = as_poly(f5, [1, 1])
    x_plus_2 = as_poly(f5, [2, 1])
    f = pmul(pmul(x_plus_1, x_plus_1, f5), x_plus_2, f5)
    factors = dict(pfactor(f, f5, rng))
    assert factors[x_plus_1] == 2
    assert factors[x_plus_2] == 1


def test_pth_power_factorization():
    f3 = prime_field(3)
    rng = random.Random(4)
    x_plus_1 = as_poly(f3, [1, 1])
    f = x_plus_1
    for _ in range(5):
        f = pmul(f, x_plus_1, f3)  # (x+1)^6
    factors = pfactor(f, f3, rng)
    assert factors == [(x_plus_1, 6)]


def test_divmod_and_eval():
    f7 = prime_field(7)
    rng = random.Random(11)
    for _ in range(20):
        f = random_poly(f7, rng.randrange(1, 8), rng)
        g = random_poly(f7, rng.randrange(1, 5), rng)
        q, r = pdivmod(f, g, f7)
        recombined = ptrim(
            a + b
            for a, b in zip(
                list(pmul(q, g, f7)) + [f7.zero] * 10,
                list(r) + [f7.zero] * 10,
            )
        )
        assert recombined == f
        a = f7.random(rng)
        assert peval(f, a, f7) == peval(q, a, f7) * peval(g, a, f7) + peval(r, a, f7)


def test_gcd_common_factor():
    f2 = prime_field(2)
    x = as_poly(f2, [0, 1])
    f = pmul(x, as_poly(f2, [1, 1]), f2)
    g = pmul(x, as_poly(f2, [1, 1, 1]), f2)
    assert pgcd(f, g, f2) == x


# fastpoly must agree with the generic implementation over prime fields

def test_fastpoly_agrees_with_generic():
    p = 5
    f5 = prime_field(p)
    rng = random.Random(21)
    for _ in range(10):
        ints = [rng.randrange(p) for _ in range(rng.randrange(3, 12))] + [1]
        fast = fastpoly.from_ints(ints, p)
        slow = as_poly(f5, ints)
        fast_factors = sorted(
            tuple(int(c) for c in irr)
            for irr in fastpoly.iter_irreducible_factors(fast, p, random.Random(1))
        )
        slow_factors = sorted(
            tuple(int(c) for c in irr) for irr, _ in pfactor(slow, f5, random.Random(1))
        )
        assert fast_factors == slow_factors


def test_fastpoly_squarefree_part():
    p = 3
    x_plus_1 = fastpoly.from_ints([1, 1], p)
    f = fastpoly.from_ints([1], p)
    for _ in range(9):
        f = fastpoly.mul(f, x_plus_1, p)
    sf = fastpoly.squarefree_part(f, p)
    assert [int(c) for c in sf] == [1, 1]
