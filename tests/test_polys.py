import random

import pytest

from kw1 import fastpoly
from kw1.fields import galois_field
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


@pytest.mark.parametrize("p,e", [(2, 3), (3, 3), (5, 3), (2, 2), (3, 2), (5, 2)])
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
    f9 = galois_field(3, 2)
    # x^3 - x = x (x-1) (x+1): its roots are the prime subfield
    f = as_poly(f9, [0, -1, 0, 1])
    rng = random.Random(0)
    factors = pfactor(f, f9, rng)
    assert [pdeg(g) for g, _ in factors] == [1, 1, 1]
    roots = [-g[0] for g, _ in factors]
    assert sorted(f9.coefficients(r) for r in roots) == [(0, 0), (1, 0), (2, 0)]


def test_artin_schreier_irreducible():
    # x^3 - x - 1 is irreducible over F_3, so over F_9 too (gcd(3, 2) = 1)
    f9 = galois_field(3, 2)
    f = as_poly(f9, [-1, -1, 0, 1])
    assert pis_irreducible(f, f9)
    # splits over F_27 into linear factors
    f27 = galois_field(3, 3)
    lifted = as_poly(f27, [f27.from_int(-1), f27.from_int(-1), f27.zero, f27.one])
    rng = random.Random(3)
    roots = [-g[0] for g, _ in pfactor(lifted, f27, rng) if pdeg(g) == 1]
    assert len(roots) == 3
    assert all(not peval(lifted, r, f27) for r in roots)


def test_repeated_factors_multiplicity():
    f25 = galois_field(5, 2)
    rng = random.Random(9)
    x_plus_1 = as_poly(f25, [1, 1])
    x_plus_2 = as_poly(f25, [2, 1])
    f = pmul(pmul(x_plus_1, x_plus_1, f25), x_plus_2, f25)
    factors = dict(pfactor(f, f25, rng))
    assert factors[x_plus_1] == 2
    assert factors[x_plus_2] == 1


def test_pth_power_factorization():
    f9 = galois_field(3, 2)
    rng = random.Random(4)
    x_plus_1 = as_poly(f9, [1, 1])
    f = x_plus_1
    for _ in range(5):
        f = pmul(f, x_plus_1, f9)  # (x+1)^6
    factors = pfactor(f, f9, rng)
    assert factors == [(x_plus_1, 6)]


def test_divmod_and_eval():
    f49 = galois_field(7, 2)
    rng = random.Random(11)
    for _ in range(20):
        f = random_poly(f49, rng.randrange(1, 8), rng)
        g = random_poly(f49, rng.randrange(1, 5), rng)
        q, r = pdivmod(f, g, f49)
        recombined = ptrim(
            a + b
            for a, b in zip(
                list(pmul(q, g, f49)) + [f49.zero] * 10,
                list(r) + [f49.zero] * 10,
            )
        )
        assert recombined == f
        a = f49.random(rng)
        assert peval(f, a, f49) == peval(q, a, f49) * peval(g, a, f49) + peval(r, a, f49)


def test_gcd_common_factor():
    f4 = galois_field(2, 2)
    x = as_poly(f4, [0, 1])
    # x^2 + x + 1 splits over F_4, into factors other than x + 1
    f = pmul(x, as_poly(f4, [1, 1]), f4)
    g = pmul(x, as_poly(f4, [1, 1, 1]), f4)
    assert pgcd(f, g, f4) == x


# fastpoly over F_p against the generic implementation over F_{p^2}

def test_fastpoly_agrees_with_generic():
    """An F_5-irreducible factor of degree d stays irreducible over F_25
    when d is odd and splits into two of degree d / 2 when d is even."""
    p = 5
    f25 = galois_field(p, 2)
    rng = random.Random(21)
    count = 0
    for _ in range(10):
        ints = [rng.randrange(p) for _ in range(rng.randrange(3, 12))] + [1]
        fast_factors = [
            tuple(int(c) for c in irr)
            for irr in fastpoly.iter_irreducible_factors(fastpoly.from_ints(ints, p), p, random.Random(1))
        ]
        lifted = set()
        for irr in fast_factors:
            d = len(irr) - 1
            parts = pfactor(as_poly(f25, irr), f25, random.Random(1))
            if d % 2:
                assert parts == [(as_poly(f25, irr), 1)]
            else:
                assert [(pdeg(g), m) for g, m in parts] == [(d // 2, 1), (d // 2, 1)]
            lifted.update(g for g, _ in parts)
        assert lifted == {g for g, _ in pfactor(as_poly(f25, ints), f25, random.Random(1))}
        count += len(fast_factors)
    assert count == 22


def test_fastpoly_squarefree_part():
    p = 3
    x_plus_1 = fastpoly.from_ints([1, 1], p)
    f = fastpoly.from_ints([1], p)
    for _ in range(9):
        f = fastpoly.mul(f, x_plus_1, p)
    sf = fastpoly.squarefree_part(f, p)
    assert [int(c) for c in sf] == [1, 1]
