import random
from fractions import Fraction

import pytest

from kw1.errors import (
    CoefficientFieldMismatch,
    FactorialNotInvertible,
    ZeroElement,
)
from kw1.liealg import base_change_mod_p
from kw1.pbw import (
    SymPoly,
    pbw_bracket,
    pbw_multiply,
    principal_symbol,
    semi_invariant_weight,
    symmetrize,
    ue_gen,
    ue_monomial,
    ue_one,
    ue_zero,
)
from kw1.registry import get_example


@pytest.fixture
def g11(make_algebra):
    return make_algebra("remark:1:1", 3)


@pytest.fixture
def heis(make_algebra):
    return make_algebra("heisenberg", 3)


def test_multiply_reorders_g11(g11):
    h, x = ue_gen(g11, 0), ue_gen(g11, 1)
    prod = pbw_multiply(x, h)
    # x h = h x - [h, x] = h x - x
    assert prod == pbw_multiply(h, x) - x
    assert prod.terms[(1, 1, 0)] == g11.field.one
    assert int(prod.terms[(0, 1, 0)]) == 2  # -1 mod 3


def test_multiply_heisenberg(heis):
    x, y, z = (ue_gen(heis, i) for i in range(3))
    assert pbw_multiply(y, x) == pbw_multiply(x, y) - z


def test_multiply_identity(heis):
    a = ue_monomial(heis, (1, 2, 0), 2) + ue_gen(heis, 2)
    assert pbw_multiply(ue_one(heis), a) == a
    assert pbw_multiply(a, ue_one(heis)) == a


def test_bracket_reproduces_structure_constants(heis):
    x, y, z = (ue_gen(heis, i) for i in range(3))
    assert pbw_bracket(x, y) == z
    assert pbw_bracket(x, x).is_zero()
    assert pbw_bracket(z, x).is_zero()


def test_bracket_weight_vector(make_algebra):
    # [h, x^2 y] = (2n + m) x^2 y in the weighted family
    alg = make_algebra("remark:1:2", 5)
    h = ue_gen(alg, 0)
    m = ue_monomial(alg, (0, 2, 1))
    assert pbw_bracket(h, m) == m.scale(4)  # 2*1 + 1*2 = 4


def test_coefficient_field_mismatch(make_algebra):
    a3 = make_algebra("heisenberg", 3)
    a5 = make_algebra("heisenberg", 5)
    with pytest.raises(CoefficientFieldMismatch):
        pbw_multiply(ue_gen(a3, 0), ue_gen(a5, 0))


def test_filtration_degree(heis):
    assert ue_zero(heis).degree == float("-inf")
    a = ue_monomial(heis, (1, 2, 0))
    b = ue_monomial(heis, (0, 1, 1))
    assert pbw_multiply(a, b).degree <= a.degree + b.degree
    assert pbw_bracket(a, b).degree <= a.degree + b.degree - 1


def test_symmetrize_single_variable(heis):
    f = SymPoly.monomial(heis.field, 3, (2, 0, 0))
    assert symmetrize(f, heis) == ue_monomial(heis, (2, 0, 0))


def test_symmetrize_heisenberg_xy_char0():
    pres = get_example("heisenberg")
    f = SymPoly.monomial(pres.field, 3, (1, 1, 0))
    got = symmetrize(f, pres)
    expected = ue_monomial(pres, (1, 1, 0)) - ue_gen(pres, 2).scale(Fraction(1, 2))
    assert got == expected


def test_symmetrize_heisenberg_xy_mod5(make_algebra):
    alg = make_algebra("heisenberg", 5)
    f = SymPoly.monomial(alg.field, 3, (1, 1, 0))
    got = symmetrize(f, alg)
    half = pow(2, -1, alg.p)
    assert half == alg.field.scalar(Fraction(1, 2)) == 3
    assert got == ue_monomial(alg, (1, 1, 0)) - ue_gen(alg, 2).scale(half)


def test_symmetrize_factorial_not_invertible(heis):
    f = SymPoly.monomial(heis.field, 3, (3, 0, 0))
    with pytest.raises(FactorialNotInvertible):
        symmetrize(f, heis)


def test_principal_symbol(heis):
    a = ue_monomial(heis, (1, 1, 0)) - ue_gen(heis, 2).scale(2)
    assert principal_symbol(a) == SymPoly.monomial(heis.field, 3, (1, 1, 0))
    c = ue_one(heis).scale(2)
    assert principal_symbol(c) == SymPoly.monomial(heis.field, 3, (0, 0, 0), 2)
    with pytest.raises(ZeroElement):
        principal_symbol(ue_zero(heis))


def test_principal_symbol_of_p_center_generator(g11):
    # symbol(h^p - h) = h^p
    xi = ue_monomial(g11, (3, 0, 0)) - ue_gen(g11, 0)
    assert principal_symbol(xi) == SymPoly.monomial(g11.field, 3, (3, 0, 0))


def test_semi_invariant_weights(make_algebra):
    alg = make_algebra("remark:2:3", 7)
    x = ue_gen(alg, 1)
    w = semi_invariant_weight(x)
    assert w is not None and [int(c) for c in w] == [2, 0, 0]
    # x^m and y^n have the same weight n m
    xm = ue_monomial(alg, (0, 3, 0))
    yn = ue_monomial(alg, (0, 0, 2))
    assert semi_invariant_weight(xm) == semi_invariant_weight(yn)
    # h is not semi-invariant
    assert semi_invariant_weight(ue_gen(alg, 0)) is None


def test_render_canonical(make_algebra):
    alg = make_algebra("remark:1:1", 5)
    a = ue_monomial(alg, (2, 1, 0), 3) + ue_one(alg)
    assert a.render() == "3*h^2*x + 1"
    assert ue_zero(alg).render() == "0"
    # rendering is injective on normal forms: distinct -> distinct strings
    b = ue_monomial(alg, (2, 1, 0), 3) + ue_one(alg).scale(2)
    assert a.render() != b.render()


def test_sym_poly_algebra():
    from kw1.fields import prime_field

    f5 = prime_field(5)
    a = SymPoly.monomial(f5, 2, (1, 0)) + SymPoly.monomial(f5, 2, (0, 1))
    sq = a * a
    assert sq.terms[(1, 1)] == f5.from_int(2)
    assert max(sum(m) for m in (a**3).terms) == 3
    assert SymPoly.zero(f5, 2).is_zero()


