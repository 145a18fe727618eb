"""Seed-pinned randomized property suites.

Every suite runs at least 100 cases drawn from fixed-seed RNGs over the
builtin algebras, and every assertion is exact.
"""

import random

import pytest

from kw1.center import (
    center_basis_bounded,
    p_center_generators,
    zp_coordinates,
)
from kw1.cli import _prepare
from kw1.liealg import index_generic
from kw1.pbw import (
    UEElement,
    load_memo,
    pbw_bracket,
    pbw_multiply,
    principal_symbol,
    save_memo,
    semi_invariant_weight,
    sym_from_element,
    symmetrize,
    ue_gen,
    ue_one,
)
from kw1.redenv import Character, regular_representation, split_simples
from kw1.registry import get_example

from conftest import SUITE

NEG_INF = float("-inf")


def random_element(alg, rng, max_terms=3, max_degree=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = [0] * alg.n
        for _ in range(rng.randrange(0, max_degree + 1)):
            mono[rng.randrange(alg.n)] += 1
        coeff = alg.field.from_int(rng.randrange(1, alg.p))
        terms[tuple(mono)] = coeff
    return UEElement(alg, terms)


def suite_algebras(p):
    return [_prepare(get_example(name), p) for name in SUITE]


def test_pbw_associativity_100_trials():
    rng = random.Random(2024)
    algebras = suite_algebras(5)
    cases = 0
    while cases < 100:
        alg = algebras[rng.randrange(len(algebras))]
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        c = random_element(alg, rng)
        assert pbw_multiply(pbw_multiply(a, b), c) == pbw_multiply(a, pbw_multiply(b, c))
        cases += 1


def test_symbol_multiplicativity_100_trials():
    rng = random.Random(77)
    algebras = suite_algebras(5)
    cases = 0
    while cases < 100:
        alg = algebras[rng.randrange(len(algebras))]
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        if a.is_zero() or b.is_zero():
            continue
        lhs = principal_symbol(pbw_multiply(a, b))
        rhs = principal_symbol(a) * principal_symbol(b)
        assert lhs == rhs
        cases += 1


def test_bracket_degree_drop_100_trials():
    rng = random.Random(31)
    algebras = suite_algebras(5)
    cases = 0
    while cases < 100:
        alg = algebras[rng.randrange(len(algebras))]
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        br = pbw_bracket(a, b)
        if br.degree is NEG_INF:
            cases += 1
            continue
        assert br.degree <= a.degree + b.degree - 1
        cases += 1


def test_symmetrization_section_100_trials():
    rng = random.Random(404)
    algebras = suite_algebras(7)
    cases = 0
    while cases < 100:
        alg = algebras[rng.randrange(len(algebras))]
        degree = rng.randrange(1, 5)
        mono = [0] * alg.n
        for _ in range(degree):
            mono[rng.randrange(alg.n)] += 1
        f = sym_from_element(
            UEElement(alg, {tuple(mono): alg.field.from_int(rng.randrange(1, 7))})
        )
        sym = symmetrize(f, alg)
        assert principal_symbol(sym) == f
        cases += 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_xi_centrality_all_suite(p):
    cases = 0
    for alg in suite_algebras(p):
        for xi in p_center_generators(alg).xi:
            for i in range(alg.n):
                assert pbw_bracket(ue_gen(alg, i), xi).is_zero()
                cases += 1
    assert cases >= 100 // 3  # across the three parametrized primes


def test_zp_reassembly_100_per_algebra():
    for name in SUITE:
        alg = _prepare(get_example(name), 3)
        rng = random.Random(hash_seed := 900 + len(name))
        for _ in range(100):
            a = random_element(alg, rng, max_terms=3, max_degree=7)
            assert zp_coordinates(a, alg).reassemble() == a


def test_rank_monotone_and_bounded_sweep():
    points = 0
    for p in (2, 3, 5):
        for name in SUITE:
            alg = _prepare(get_example(name), p)
            cap = p ** index_generic(alg, 3, 0)
            prev = 0
            for bound in range(1, 2 * p - 1 + 1):
                cb = center_basis_bounded(alg, bound, seed=0)
                r = cb.rank
                assert prev <= r <= cap
                prev = r
                points += 1
    assert points >= 100


def test_split_dims_sum_100_cases():
    rng = random.Random(55)
    combos = [
        ("abelian:2", 2), ("abelian:2", 3), ("abelian:2", 5),
        ("nonabelian2", 2), ("nonabelian2", 3), ("nonabelian2", 5),
        ("heisenberg", 2), ("heisenberg", 3),
        ("remark:1:1", 2), ("sl2", 2),
    ]
    cases = 0
    for name, p in combos:
        alg = _prepare(get_example(name), p)
        field = alg.field
        for _ in range(10):
            chi = Character(
                tuple(field.from_int(rng.randrange(p)) for _ in range(alg.n))
            )
            rep = split_simples(
                regular_representation(alg, chi), seed=7
            )
            assert sum(rep.dims) == p**alg.n
            cases += 1
    assert cases >= 100


def test_index_parity_100_cases():
    cases = 0
    for p in (2, 3, 5, 7):
        for name in SUITE + ("gl2", "borel2", "abelian:4"):
            alg = _prepare(get_example(name), p)
            for seed in (0, 1, 2):
                ind = index_generic(alg, 3, seed)
                assert (alg.n - ind) % 2 == 0
                cases += 1
    assert cases >= 100


@pytest.mark.parametrize("p", [5, 7])
def test_index_mod_p_matches_rational(p):
    for name in SUITE + ("gl2", "borel2"):
        pres = get_example(name)
        alg = _prepare(pres, p)
        assert index_generic(alg, 3, 0) == index_generic(pres, 3, 0), name


def test_semi_invariant_power_law():
    # weight(a) = lambda implies a^p is central
    cases = 0
    rng = random.Random(13)
    for name, p in (("remark:1:1", 3), ("remark:1:2", 3), ("remark:2:3", 5)):
        alg = _prepare(get_example(name), p)
        for _ in range(20):
            i = rng.randrange(1, 3)
            k = rng.randrange(1, 3)
            a = ue_gen(alg, i) ** k
            lam = semi_invariant_weight(a)
            assert lam is not None
            power = a**p
            for j in range(alg.n):
                assert pbw_bracket(ue_gen(alg, j), power).is_zero()
            cases += 1
    assert cases >= 60


def test_base_change_preserves_validation():
    from kw1.liealg import base_change_mod_p, validate_presentation

    for name in SUITE + ("gl2", "borel2"):
        pres = get_example(name)
        assert validate_presentation(pres) == []
        for p in (2, 3, 5):
            alg = base_change_mod_p(pres, p)
            assert validate_presentation(alg) == []


BUILTINS = SUITE + ("abelian:4", "gl2", "borel2", "remark:2:3")


def _assert_residues(terms, p, where):
    for c in terms.values():
        assert type(c) is int and 1 <= c < p, (where, c)


def _assert_memo_residues(alg):
    for key, value in alg._pbw_memo.items():
        if not isinstance(key, str):
            _assert_residues(value, alg.p, key)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_prime_field_scalars_are_int_residues(p, tmp_path):
    # over F_p every stored coefficient is a plain int in [1, p): in
    # elements, in zp coordinate polynomials and in the straightening memo
    rng = random.Random(8000 + p)
    cases = 0
    for name in BUILTINS:
        alg = _prepare(get_example(name), p)
        for _ in range(4):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            for el in (a, pbw_multiply(a, b), pbw_bracket(a, b), a - b, -a):
                _assert_residues(el.terms, p, name)
                for poly in zp_coordinates(el, alg).coordinates.values():
                    _assert_residues(poly.terms, p, name)
                cases += 1
        _assert_memo_residues(alg)
        path = tmp_path / f"{name.replace(':', '-')}.pkl"
        count = save_memo(alg, path)
        fresh = _prepare(get_example(name), p)
        assert load_memo(fresh, path) == count
        _assert_memo_residues(fresh)
    assert cases >= 100
