import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kw1 import center, linalg
from kw1.center import (
    CenterBasis,
    center_basis_bounded,
    fraction_field_degree,
    kw1_verdict,
    p_center_generators,
    rank_over_frobenius_subring,
    zp_coordinates,
    zp_subalgebra_contains,
)
from kw1.cli import _prepare, main
from kw1.errors import SelfCheckFailure, WeightMismatch
from kw1.fields import galois_field, prime_field
from kw1.liealg import index_generic
from kw1.registry import builtin_examples, get_example
from kw1.pbw import SymPoly, pbw_bracket, ue_gen, ue_monomial, ue_one
from kw1.util import deglex_key, monomials_upto


def test_p_center_generators_remark(make_algebra):
    alg = make_algebra("remark:1:1", 3)
    xi = p_center_generators(alg).xi
    assert xi[0] == ue_monomial(alg, (3, 0, 0)) - ue_gen(alg, 0)
    assert xi[1] == ue_monomial(alg, (0, 3, 0))
    assert xi[2] == ue_monomial(alg, (0, 0, 3))


def test_p_center_generators_heisenberg(make_algebra):
    alg = make_algebra("heisenberg", 3)
    xi = p_center_generators(alg).xi
    for i in range(3):
        mono = tuple(3 if k == i else 0 for k in range(3))
        assert xi[i] == ue_monomial(alg, mono)


def test_p_center_generators_abelian(make_algebra):
    alg = make_algebra("abelian:2", 5)
    xi = p_center_generators(alg).xi
    assert xi[0] == ue_monomial(alg, (5, 0))
    assert xi[1] == ue_monomial(alg, (0, 5))


def test_zp_coordinates_power_example(make_algebra):
    alg = make_algebra("remark:1:1", 3)
    v = zp_coordinates(ue_monomial(alg, (0, 4, 0)), alg)
    assert set(v.coordinates) == {(0, 1, 0)}
    poly = v.coordinates[(0, 1, 0)]
    assert poly.terms == {(0, 1, 0): alg.field.one}


def test_zp_coordinates_hp(make_algebra):
    alg = make_algebra("remark:1:1", 3)
    v = zp_coordinates(ue_monomial(alg, (3, 0, 0)), alg)
    # h^p = xi_h + h^[p] with h^[p] = h
    assert v.coordinates[(0, 0, 0)].terms == {(1, 0, 0): alg.field.one}
    assert v.coordinates[(1, 0, 0)].terms == {(0, 0, 0): alg.field.one}


def test_zp_coordinates_reduced_identity(make_algebra):
    alg = make_algebra("sl2", 3)
    m = ue_monomial(alg, (2, 1, 2))
    v = zp_coordinates(m, alg)
    assert v.coordinates == {(2, 1, 2): SymPoly.monomial(alg.field, 3, (0, 0, 0))}


def test_zp_reassembly_random(make_algebra):
    alg = make_algebra("sl2", 3)
    rng = random.Random(0)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            mono = tuple(rng.randrange(5) for _ in range(3))
            terms[mono] = alg.field.from_int(rng.randrange(1, 3))
        from kw1.pbw import UEElement

        a = UEElement(alg, terms)
        assert zp_coordinates(a, alg).reassemble() == a


def _worklist_coordinates(a, alg):
    """zp coordinates by a worklist over the whole element, rewriting each
    term's leftmost p-block x_i^p = xi_i + x_i^[p] until no exponent is >= p;
    {reduced monomial: {xi exponents: residue}}."""
    from kw1.pbw import _mono_times_letter, _mono_times_mono

    n, p = alg.n, alg.p
    work = [((0,) * n, mono, c) for mono, c in a.terms.items()]
    out = {}
    while work:
        xi, mono, coeff = work.pop()
        hot = next((i for i in range(n) if mono[i] >= p), None)
        if hot is None:
            bucket = out.setdefault(mono, {})
            bucket[xi] = bucket.get(xi, 0) + coeff
            continue
        prefix = tuple(mono[k] if k < hot else 0 for k in range(n))
        remainder = tuple(mono[k] - (p if k == hot else 0) if k >= hot else 0 for k in range(n))
        work.append((
            tuple(x + (k == hot) for k, x in enumerate(xi)),
            tuple(x - (p if k == hot else 0) for k, x in enumerate(mono)),
            coeff,
        ))
        for l, cl in enumerate(alg.restricted.vector(hot)):
            if cl:
                for m1, c1 in _mono_times_letter(alg, prefix, l).items():
                    for m2, c2 in _mono_times_mono(alg, m1, remainder).items():
                        work.append((xi, m2, coeff * cl * c1 * c2 % p))
    out = {m: {xi: c % p for xi, c in b.items() if c % p} for m, b in out.items()}
    return {m: b for m, b in out.items() if b}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_zp_coordinates_match_whole_element_worklist(data):
    # memoized per PBW monomial (sl2, gl2, remark:1:2) or single-term
    # (heisenberg, abelian:2: every x^[p] = 0, so no memo at all)
    from kw1.pbw import UEElement

    name = data.draw(st.sampled_from(["sl2", "gl2", "remark:1:2", "heisenberg", "abelian:2"]))
    p = data.draw(st.sampled_from([2, 3, 5]))
    alg = _prepare(get_example(name), p)
    mono = st.tuples(*[st.integers(0, 2 * p + 1)] * alg.n)
    a = UEElement(alg, data.draw(st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=4)))
    got = zp_coordinates(a, alg)
    assert {m: poly.terms for m, poly in got.coordinates.items()} == _worklist_coordinates(a, alg)
    if not any(any(alg.restricted.vector(i)) for i in range(alg.n)):
        assert "zp-coordinates" not in alg._pbw_memo
    assert got.reassemble() == a


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_coordinate_product_is_zp_of_the_product(data):
    # zp(a b) = sum of c xi^u zp(x^m b) over the terms (m, u, c) of zp(a),
    # for every b: xi is central, so b need not be
    from kw1.pbw import UEElement

    name = data.draw(st.sampled_from(["sl2", "gl2", "heisenberg", "remark:1:2"]))
    p = data.draw(st.sampled_from([2, 3, 5]))
    alg = _prepare(get_example(name), p)
    mono = st.tuples(*[st.integers(0, 2 * p)] * alg.n)
    a, b = (
        UEElement(alg, data.draw(st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=3)))
        for _ in range(2)
    )
    rows = center._SpinRows(alg, [b])
    terms = rows.terms
    terms.extend([terms.row(center._zp_terms(alg, a.terms).items())])
    nums, exps, coef = rows.times(1, 0)
    got = {(terms.monomials[k], tuple(x)): v for k, x, v in zip(nums.tolist(), exps.tolist(), coef.tolist())}
    want = zp_coordinates(a * b, alg).coordinates
    assert got == {(m, xi): c for m, poly in want.items() for xi, c in poly.terms.items()}


def test_center_basis_remark_golden(make_algebra):
    alg = make_algebra("remark:1:1", 3)
    cb = center_basis_bounded(alg, 4, seed=0)
    rendered = sorted(el.render() for el in cb.elements)
    assert rendered == sorted(
        ["1", "h^3 + 2*h", "x^3", "y^3", "x*y^2", "x^2*y"]
    )
    assert cb.stabilized


def test_center_basis_abelian_everything_central(make_algebra):
    alg = make_algebra("abelian:2", 2)
    cb = center_basis_bounded(alg, 1, seed=0)
    assert sorted(el.render() for el in cb.elements) == ["1", "x1", "x2"]


def test_center_basis_heisenberg_degree1(make_algebra):
    alg = make_algebra("heisenberg", 3)
    cb = center_basis_bounded(alg, 1, seed=0)
    assert sorted(el.render() for el in cb.elements) == ["1", "z"]


def test_center_elements_commute_exactly(make_algebra):
    alg = make_algebra("sl2", 3)
    cb = center_basis_bounded(alg, 4, seed=0)
    gens = [ue_gen(alg, i) for i in range(3)]
    for el in cb.elements:
        for g in gens:
            assert pbw_bracket(g, el).is_zero()


def test_rank_over_p_center_values(make_algebra):
    alg = make_algebra("remark:1:1", 3)
    cb = center_basis_bounded(alg, 4, seed=0)
    assert cb.rank == 3
    alg5 = make_algebra("sl2", 5)
    cb5 = center_basis_bounded(alg5, 8, seed=0)
    assert cb5.rank == 5
    ab = make_algebra("abelian:2", 3)
    cb_ab = center_basis_bounded(ab, 4, seed=0)
    assert cb_ab.rank == 9


def test_zp_membership_counterexample(make_algebra):
    # xy^2 is central at p = 3 but does not lie in the p-center
    alg = make_algebra("remark:1:1", 3)
    xy2 = ue_monomial(alg, (0, 1, 2))
    cb = center_basis_bounded(alg, 4, seed=0)
    assert any(el == xy2 for el in cb.elements)
    assert not zp_subalgebra_contains(xy2, alg)
    xi = p_center_generators(alg).xi
    for el in xi:
        assert zp_subalgebra_contains(el, alg)
    assert zp_subalgebra_contains(xi[0] * xi[1] + ue_one(alg), alg)


@pytest.mark.parametrize(
    "nm,p", [((1, 1), 3), ((1, 2), 5), ((2, 3), 7)]
)
def test_fraction_field_degree_family(make_algebra, nm, p):
    n, m = nm
    alg = make_algebra(f"remark:{n}:{m}", p)
    phi = ue_monomial(alg, (0, m, 0))
    psi = ue_monomial(alg, (0, 0, n))
    assert fraction_field_degree(phi, psi, alg, p, seed=0) == p


def test_fraction_field_degree_trivial(make_algebra):
    alg = make_algebra("remark:1:1", 3)
    xi = p_center_generators(alg).xi[1]
    assert fraction_field_degree(xi, xi, alg, 3, seed=0) == 1


def test_fraction_field_degree_weight_mismatch(make_algebra):
    alg = make_algebra("remark:1:2", 3)
    x = ue_gen(alg, 1)
    y = ue_gen(alg, 2)
    with pytest.raises(WeightMismatch):
        fraction_field_degree(x, y, alg, 3, seed=0)


def test_fraction_field_inconclusive_bound(make_algebra):
    # with power bound below p the dependence cannot be seen
    alg = make_algebra("remark:1:1", 5)
    phi = ue_monomial(alg, (0, 1, 0))
    psi = ue_monomial(alg, (0, 0, 1))
    assert fraction_field_degree(phi, psi, alg, 3, seed=0) == 4


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_rank_lemma_values(p):
    x = {(1, 0): 1}
    y = {(0, 1): 1}
    assert rank_over_frobenius_subring(2, [x], p, seed=0) == p
    assert rank_over_frobenius_subring(2, [], p, seed=0) == p * p
    assert rank_over_frobenius_subring(2, [x, y], p, seed=0) == 1


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_frobenius_rank_of_monomials_closed_form(data):
    # B . A^p for monomials x^(m_j) has the reduced monomials of the F_p-span
    # of the rows m_j mod p as a basis, so the rank is p^(n - rank_Fp(M mod p))
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, p + 1)] * n), max_size=3))
    coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=len(rows), max_size=len(rows)))
    gens = [{m: c} for m, c in zip(rows, coeffs)]
    span = linalg.rank(np.array(rows, dtype=np.int64).reshape(len(rows), n, 1), prime_field(p))
    assert rank_over_frobenius_subring(n, gens, p, seed=0) == p ** (n - span)


@pytest.mark.parametrize(
    "num_vars, gens, p, cap, multiplications, nbytes",
    [
        # refused once x^0 .. x^93 are kept: 94 products over 94 reduced
        # monomials pass the cap, long before all 1008 powers are formed
        (1, [{(1,): 1}], 1009, 1 << 19, 93, 8 * 94 * (2 * 94 + 8 * 64)),
        # both power tables pass; the 133rd product of the second table meets
        # a 159th reduced monomial, before all 961 products are formed
        (2, [{(1, 0): 1}, {(0, 1): 1}], 31, 1 << 20, 224, 8 * 159 * (2 * 159 + 8 * 64)),
    ],
)
def test_frobenius_budget_is_checked_as_the_tables_grow(
    monkeypatch, num_vars, gens, p, cap, multiplications, nbytes
):
    from kw1.errors import DegreeBoundTooLargeForMemory

    monkeypatch.setattr(center, "MATRIX_BYTES_CAP", cap)
    formed = []
    real_mul = SymPoly.__mul__

    def mul(a, b):
        formed.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(SymPoly, "__mul__", mul)
    with pytest.raises(DegreeBoundTooLargeForMemory, match="bytes of specialized rank matrices") as info:
        rank_over_frobenius_subring(num_vars, gens, p, seed=0)
    assert (len(formed), info.value.count) == (multiplications, nbytes)


def test_frobenius_rank_nonmonomial():
    # B generated by x + y: still transcendence degree 1
    assert rank_over_frobenius_subring(2, [{(1, 0): 1, (0, 1): 1}], 3, seed=0) == 3


def test_kw1_verdict_remark(make_algebra):
    alg = make_algebra("remark:1:1", 3)
    rep = kw1_verdict(alg, seed=0)
    assert rep.verdict == "verified"
    assert (rep.ind, rep.rank_z_over_zp, rep.m_upper, rep.m_lower) == (1, 3, 3, 3)
    assert rep.stabilized


def test_kw1_verdict_inconclusive_low_bound(make_algebra):
    alg = make_algebra("remark:1:1", 3)
    rep = kw1_verdict(alg, degree_bound=1, seed=0)
    assert rep.verdict == "inconclusive"
    assert rep.rank_z_over_zp == 1
    assert rep.m_upper is None
    assert rep.m_upper_formal == "3^(3/2)"
    assert any("raise the degree bound" in note for note in rep.notes)


@pytest.mark.parametrize(
    "nm,p",
    [((1, 1), 3), ((1, 1), 5), ((1, 1), 7),
     ((1, 2), 3), ((1, 2), 5), ((1, 2), 7),
     ((2, 3), 5), ((2, 3), 7)],
)
def test_center_rendering_matches_golden_file(make_algebra, nm, p):
    import os

    n, m = nm
    alg = make_algebra(f"remark:{n}:{m}", p)
    cb = center_basis_bounded(alg, 2 * p - 2, seed=0)
    path = os.path.join(
        os.path.dirname(__file__), "golden", f"center_remark_{n}_{m}_p{p}.txt"
    )
    with open(path) as fh:
        want = [line.rstrip("\n") for line in fh if line.strip()]
    assert [el.render() for el in cb.elements] == want


def test_degree_bound_memory_cap(make_algebra):
    from kw1.errors import DegreeBoundTooLargeForMemory

    alg = make_algebra("heisenberg", 3)
    with pytest.raises(DegreeBoundTooLargeForMemory) as info:
        center_basis_bounded(alg, 60, seed=0)
    assert info.value.count > info.value.cap


def test_rank_monotone_in_degree(make_algebra):
    alg = make_algebra("heisenberg", 3)
    ranks = []
    for bound in range(1, 5):
        cb = center_basis_bounded(alg, bound, seed=0)
        ranks.append(cb.rank)
    assert ranks == sorted(ranks)
    assert all(r <= 3 for r in ranks)
    assert ranks[-1] == 3



# report bytes written before the D and D-1 slices shared one center solve
# and the D slice was ranked once
REPORT_GOLDENS = [
    ("report_abelian_2_p5_d1.json", "abelian:2", 5, ["--degree-bound", "1"]),
    ("report_sl2_p5_d2.json", "sl2", 5, ["--degree-bound", "2"]),
    ("report_abelian_2_p7_ext3.json", "abelian:2", 7, ["--ext", "3"]),
    ("report_remark_1_2_p7_d18.json", "remark:1:2", 7, ["--degree-bound", "18"]),
    ("report_gl2_p3_seed1.json", "gl2", 3, ["--seed", "1"]),
    ("report_gl2_p5_d3.json", "gl2", 5, ["--degree-bound", "3"]),
    ("report_gl2_p7_d3_seed1.json", "gl2", 7, ["--degree-bound", "3", "--seed", "1"]),
]


@pytest.mark.parametrize("fname,name,p,extra", REPORT_GOLDENS)
def test_report_bytes_match_golden(tmp_path, fname, name, p, extra):
    out = tmp_path / "report.json"
    code = main(["check", "--example", name, "--primes", str(p), *extra, "--out", str(out)])
    with open(os.path.join(os.path.dirname(__file__), "golden", fname), "rb") as fh:
        want = fh.read()
    assert out.read_bytes() == want
    assert code == (0 if b'"verified"' in want else 2)


def test_d_minus_1_slice_is_the_d_minus_1_center(monkeypatch):
    """One solve at D gives, by degree, the canonical basis at D-1."""
    spun = []

    def fake_spin(alg, first, then, ceiling, seed, min_ext=1):
        spun.append((list(first), list(then)))
        return 0, 0, prime_field(alg.p)

    monkeypatch.setattr(center, "_spin_ranks", fake_spin)
    for name, pres in builtin_examples().items():
        for p in (3, 5, 7):
            if (name == "gl2" and p == 5) or (name == "abelian:4" and p >= 5):
                continue
            alg = _prepare(pres, p)
            bound = center.default_degree_bound(alg)
            spun.clear()
            cb = center_basis_bounded(alg, bound, seed=0)
            first, then = spun[0]
            assert first == center._center_space(alg, bound - 1), (name, p)
            assert first == [el for el in cb.elements if el.degree < bound]
            assert then == [el for el in cb.elements if el.degree == bound]


def test_verdict_solves_once_and_ranks_twice(make_algebra, monkeypatch):
    """One index, one center solve, and one spin that reads both the D-1 and the D rank."""
    calls = {"index_generic": 0, "_center_space": 0, "_spin_ranks": 0}
    for fname in calls:
        real = getattr(center, fname)

        def counted(*args, _real=real, _name=fname, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(center, fname, counted)
    rep = kw1_verdict(make_algebra("remark:1:2", 5), seed=0, min_extension=3)
    assert rep.verdict == "verified" and rep.e == 3
    assert calls == {"index_generic": 1, "_center_space": 1, "_spin_ranks": 1}


def test_principal_symbol_self_check(make_algebra, monkeypatch):
    monkeypatch.setattr(
        center, "principal_symbol", lambda xi: SymPoly.zero(xi.ctx.field, xi.ctx.n)
    )
    with pytest.raises(SelfCheckFailure, match="principal symbol"):
        p_center_generators(make_algebra("sl2", 3))


def test_rank_above_p_ind_self_check(make_algebra, monkeypatch):
    # abelian:2 has rank 9 at p = 3; a wrong index of 0 caps the rank at 1
    monkeypatch.setattr(center, "index_generic", lambda alg, trials, seed: 0)
    with pytest.raises(SelfCheckFailure, match="exceeds p\\^ind"):
        kw1_verdict(make_algebra("abelian:2", 3), degree_bound=2)
    assert main(["check", "--example", "abelian:2", "--primes", "3", "--degree-bound", "2"]) == 3


def test_nullspace_centrality_self_check(make_algebra, monkeypatch):
    # every monomial claimed central, but x is not in the Heisenberg algebra
    monkeypatch.setattr(
        linalg,
        "nullspace_rref_sparse",
        lambda rows, cols, vals, ncols, p: np.eye(ncols, dtype=np.int64),
    )
    with pytest.raises(SelfCheckFailure, match="exact centrality"):
        center_basis_bounded(make_algebra("heisenberg", 3), 1)
    assert main(["center", "--example", "heisenberg", "--prime", "3", "--degree-bound", "1"]) == 3


# the commutator matrix, the gathered specialization and the round-1 products
# are each checked against the straightforward computation they replace


@pytest.mark.parametrize("p", [3, 5, 7])
def test_commutator_matrix_matches_pbw_bracket(p):
    for name, pres in builtin_examples().items():
        alg = _prepare(pres, p)
        n = alg.n
        for bound in (1, 3):
            monos = sorted(monomials_upto(n, bound), key=deglex_key, reverse=True)
            index = {m: k for k, m in enumerate(monos)}
            want = np.zeros((n * len(monos), len(monos)), dtype=np.int64)
            for col, m in enumerate(monos):
                for i in range(n):
                    br = pbw_bracket(ue_gen(alg, i), ue_monomial(alg, m))
                    for m2, c in br.terms.items():
                        want[i * len(monos) + index[m2], col] = c
            rows, cols, vals = center._commutator_entries(alg, monos, index)
            assert len(set(zip(rows, cols))) == len(rows) and all(vals)
            got = np.zeros_like(want)
            got[rows, cols] = vals
            assert np.array_equal(got, want), (name, p, bound)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_gathered_rows_match_evaluate(e):
    rng = random.Random(40 + e)
    for p, n in ((2, 2), (3, 3), (5, 2), (7, 4)):
        base = prime_field(p)
        field = galois_field(p, e, seed=e)
        cols = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(5)]
        maps = [{}]  # a row without coordinates stays zero
        for _ in range(4):
            row = {}
            for col in rng.sample(cols, rng.randrange(1, len(cols) + 1)):
                terms = {
                    tuple(rng.randrange(4) for _ in range(n)): rng.randrange(1, p)
                    for _ in range(rng.randrange(1, 5))
                }
                row[col] = SymPoly(base, n, terms)
            maps.append(row)
        maps.append({cols[0]: SymPoly.one(base, n)})
        terms = center._CoordinateTerms(n)
        terms.extend([
            terms.row(((m, xi), a) for m, poly in row.items() for xi, a in poly.terms.items())
            for row in maps
        ])
        for _ in range(3):
            point = [field.random_nonzero(rng) for _ in range(n)]
            got = terms.values(point, field)
            assert got.shape == (len(maps), len(terms.columns), e)
            rows = []
            for r, row in enumerate(maps):
                want = [
                    row[col].evaluate(point, field) if col in row else field.zero
                    for col in terms.columns
                ]
                assert [tuple(v) for v in got[r]] == [field.coefficients(w) for w in want]
                rows.append(want)
            # the list-RREF reference needs field arithmetic: F_p lifts into F_{p^2}
            ref = field if e > 1 else galois_field(p, 2)
            want_rank = linalg.rank_ff([[ref.scalar(v) for v in row] for row in rows], ref)
            assert linalg.rank(got, field) == want_rank
            picked = [len(maps) - 1, 0, 2]
            assert np.array_equal(terms.values(point, field, rows=picked), got[picked])


@pytest.mark.parametrize("name,p", [("sl2", 5), ("gl2", 3)])
def test_spin_straightens_only_reduced_monomials_once(make_algebra, monkeypatch, name, p):
    """The spin forms each (row, generator) product once and each
    T[m, j] = zp(x^m gens[j]) once, across all points, and every
    straightening it starts has a reduced monomial (exponents < p) on the
    left: a row is multiplied in its zp coordinates, never as an element."""
    from kw1 import pbw

    alg = make_algebra(name, p)
    bound = center.default_degree_bound(alg)
    elements = center._center_space(alg, bound)
    prev = [el for el in elements if el.degree < bound]
    top = [el for el in elements if el.degree == bound]
    formed, tabled, lefts = [], [], []
    real_times, real_table = center._SpinRows.times, center._product_coordinates

    def times(rows, r, j):
        formed.append((r, j))
        return real_times(rows, r, j)

    def table(alg, mono, gen):
        tabled.append((mono, frozenset(gen.terms.items())))
        return real_table(alg, mono, gen)

    def straighten(real):
        def run(ctx, a, b):
            lefts.append(a)
            return real(ctx, a, b)
        return run

    monkeypatch.setattr(center._SpinRows, "times", times)
    monkeypatch.setattr(center, "_product_coordinates", table)
    monkeypatch.setattr(pbw, "_mono_times_mono", straighten(pbw._mono_times_mono))
    monkeypatch.setattr(center, "_mono_times_mono", straighten(center._mono_times_mono))
    ceiling = p ** index_generic(alg, 3, 0)
    assert center._spin_ranks(alg, prev, top, ceiling, 0)[:2] == (ceiling, ceiling)
    assert formed and len(formed) == len(set(formed)), name
    assert tabled and len(tabled) == len(set(tabled)), name
    assert lefts and all(a < p for left in lefts for a in left), name


@pytest.mark.parametrize("name,p,numbered,columns", [("sl2", 5, 25, 19), ("gl2", 5, 122, 112)])
def test_spin_columns_are_the_monomials_its_rows_meet(make_algebra, monkeypatch, name, p, numbered, columns):
    """A column is a reduced monomial with a nonzero coefficient in some
    gathered row, numbered in the order the rows first meet it; one met
    only in the table T, cancelled in every product, is numbered but has
    no column."""
    alg = make_algebra(name, p)
    bound = 3 if name == "gl2" else center.default_degree_bound(alg)
    elements = center._center_space(alg, bound)
    spun, real = [], center._SpinRows

    def made(alg, gens):
        spun.append(real(alg, gens))
        return spun[-1]

    monkeypatch.setattr(center, "_SpinRows", made)
    center._spin_ranks(alg, [el for el in elements if el.degree < bound],
                       [el for el in elements if el.degree == bound], p ** index_generic(alg, 3, 0), 0)
    terms = spun[0].terms
    met = {}
    for nums, _, coef in terms.rows:
        assert coef.all()
        met.update((terms.monomials[k], None) for k in nums.tolist())
    assert terms.columns == list(met)
    assert (len(terms.monomials), len(terms.columns)) == (numbered, columns)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_sl2_rank_at_degree_two_is_p(make_algebra, p):
    """Z_p[C] has rank p, so D = 2 (the Casimir) already pins M = p."""
    rep = kw1_verdict(make_algebra("sl2", p), degree_bound=2, seed=0)
    assert (rep.rank_z_over_zp, rep.verdict, rep.m_upper) == (p, "verified", p)
    assert not rep.stabilized  # the D-1 slice holds only the scalars


def test_spin_reaches_full_rank_and_stabilizes(make_algebra):
    # F_5[x, y] has rank 25 over F_5[x^5, y^5], reached from degree 1
    cb = center_basis_bounded(make_algebra("abelian:2", 5), 1, seed=0)
    assert cb.rank == 25
    # gl2@5: z and the Casimir generate rank 25 from the D-1 = 2 slice
    cb = center_basis_bounded(make_algebra("gl2", 5), 3, seed=0)
    assert (cb.rank, cb.stabilized) == (25, True)


@pytest.mark.parametrize(
    "name, p, bound, verdict, stabilized, points",
    [
        ("gl2", 5, 3, "verified", True, 1),
        ("remark:1:2", 5, None, "verified", True, 1),
        ("sl2", 5, 2, "verified", False, center.RANK_TRIALS),
        ("remark:1:1", 3, 2, "inconclusive", True, center.RANK_TRIALS),
    ],
)
def test_spin_stops_once_both_ranks_reach_p_ind(
    make_algebra, monkeypatch, name, p, bound, verdict, stabilized, points
):
    # a later point can raise neither rank past p^ind, so it is spun only
    # while one of them is below it; spun counts the points per SZ field
    spun, real = {}, center._Span

    def counted(field, point):
        spun[field.e] = spun.get(field.e, 0) + 1
        return real(field, point)

    monkeypatch.setattr(center, "_Span", counted)
    rep = kw1_verdict(make_algebra(name, p), degree_bound=bound, seed=0)
    assert (rep.verdict, rep.stabilized) == (verdict, stabilized)
    assert spun and all(count == points for count in spun.values()), spun


def test_rank_self_check_is_live_under_the_stop(make_algebra, monkeypatch):
    # gl2@3 has rank 9; a wrong index of 1 gives a ceiling of 3, which no
    # point reads, so every point is spun and the self-check fires
    monkeypatch.setattr(center, "index_generic", lambda alg, trials, seed: 1)
    with pytest.raises(SelfCheckFailure, match="rank 9 exceeds p\\^ind = 3"):
        kw1_verdict(make_algebra("gl2", 3))
    assert main(["check", "--example", "gl2", "--primes", "3"]) == 3


def test_spin_budget_counts_echelons_and_one_block():
    from kw1.errors import DegreeBoundTooLargeForMemory

    # a full echelon, its old copy while it grows, and 8 blocks of 64 rows
    width = 8064
    assert 8 * width * (2 * width + 8 * 64) <= center.MATRIX_BYTES_CAP
    center._check_spin_budget(width, 64, width)
    with pytest.raises(DegreeBoundTooLargeForMemory, match="rank") as info:
        center._check_spin_budget(width, 64, width + 1)
    assert info.value.count == 8 * (width + 1) * (2 * (width + 1) + 8 * 64)
    # a buffer holds at most twice its rows, and never more than its width
    center._check_spin_budget(0, 10, 10**6)
    with pytest.raises(DegreeBoundTooLargeForMemory):
        center._check_spin_budget(0, 20000, 10**5)


def test_verdict_ffelem_multiplications_bounded(make_algebra, monkeypatch):
    """Specialization evaluates distinct xi-monomials, not coordinate terms."""
    from kw1.fields import FFElem

    counted = {"mul": 0}
    real_mul = FFElem.__mul__

    def mul(self, other):
        counted["mul"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(FFElem, "__mul__", mul)
    monkeypatch.setattr(FFElem, "__rmul__", mul)
    xi_monomials = set()
    real_zp = center.zp_coordinates

    def zp(a, alg):
        vec = real_zp(a, alg)
        for poly in vec.coordinates.values():
            xi_monomials.update(poly.terms)
        return vec

    monkeypatch.setattr(center, "zp_coordinates", zp)
    alg = make_algebra("sl2", 5)
    rep = kw1_verdict(alg, seed=0)
    assert rep.verdict == "verified" and rep.e > 1
    assert counted["mul"] <= len(xi_monomials) * center.RANK_TRIALS * alg.n


def test_matrix_budget_boundary():
    from kw1.errors import DegreeBoundTooLargeForMemory

    # one generator, 2^13 monomials: matrix and RREF copy are exactly 2^30 bytes
    assert 2 * 8 * (2**13) ** 2 == center.MATRIX_BYTES_CAP
    center._check_matrix_budget(1, 2**13)
    with pytest.raises(DegreeBoundTooLargeForMemory) as info:
        center._check_matrix_budget(1, 2**13 + 1)
    assert info.value.count == 2 * 8 * (2**13 + 1) ** 2
    assert info.value.cap == center.MATRIX_BYTES_CAP
    assert "bytes" in str(info.value)


def test_center_space_refuses_matrix_over_budget(make_algebra):
    import tracemalloc

    from kw1.errors import DegreeBoundTooLargeForMemory

    # 17550 monomials pass the monomial cap; the matrix would need ~19.7 GB
    alg = make_algebra("abelian:4", 3)
    assert center.monomial_count(4, 23) <= center.MONOMIAL_CAP
    tracemalloc.start()
    try:
        with pytest.raises(DegreeBoundTooLargeForMemory, match="bytes"):
            center_basis_bounded(alg, 23, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    args = ["center", "--example", "abelian:4", "--prime", "3", "--degree-bound", "23"]
    assert main(args) == 1
