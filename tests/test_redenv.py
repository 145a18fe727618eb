import json
import random
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from kw1 import center, linalg, matops, redenv
from kw1.cli import main
from kw1.errors import CoefficientFieldMismatch, DimensionCap, SelfCheckFailure
from kw1.fields import galois_field, prime_field
from kw1.matops import ops_for
from kw1.pbw import ue_gen, ue_monomial
from kw1.redenv import (
    AlgebraModule,
    Character,
    max_irreducible_dim,
    regular_representation,
    split_simples,
)
from kw1.util import deglex_key, derive_seed


def chi_of(alg, *values, field=None):
    f = field or prime_field(alg.p)
    return Character(tuple(f.from_int(v) for v in values))


def check_reduced_relations(alg, module, chi):
    """x_i^p - x_i^[p] must act as the scalar chi_i^p, exactly (prime field)."""
    p = alg.p
    d = module.dimension
    for i in range(alg.n):
        a = module.mats[i]
        power = np.eye(d, dtype=np.int64)
        for _ in range(p):
            power = (power @ a) % p
        correction = np.zeros((d, d), dtype=np.int64)
        for k, c in enumerate(alg.restricted.vector(i)):
            if c:
                correction = (correction + int(c) * module.mats[k]) % p
        scalar = int(chi.chi[i] ** p)
        expected = (scalar * np.eye(d, dtype=np.int64)) % p
        assert ((power - correction - expected) % p == 0).all()


def check_bracket_relations(alg, module):
    """[A_i, A_j] must equal the matrix of [x_i, x_j] (prime field)."""
    p = alg.p
    d = module.dimension
    for i in range(alg.n):
        for j in range(alg.n):
            lhs = (module.mats[i] @ module.mats[j] - module.mats[j] @ module.mats[i]) % p
            rhs = np.zeros((d, d), dtype=np.int64)
            for k, c in alg.bracket(i, j).items():
                rhs = (rhs + int(c) * module.mats[k]) % p
            assert ((lhs - rhs) % p == 0).all(), (i, j)


def test_reduced_algebra_dimension_and_relations(make_algebra):
    alg = make_algebra("heisenberg", 3)
    chi = chi_of(alg, 0, 0, 1)
    module = regular_representation(alg, chi)
    assert module.dimension == 27
    check_reduced_relations(alg, module, chi)
    check_bracket_relations(alg, module)


def test_sl2_regular_rep_relations(make_algebra):
    alg = make_algebra("sl2", 3)
    chi = chi_of(alg, 1, 2, 0)
    module = regular_representation(alg, chi)
    check_reduced_relations(alg, module, chi)
    check_bracket_relations(alg, module)


def test_regular_representation_columns_are_specialized_coordinates(make_algebra):
    # column x^m of x_i's matrix is the zp coordinate vector of x_i . x^m,
    # straightened in U(g), at xi = chi^p: the reference evaluates each
    # coordinate term by term with SymPoly.evaluate, over F_3 and F_9
    alg = make_algebra("sl2", 3)
    # the basis of u_chi: reduced monomials in deglex order
    monomials = sorted(product(range(alg.p), repeat=alg.n), key=deglex_key)
    rng = random.Random(0)
    for field in (prime_field(3), galois_field(3, 2, seed=1)):
        chi = Character(tuple(field.random_nonzero(rng) for _ in range(alg.n)))
        module = regular_representation(alg, chi)
        xi = [c**alg.p for c in chi.chi]
        for i in range(alg.n):
            for col, mono in enumerate(monomials):
                elem = ue_gen(alg, i) * ue_monomial(alg, mono)
                coords = center.zp_coordinates(elem, alg).coordinates
                want = [coords[m].evaluate(xi) if m in coords else field.zero for m in monomials]
                got = [module.mats[i][row][col] for row in range(module.dimension)]
                if field.e == 1:
                    got = [field.from_int(int(c)) for c in got]
                assert got == want, (field, i, mono)


def test_dimension_cap(make_algebra):
    # exactly at the cap is allowed: p^n = 5^4 = 625
    alg = make_algebra("gl2", 5)
    assert regular_representation(alg, chi_of(alg, 0, 0, 0, 0)).dimension == 625
    big = make_algebra("abelian:6", 3)
    assert big.p**big.n > redenv.DIM_CAP
    with pytest.raises(DimensionCap):
        regular_representation(big, chi_of(big, 0, 0, 0, 0, 0, 0))


def test_abelian_rank_one_local(make_algebra):
    alg = make_algebra("abelian:1", 3)
    rep = split_simples(regular_representation(alg, chi_of(alg, 0)), seed=0)
    assert rep.dims == (1, 1, 1)


def test_abelian_p2_jordan_block(make_algebra):
    alg = make_algebra("abelian:1", 2)
    module = regular_representation(alg, chi_of(alg, 0))
    a = module.mats[0]
    assert a.shape == (2, 2)
    assert ((a @ a) % 2 == 0).all()
    assert np.count_nonzero(a) == 1


def test_identity_generates_regular_module(make_algebra):
    from kw1.redenv import _spin

    alg = make_algebra("heisenberg", 2)
    module = regular_representation(alg, chi_of(alg, 0, 0, 0))
    ops = ops_for(module.field)
    e_one = np.zeros(module.dimension, dtype=np.int64)
    e_one[0] = 1  # the unit, first of the reduced monomials in deglex order
    spun = _spin(ops, [e_one], module.mats, module.dimension)
    assert spun.dim == module.dimension


def test_heisenberg_p2_chi0_nilpotent(make_algebra):
    alg = make_algebra("heisenberg", 2)
    module = regular_representation(alg, chi_of(alg, 0, 0, 0))
    assert module.dimension == 8
    for a in module.mats:
        power = a.copy()
        for _ in range(3):
            power = (power @ a) % 2
        assert not power.any()
    rep = split_simples(module, seed=0)
    assert rep.dims == (1,) * 8


def test_heisenberg_p3_central_character(make_algebra):
    alg = make_algebra("heisenberg", 3)
    module = regular_representation(alg, chi_of(alg, 0, 0, 1))
    rep = split_simples(module, seed=0)
    assert rep.dims == (3,) * 9
    assert not rep.degraded


def heisenberg_weyl_module():
    """x -> d/dt, y -> t, z -> 1 on k[t]/(t^3): irreducible at chi = (0, 0, 1)."""
    p = 3
    deriv = np.zeros((p, p), dtype=np.int64)
    for i in range(1, p):
        deriv[i - 1, i] = i
    mult = np.zeros((p, p), dtype=np.int64)
    for i in range(p - 1):
        mult[i + 1, i] = 1
    ident = np.eye(p, dtype=np.int64)
    return AlgebraModule(dimension=p, field=prime_field(p), mats=[deriv, mult, ident])


def test_heisenberg_explicit_irreducible_module():
    # independent witness satisfying the chi = (0, 0, 1) relations
    # x^3 = y^3 = 0, z^3 = 1
    p = 3
    module = heisenberg_weyl_module()
    deriv, mult, ident = module.mats
    assert ((deriv @ mult - mult @ deriv - ident) % p == 0).all()
    assert (np.linalg.matrix_power(deriv, p) % p == 0).all()
    assert (np.linalg.matrix_power(mult, p) % p == 0).all()
    rep = split_simples(module, seed=0)
    assert rep.dims == (3,)


def test_sl2_p3_restricted_dims(make_algebra):
    alg = make_algebra("sl2", 3)
    module = regular_representation(alg, chi_of(alg, 0, 0, 0))
    rep = split_simples(module, seed=0)
    assert sum(rep.dims) == 27
    assert set(rep.dims) == {1, 2, 3}


def test_sl2_p3_artin_schreier_escalation(make_algebra):
    # chi(h) = 1 forces h-eigenvalues into F_27; factors split only there
    alg = make_algebra("sl2", 3)
    module = regular_representation(alg, chi_of(alg, 1, 0, 0))
    rep = split_simples(module, seed=0)
    assert rep.dims == (3,) * 9
    assert not rep.degraded
    assert all(order == 27 for _dim, order in rep.factors)


# F_3 characters whose F_3-irreducible factors have endomorphism field F_27
ARTIN_SCHREIER = (("sl2", (1, 0, 0), (3,) * 9), ("nonabelian2", (2, 0), (1,) * 9))


@pytest.mark.parametrize("name,values,dims", ARTIN_SCHREIER)
def test_structural_escalation_matches_split_over_f27(make_algebra, name, values, dims):
    # the F_3 run records s Galois twists per factor; splitting the same
    # module over F_27 (the extension-field backend) must find them
    alg = make_algebra(name, 3)
    f27 = galois_field(3, 3)
    over_f3 = split_simples(regular_representation(alg, chi_of(alg, *values)))
    chi27 = chi_of(alg, *values, field=f27)
    over_f27 = split_simples(regular_representation(alg, chi27))
    assert over_f3.dims == over_f27.dims == dims
    assert sorted(over_f3.factors) == sorted(over_f27.factors)
    assert {order for _d, order in over_f3.factors} == {27}
    assert not over_f3.degraded and not over_f27.degraded


@pytest.mark.parametrize("name,values,dims", ARTIN_SCHREIER)
def test_escalation_never_leaves_the_prime_field(make_algebra, monkeypatch, name, values, dims):
    def no_extension_backend(field):
        raise AssertionError(f"extension-field backend built for {field}")

    monkeypatch.setattr(matops, "ExtOps", no_extension_backend)
    alg = make_algebra(name, 3)
    rep = split_simples(regular_representation(alg, chi_of(alg, *values)))
    assert rep.dims == dims


def test_good_factor_spins_one_kernel_vector(monkeypatch):
    # a good factor's kernel is one F[r]-line, so one kernel spin and one
    # dual spin decide irreducibility, whatever the factor degree
    module = heisenberg_weyl_module()
    ops = ops_for(module.field)
    spins = []
    real_spin = redenv._spin

    def counted(*args):
        spins.append(1)
        return real_spin(*args)

    monkeypatch.setattr(redenv, "_spin", counted)
    degrees = []
    for seed in range(40):
        spins.clear()
        outcome = redenv._norton_attempt(ops, module.mats, 3, random.Random(seed))
        if outcome is not None:
            assert outcome[0] == "irreducible"
            assert len(spins) == 2, (seed, outcome)
            degrees.append(outcome[1])
    assert max(degrees) > 1


def test_burnside_divisibility_self_check(make_algebra, monkeypatch):
    real = redenv._matrix_algebra

    def short_by_one(ops, mats, d):
        return SimpleNamespace(rows=real(ops, mats, d).rows, dim=d * d - 1)

    monkeypatch.setattr(redenv, "_matrix_algebra", short_by_one)
    alg = make_algebra("sl2", 3)
    module = regular_representation(alg, chi_of(alg, 1, 0, 0))
    with pytest.raises(SelfCheckFailure, match="Burnside"):
        split_simples(module)
    # nonabelian2@3 counts only on characters with a top of 1, which the
    # oracle certifies without splitting; sl2@3 has none of them
    assert main(["oracle", "--example", "sl2", "--prime", "3"]) == 3


def test_undecided_piece_draws_from_its_whole_matrix_algebra(make_algebra, capsys):
    # at chi = (1, 0, 0, 0) the 4-dimensional pieces of gl2@2 are
    # irreducible over F_2 with End = F_4; elements built from the
    # generators rarely certify one, and seeds 1, 4 and 5 ran out of them
    alg = make_algebra("gl2", 2)
    module = regular_representation(alg, chi_of(alg, 1, 0, 0, 0))
    for seed in range(6):
        report = split_simples(module, seed=seed)
        assert report.dims == (2,) * 8 and set(report.factors) == {(2, 4)}, seed
    capsys.readouterr()
    assert main(["oracle", "--example", "gl2", "--prime", "2", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["M"] == 2


def test_split_dims_sum_invariant(make_algebra):
    import random

    rng = random.Random(5)
    for name, p in (("nonabelian2", 3), ("heisenberg", 2), ("remark:1:1", 2)):
        alg = make_algebra(name, p)
        f = prime_field(p)
        for _ in range(5):
            chi = Character(tuple(f.from_int(rng.randrange(p)) for _ in range(alg.n)))
            rep = split_simples(
                regular_representation(alg, chi), seed=1
            )
            assert sum(rep.dims) == p**alg.n


def test_extension_character(make_algebra):
    alg = make_algebra("nonabelian2", 3)
    f9 = galois_field(3, 2)
    import random

    rng = random.Random(8)
    chi = Character((f9.zero, f9.random_nonzero(rng)))
    module = regular_representation(alg, chi)
    rep = split_simples(module, seed=0)
    assert sum(rep.dims) == 9
    assert max(rep.dims) == 3


@pytest.mark.parametrize(
    "name,p,expected",
    [
        ("abelian:2", 3, 1),
        ("abelian:2", 5, 1),
        ("nonabelian2", 3, 3),
        ("nonabelian2", 5, 5),
        ("heisenberg", 3, 3),
        ("remark:1:1", 3, 3),
    ],
)
def test_oracle_values(make_algebra, name, p, expected):
    alg = make_algebra(name, p)
    est = max_irreducible_dim(alg, samples=10, seed=0)
    assert est.m_est == expected
    assert not est.degraded


def test_prime_ops_rejects_extension_fields():
    # an explicit raise, so the check survives python -O
    with pytest.raises(CoefficientFieldMismatch, match="prime field"):
        matops.PrimeOps(galois_field(3, 2))
    assert matops.PrimeOps(prime_field(3)).p == 3


def test_prime_character_coordinates_are_int_residues(make_algebra):
    alg = make_algebra("sl2", 3)
    module = regular_representation(alg, chi_of(alg, 1, 2, 0))
    for a in module.mats:
        assert a.dtype == np.int64 and a.any()
        assert ((0 <= a) & (a < alg.p)).all()
    ext = galois_field(3, 2)
    module = regular_representation(alg, chi_of(alg, 1, 2, 0, field=ext))
    for a in module.mats:
        assert all(c.field is ext for row in a for c in row)


def test_left_actions_are_straightened_once_per_algebra(make_algebra, monkeypatch):
    # the zp coordinates of the n p^n products x_i . x^m are gathered once
    # per algebra, however many characters and fields the oracle samples
    calls = []
    real = redenv.zp_coordinates

    def counted(elem, alg):
        calls.append(elem)
        return real(elem, alg)

    monkeypatch.setattr(redenv, "zp_coordinates", counted)
    for samples in (2, 10):
        calls.clear()
        alg = make_algebra("sl2", 3)
        max_irreducible_dim(alg, samples=samples, seed=0)
        assert len(calls) == alg.n * alg.p**alg.n
    # an index understated to 0 escalates abelian:2 at p = 2 to F_4
    monkeypatch.setattr(redenv, "index_generic", lambda alg, trials, seed: 0)
    calls.clear()
    alg = make_algebra("abelian:2", 2)
    assert max_irreducible_dim(alg, samples=2, seed=0).escalated_sampling
    assert len(calls) == alg.n * alg.p**alg.n


# ---------------------------------------------------------------------------
# the spin, restriction and quotient against their elementwise references
# ---------------------------------------------------------------------------

def spin_full_queue(ops, start_vectors, mats, width):
    """Reference spin: depth first, runs until the queue is empty."""
    state = ops.new_echelon(width)
    queue = []
    for v in start_vectors:
        if state.insert(v) is not None:
            queue.append(v)
    while queue:
        v = queue.pop()
        for a in mats:
            w = ops.matvec(a, v)
            if state.insert(w) is not None:
                queue.append(w)
    return state


def column(a, c):
    return a[:, c].copy() if isinstance(a, np.ndarray) else [row[c] for row in a]


def as_matrix(ops, rows):
    if isinstance(ops, matops.PrimeOps):
        return np.array([[int(x) % ops.p for x in row] for row in rows], dtype=np.int64)
    return rows


def restrict_elementwise(ops, mats, state):
    """Reference restriction: each image read off at the pivots."""
    k = state.dim
    out = []
    for a in mats:
        rows = [[None] * k for _ in range(k)]
        for j, w in enumerate(state.rows):
            u = ops.matvec(a, w)
            for i, piv in enumerate(state.pivots):
                rows[i][j] = u[piv]
        out.append(as_matrix(ops, rows))
    return out


def quotient_elementwise(ops, mats, state, d):
    """Reference quotient: each column reduced by the echelon, one at a time."""
    pivset = set(state.pivots)
    comp = [c for c in range(d) if c not in pivset]
    out = []
    for a in mats:
        rows = [[None] * len(comp) for _ in range(len(comp))]
        for j, c in enumerate(comp):
            u = state.reduce(column(a, c))
            for i, cc in enumerate(comp):
                rows[i][j] = u[cc]
        out.append(as_matrix(ops, rows))
    return out


def same_matrix(ops, a, b):
    if isinstance(ops, matops.PrimeOps):
        return a.shape == b.shape and (a == b).all()
    return a == b


def random_fp_module(p, blocks, gens, rng):
    """Block upper triangular action in a random basis: proper submodules exist.

    Returns the action matrices and the basis; its first columns span the
    submodule of the first block.
    """
    d = sum(blocks)
    while True:
        basis = rng.integers(0, p, (d, d))
        red, pivots = linalg.rref_modp(np.concatenate([basis, np.eye(d, dtype=np.int64)], axis=1), p)
        if pivots[:d] == list(range(d)):
            break
    inv = red[:, d:]
    mats = []
    for _ in range(gens):
        t = rng.integers(0, p, (d, d))
        start = 0
        for size in blocks:
            t[start + size:, start:start + size] = 0
            start += size
        mats.append((basis @ t % p) @ inv % p)
    return mats, basis


def reference_cases(make_algebra):
    """(ops, mats, d, start vector lists) over F_p and F_{p^2}."""
    rng = np.random.default_rng(11)
    cases = []
    for p, blocks, gens in ((3, (4, 5), 2), (5, (3, 3, 6), 3), (7, (10, 2), 2), (2, (6, 6, 6), 2)):
        mats, basis = random_fp_module(p, blocks, gens, rng)
        ops = ops_for(prime_field(p))
        d = sum(blocks)
        starts = [
            [basis[:, 0]],  # inside the first block: a proper submodule
            [basis[:, blocks[0]]],
            [rng.integers(0, p, d)],
            [basis[:, 1], rng.integers(0, p, d)],
        ]
        cases.append((ops, mats, d, starts))
    for name, p, values, e in (("sl2", 3, (1, 2, 0), 1), ("nonabelian2", 3, (0, 1), 2), ("heisenberg", 2, (1, 0, 1), 2)):
        alg = make_algebra(name, p)
        field = prime_field(p) if e == 1 else galois_field(p, e, seed=3)
        chi = Character(tuple(field.elem([v, 1]) if e > 1 else field.from_int(v) for v in values))
        module = regular_representation(alg, chi)
        ops = ops_for(module.field)
        d = module.dimension
        r = random.Random(d)
        starts = [[ops.random_vector(d, r)] for _ in range(3)] + [[ops.identity(d)[d - 1]]]
        cases.append((ops, module.mats, d, starts))
    return cases


def random_element_stepwise(ops, mats, d, rng):
    """The random element built by n + 1 scale and add steps, each reduced."""
    r = ops.scale(ops.identity(d), ops.random_scalar(rng))
    for a in mats:
        r = ops.add(r, ops.scale(a, ops.random_scalar(rng)))
    if len(mats) >= 2 and rng.random() < 0.5:
        i = rng.randrange(len(mats))
        j = rng.randrange(len(mats))
        r = ops.add(r, ops.scale(ops.matmul(mats[i], mats[j]), ops.random_scalar(rng)))
    return r


def test_random_algebra_element_matches_stepwise_reference(make_algebra):
    backends = set()
    for ops, mats, d, _starts in reference_cases(make_algebra):
        backends.add(type(ops).__name__)
        for seed in range(8):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = redenv._random_algebra_element(ops, mats, d, got_rng)
            want = random_element_stepwise(ops, mats, d, want_rng)
            assert same_matrix(ops, got, want)
            assert got_rng.getstate() == want_rng.getstate()
    assert backends == {"PrimeOps", "ExtOps"}


def test_spin_matches_full_queue_reference(make_algebra):
    proper = full = 0
    for ops, mats, d, starts in reference_cases(make_algebra):
        for start in starts:
            got = redenv._spin(ops, start, mats, d)
            want = spin_full_queue(ops, start, mats, d)
            assert got.pivots == want.pivots
            assert same_matrix(ops, ops.stack(got.rows), ops.stack(want.rows))
            proper += got.dim < d
            full += got.dim == d
    # both the early return at full width and a closed proper span occur
    assert proper >= 4 and full >= 4


def test_restrict_and_quotient_match_elementwise_reference(make_algebra):
    checked = 0
    for ops, mats, d, starts in reference_cases(make_algebra):
        for start in starts:
            state = redenv._spin(ops, start, mats, d)
            if state.dim in (0, d):
                continue
            checked += 1
            for got, want in zip(redenv._restrict(ops, mats, state), restrict_elementwise(ops, mats, state)):
                assert same_matrix(ops, got, want)
            quo = redenv._quotient(ops, mats, state, d)
            for got, want in zip(quo, quotient_elementwise(ops, mats, state, d)):
                assert same_matrix(ops, got, want)
    assert checked >= 4


def algebra_dimension_one_insert_per_image(ops, mats, d):
    """The earlier Burnside spin: a queue of matrices, each product flattened and inserted alone."""

    def flatten(m):
        if isinstance(m, list):
            return [x for row in m for x in row]
        return m.reshape(d * d)

    state = ops.new_echelon(d * d)
    queue = []
    ident = ops.identity(d)
    if state.insert(flatten(ident)) is not None:
        queue.append(ident)
    while queue and state.dim < d * d:
        m = queue.pop()
        for a in mats:
            prod = ops.matmul(a, m)
            if state.insert(flatten(prod)) is not None:
                if state.dim == d * d:
                    return state.dim
                queue.append(prod)
    return state.dim


def test_algebra_dimension_matches_one_insert_per_image(make_algebra):
    rng = np.random.default_rng(5)
    cases = [(ops, mats, d) for ops, mats, d, _starts in reference_cases(make_algebra)]
    # one block: the whole matrix algebra, so the spin stops at d^2
    for p, d in ((2, 4), (3, 5), (7, 3)):
        cases.append((ops_for(prime_field(p)), random_fp_module(p, (d,), 2, rng)[0], d))
    weyl = heisenberg_weyl_module()
    cases.append((ops_for(weyl.field), weyl.mats, weyl.dimension))
    dims = []
    for ops, mats, d in cases:
        got = redenv._matrix_algebra(ops, mats, d).dim
        assert got == algebra_dimension_one_insert_per_image(ops, mats, d)
        dims.append(got == d * d)
    assert sum(dims) >= 4 and not all(dims)


# ---------------------------------------------------------------------------
# the MeatAxe path, pinned
# ---------------------------------------------------------------------------

# (algebra, F_3 character, seed) -> factors in order, Norton attempts made.
# Recorded before the factor memo, the early spin exit and the buffered
# echelons went in; none of them may move the RNG stream.
MEATAXE_PINS = (
    (("remark:1:2", (0, 0, 0), 0), ((1, 3),) * 27, 27),
    (("remark:1:2", (0, 0, 0), 1), ((1, 3),) * 27, 31),
    (("remark:1:2", (1, 0, 0), 0), ((1, 27),) * 27, 19),
    (("remark:1:2", (1, 0, 0), 1), ((1, 27),) * 27, 19),
    (("remark:1:2", (1, 2, 0), 0), ((3, 3),) * 9, 20),
    (("remark:1:2", (1, 2, 0), 1), ((3, 3),) * 9, 17),
    (("nonabelian2", (0, 0), 0), ((1, 3),) * 9, 10),
    (("nonabelian2", (0, 0), 1), ((1, 3),) * 9, 8),
    (("nonabelian2", (1, 0), 0), ((1, 27),) * 9, 7),
    (("nonabelian2", (1, 0), 1), ((1, 27),) * 9, 9),
    (("nonabelian2", (2, 1), 0), ((3, 3),) * 3, 9),
    (("nonabelian2", (2, 1), 1), ((3, 3),) * 3, 11),
    (("sl2", (0, 0, 0), 0), ((2, 3), (2, 3), (1, 3), (1, 3), (1, 3), (3, 3), (1, 3), (2, 3),
                             (3, 3), (2, 3), (1, 3), (2, 3), (3, 3), (2, 3), (1, 3)), 24),
    (("sl2", (0, 0, 0), 1), ((1, 3), (3, 3), (2, 3), (2, 3), (1, 3), (1, 3), (2, 3), (3, 3),
                             (1, 3), (2, 3), (1, 3), (2, 3), (1, 3), (2, 3), (3, 3)), 24),
    (("sl2", (0, 1, 2), 0), ((3, 3), (3, 9), (3, 9), (3, 3), (3, 9), (3, 9), (3, 9), (3, 9), (3, 3)), 22),
    (("sl2", (0, 1, 2), 1), ((3, 3), (3, 9), (3, 9), (3, 9), (3, 9), (3, 3), (3, 3), (3, 9), (3, 9)), 31),
)


def test_meataxe_path_pinned(make_algebra, monkeypatch):
    attempts = []
    real = redenv._norton_attempt

    def counted(*args):
        attempts.append(1)
        return real(*args)

    monkeypatch.setattr(redenv, "_norton_attempt", counted)
    modules = {}
    for (name, values, seed), factors, tries in MEATAXE_PINS:
        key = (name, values)
        if key not in modules:
            alg = make_algebra(name, 3)
            modules[key] = regular_representation(alg, chi_of(alg, *values))
        attempts.clear()
        report = split_simples(modules[key], seed=seed)
        want = redenv.SplitReport(
            dims=tuple(sorted(dim for dim, _order in factors)), factors=factors, degraded=False
        )
        assert report == want, (name, values, seed)
        assert len(attempts) == tries, (name, values, seed)


def test_one_backend_per_split_and_per_sampling_run(make_algebra, monkeypatch):
    built = []
    real = redenv.ops_for

    def counted(field):
        built.append(field)
        return real(field)

    monkeypatch.setattr(redenv, "ops_for", counted)
    alg = make_algebra("sl2", 3)
    module = regular_representation(alg, chi_of(alg, 0, 0, 0))
    assert len(split_simples(module).dims) > 2
    assert built == [module.field]
    built.clear()
    # an index understated to 0 makes every F_2 sample of abelian:2 fall
    # short of p^(n/2) = 2, so sampling escalates to F_4: one backend per field
    monkeypatch.setattr(redenv, "index_generic", lambda alg, trials, seed: 0)
    est = max_irreducible_dim(make_algebra("abelian:2", 2), samples=2, seed=0)
    assert est.escalated_sampling and est.m_est == 1
    assert [f.order for f in built] == [2, 4]


def test_split_simples_rejects_a_backend_over_another_field(make_algebra):
    alg = make_algebra("nonabelian2", 3)
    module = regular_representation(alg, chi_of(alg, 0, 1))
    with pytest.raises(CoefficientFieldMismatch, match="backend"):
        split_simples(module, ops=ops_for(prime_field(5)))


# ---------------------------------------------------------------------------
# the oracle's largest-factor pruning
# ---------------------------------------------------------------------------

# the pairs of the oracle output check with p^n <= 27
PRUNING_PAIRS = (
    ("sl2", 3), ("nonabelian2", 3), ("heisenberg", 3), ("remark:1:2", 3), ("remark:2:3", 3),
    ("remark:1:1", 3), ("abelian:2", 3), ("nonabelian2", 5), ("heisenberg", 2), ("remark:1:1", 2),
    ("sl2", 2),
)


def test_pruned_split_keeps_the_top_and_degraded_of_the_full_split(make_algebra, monkeypatch):
    # every character the oracle samples is split both ways: the pruned
    # top is exact when the full one is above ``above``, and at most
    # ``above`` otherwise
    compared = []
    real = redenv.split_simples

    def both(module, seed=0, ops=None, *, above=None):
        assert above is not None
        pruned = real(module, seed=seed, ops=ops, above=above)
        full = real(module, seed=seed, ops=ops)
        top = max(pruned.dims, default=0)
        if max(full.dims) > above:
            assert top == max(full.dims)
        else:
            assert top <= above
        assert pruned.degraded == full.degraded
        compared.append(len(full.dims) - len(pruned.dims))
        return pruned

    monkeypatch.setattr(redenv, "split_simples", both)
    # the oracle splits each distinct character once: two seeds keep the
    # number of splits compared above 150
    for name, p in PRUNING_PAIRS:
        alg = make_algebra(name, p)
        assert p**alg.n <= 27
        for seed in (0, 1):
            max_irreducible_dim(alg, samples=10, seed=seed)
    assert len(compared) >= 150
    assert sum(compared) > 0  # pieces were skipped


def test_pruning_still_splits_pieces_above_the_burnside_cap(make_algebra, monkeypatch):
    # with the cap at 2, each 3-dimensional factor of remark:1:2 at
    # chi = (0, 0, 1) is above it, and one leaves s open (degraded); every
    # one of them is at most ``above`` and the largest factor found, yet
    # must be split
    monkeypatch.setattr(redenv, "BURNSIDE_DIM_CAP", 2)
    alg = make_algebra("remark:1:2", 3)
    module = regular_representation(alg, chi_of(alg, 0, 0, 1))
    full = split_simples(module, seed=0)
    pruned = split_simples(module, seed=0, above=3)
    assert full.degraded and full.dims == (3,) * 9
    assert pruned == full


def _full_top_is_one(module):
    return max(split_simples(module, seed=0).dims) == 1


def test_commutator_chain_decides_a_top_of_one(make_algebra, monkeypatch):
    # every F_p character of the pruning pairs, and the F_4 characters of
    # one escalated run: the chain is True exactly when the full split's
    # top is 1.  Reading a chain that stops falling as nilpotent fails here
    outcomes = set()
    for name, p in PRUNING_PAIRS:
        alg = make_algebra(name, p)
        ops = ops_for(prime_field(p))
        for values in product(range(p), repeat=alg.n):
            module = regular_representation(alg, chi_of(alg, *values))
            linear = redenv._factors_all_linear(ops, module.mats, module.dimension)
            assert linear == _full_top_is_one(module), (name, values)
            outcomes.add(linear)
    assert outcomes == {True, False}
    # heisenberg@2 sampled at chi(z) = 0 only: every F_2 top is 1, below
    # the generic 2, so the oracle escalates to its F_4 characters
    modules = []
    real_split, real_characters = redenv.split_simples, redenv._characters

    def record(module, *args, **kwargs):
        modules.append(module)
        return real_split(module, *args, **kwargs)

    monkeypatch.setattr(redenv, "split_simples", record)
    monkeypatch.setattr(
        redenv, "_characters", lambda alg, field, *args: [
            c for c in real_characters(alg, field, *args) if field.e > 1 or not c.chi[2]
        ]
    )
    est = max_irreducible_dim(make_algebra("heisenberg", 2), samples=10, seed=0)
    assert est.escalated_sampling and est.m_est == 2
    ext = [m for m in modules if m.field.e == 2]
    ops = ops_for(ext[0].field)
    linear = [redenv._factors_all_linear(ops, m.mats, m.dimension) for m in ext]
    assert linear == [_full_top_is_one(m) for m in ext]
    assert set(linear) == {True, False}


def test_split_above_the_module_dimension_reports_no_factors(make_algebra):
    alg = make_algebra("nonabelian2", 3)
    module = regular_representation(alg, chi_of(alg, 0, 1))
    report = split_simples(module, seed=0, above=module.dimension)
    assert report == redenv.SplitReport(dims=(), factors=(), degraded=False)


# ---------------------------------------------------------------------------
# the oracle splits each distinct sampled character once
# ---------------------------------------------------------------------------

def _oracle_splitting_every_sample(alg, samples, seed):
    """Reference: ``max_irreducible_dim`` splitting every piece of every sample."""
    rng = random.Random(derive_seed("oracle", alg.signature(), seed))
    ind = redenv.index_generic(alg, trials=3, seed=seed)
    expected = alg.p ** ((alg.n - ind) // 2)

    def run(field, tag):
        ops = ops_for(field)
        best, witness, seen, degraded = 0, None, [], False
        for chi in redenv._characters(alg, field, samples, rng):
            module = regular_representation(alg, chi)
            report = split_simples(module, seed=derive_seed(tag, seed, chi.render()), ops=ops)
            top = max(report.dims)
            degraded = degraded or report.degraded
            seen.append(top)
            if top > best:
                best, witness = top, chi
        return best, witness, seen, degraded

    best, witness, seen, degraded = run(prime_field(alg.p), "chi-run")
    escalated = len(set(seen)) == 1 and best < expected
    if escalated:
        ext = galois_field(alg.p, 2, seed=derive_seed("oracle-ext", alg.p, seed))
        best2, witness2, _, degraded2 = run(ext, "chi-run-ext")
        degraded = degraded or degraded2
        if best2 > best:
            best, witness = best2, witness2
    return redenv.OracleEstimate(
        m_est=best,
        witness=witness.render() if witness is not None else (),
        samples=samples,
        seed=seed,
        escalated_sampling=escalated,
        degraded=degraded,
    ).as_dict()


DISTINCT_PAIRS = (("nonabelian2", 3), ("heisenberg", 3), ("remark:1:2", 3), ("sl2", 2))


def test_oracle_over_distinct_characters_matches_splitting_every_sample(make_algebra, monkeypatch):
    for name, p in DISTINCT_PAIRS:
        alg = make_algebra(name, p)
        for seed in (0, 1):
            got = max_irreducible_dim(alg, samples=10, seed=seed).as_dict()
            assert got == _oracle_splitting_every_sample(alg, 10, seed), (name, seed)
    # an index understated to 0 escalates abelian:2@2 to F_4 characters
    monkeypatch.setattr(redenv, "index_generic", lambda alg, trials, seed: 0)
    alg = make_algebra("abelian:2", 2)
    got = max_irreducible_dim(alg, samples=10, seed=0).as_dict()
    assert got["escalatedSampling"]
    assert got == _oracle_splitting_every_sample(alg, 10, 0)
    # an escalation from an F_p best of 2: heisenberg@2 at its characters
    # with chi(z) != 0, where every top is 2, and an index understated to
    # n - 4 (expected dimension 4).  The F_4 run starts from that best, so
    # the witness stays an F_2 character; dropping the unit characters
    # keeps the two runs' characters apart
    real_characters = redenv._characters
    monkeypatch.setattr(
        redenv, "_characters", lambda *args: [c for c in real_characters(*args) if c.chi[2] and any(c.chi[:2])]
    )
    monkeypatch.setattr(redenv, "index_generic", lambda alg, trials, seed: alg.n - 4)
    alg = make_algebra("heisenberg", 2)
    got = max_irreducible_dim(alg, samples=10, seed=0).as_dict()
    assert got["escalatedSampling"] and got["M"] == 2
    assert got == _oracle_splitting_every_sample(alg, 10, 0)


def test_oracle_on_the_pruning_pairs_matches_splitting_every_sample(make_algebra):
    # a best of 0 or 1 while escalation is open reads through the floor at 1
    for name, p in PRUNING_PAIRS:
        alg = make_algebra(name, p)
        for seed in (0, 1):
            got = max_irreducible_dim(alg, samples=10, seed=seed).as_dict()
            assert got == _oracle_splitting_every_sample(alg, 10, seed), (name, p, seed)


def test_oracle_splits_each_distinct_character_once(make_algebra, monkeypatch):
    sampled, built, splits = [], [], []
    real_characters, real_regular, real_split = (
        redenv._characters, redenv.regular_representation, redenv.split_simples
    )

    def characters(*args):
        chis = real_characters(*args)
        sampled.append(chis)
        return chis

    def regular(alg, chi):
        built.append(chi)
        return real_regular(alg, chi)

    def split(*args, **kwargs):
        splits.append(1)
        return real_split(*args, **kwargs)

    monkeypatch.setattr(redenv, "_characters", characters)
    monkeypatch.setattr(redenv, "regular_representation", regular)
    monkeypatch.setattr(redenv, "split_simples", split)
    monkeypatch.setattr(redenv, "index_generic", lambda alg, trials, seed: 0)
    for name, p in DISTINCT_PAIRS + (("abelian:2", 2),):
        for log in (sampled, built, splits):
            log.clear()
        est = max_irreducible_dim(make_algebra(name, p), samples=10, seed=0)
        assert len(sampled) == 1 + est.escalated_sampling
        distinct = [chi for run in sampled for chi in dict.fromkeys(run)]
        assert built == distinct and len(splits) == len(distinct), name
    # the last pair escalated, and both of its runs drew a repeat
    assert est.escalated_sampling
    assert all(len(set(run)) < len(run) for run in sampled)
