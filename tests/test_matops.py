import random
import tracemalloc

import numpy as np
import pytest

from kw1 import fastpoly, matops, redenv
from kw1.fields import galois_field, prime_field


def random_poly(p, degree, rng):
    """Monic polynomial of the given degree, little endian ints."""
    return [rng.randrange(p) for _ in range(degree)] + [1]


def poly_mul(f, g, p):
    return [int(c) for c in fastpoly.mul(np.array(f, dtype=np.int64), np.array(g, dtype=np.int64), p)]


def factor_lists(coeffs, p, rng):
    f = fastpoly.from_ints(coeffs, p)
    return [tuple(int(c) for c in irr) for irr in fastpoly.iter_irreducible_factors(f, p, rng)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducible_factors_do_not_depend_on_the_rng(p):
    # the factor memo of PrimeOps relies on this: equal-degree batches are
    # sorted, so the list is a function of the polynomial alone
    rng = random.Random(1000 + p)
    for trial in range(12):
        if trial % 2:
            f = random_poly(p, rng.randrange(2, 31), rng)
        else:
            # times the square of g: not squarefree, degree at most 30
            g = random_poly(p, rng.randrange(1, 6), rng)
            f = poly_mul(poly_mul(random_poly(p, rng.randrange(1, 21), rng), g, p), g, p)
        lists = [factor_lists(f, p, random.Random(seed)) for seed in (0, 17, 2**40 + 3)]
        assert lists[0] == lists[1] == lists[2], (p, trial)
        assert [len(g) - 1 for g in lists[0]] == sorted(len(g) - 1 for g in lists[0])


def test_cached_iter_factors_matches_fresh_factorization():
    p = 3
    ops = matops.PrimeOps(prime_field(p))
    rng = random.Random(5)
    polys = [random_poly(p, rng.randrange(4, 25), rng) for _ in range(8)]
    for f in polys:
        # the first call stops after one factor, as a Norton attempt usually does
        first = next(ops.iter_factors(f, random.Random(1)))
        again = list(ops.iter_factors(f, random.Random(2)))
        assert again[0] == first
        assert again == factor_lists(f, p, random.Random(3))
        assert list(ops.iter_factors(f, random.Random(4))) == again
    assert len(ops._factors) == len({tuple(f) for f in polys})
    # the memo belongs to one backend object
    assert matops.PrimeOps(prime_field(p))._factors == {}


def test_krylov_minpoly_is_the_minimal_annihilator():
    p = 5
    ops = matops.PrimeOps(prime_field(p))
    rng = np.random.default_rng(3)
    for d in (1, 4, 13, 30):
        # a block-diagonal r, so the Krylov space of v is often proper
        r = np.zeros((d, d), dtype=np.int64)
        half = d // 2
        r[:half, :half] = rng.integers(0, p, (half, half))
        r[half:, half:] = rng.integers(0, p, (d - half, d - half))
        v = rng.integers(0, p, d)
        if half > 1:
            v[half:] = 0
        v[0] = 1
        minpoly = ops.krylov_minpoly(r, v)
        assert minpoly[-1] == 1
        assert not ops.matvec(ops.poly_eval(minpoly, r), v).any()
        krylov = [v % p]
        for _ in range(d):
            krylov.append(ops.matvec(r, krylov[-1]))
        rank = len(krylov) - ops.nullity(np.array(krylov).T)
        assert len(minpoly) - 1 == rank


def test_echelon_rows_survive_buffer_growth():
    p, width = 7, 40
    rng = np.random.default_rng(0)
    state = matops.PrimeEchelon(p, width)
    vectors = rng.integers(0, p, (60, width))
    for v in vectors:
        state.insert(v)
    assert state.dim == width
    assert state.rows.shape == (width, width)
    # full RREF: the identity at the pivots, so each vector is recovered
    assert (state.rows[:, state.pivots] == np.eye(width, dtype=np.int64)).all()
    for v in vectors[:5]:
        assert not state.reduce(v).any()


def test_first_insert_into_burnside_echelon_allocates_under_one_megabyte():
    width = redenv.BURNSIDE_DIM_CAP**2
    v = np.zeros(width, dtype=np.int64)
    v[7] = 2
    state = matops.PrimeEchelon(3, width)
    tracemalloc.start()
    try:
        state.insert(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.dim == 1 and state.pivots == [7]
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# batched inserts
# ---------------------------------------------------------------------------

BATCH_FIELDS = (
    prime_field(2),
    prime_field(3),
    prime_field(7),
    galois_field(2, 2, seed=1),
    galois_field(3, 2, seed=1),
)


def combine(ops, coeffs, vectors, width):
    """sum c v; over F_p the entries are left unreduced, as insert accepts them."""
    if isinstance(ops, matops.PrimeOps):
        return sum((c * np.asarray(v) for c, v in zip(coeffs, vectors)), np.zeros(width, dtype=np.int64))
    f = ops.field
    out = [f.zero] * width
    for c, v in zip(coeffs, vectors):
        out = [x + c * y for x, y in zip(out, v)]
    return out


def batch_cases(ops, rng):
    """(width, prefill rows, batch) triples.

    The batches hold zero rows, duplicates, rows already in the span of
    the prefill and of earlier batch rows, and batches that fill the width
    part way through, with independent rows after the fill.
    """
    if isinstance(ops, matops.PrimeOps):
        scalar = lambda: rng.randrange(-ops.p, 3 * ops.p)  # noqa: E731
    else:
        scalar = lambda: ops.field.random(rng)  # noqa: E731
    cases = []
    for width in (1, 2, 3, 5, 8, 12):
        for k in sorted({0, 1, width // 2, width - 1}):
            prefill = [ops.random_vector(width, rng) for _ in range(k)]
            zero = combine(ops, [], [], width)
            fresh = [ops.random_vector(width, rng) for _ in range(width + 3)]
            mixed = [
                zero,
                fresh[0],
                fresh[0],
                combine(ops, [scalar(), scalar()], [fresh[0], prefill[0] if prefill else fresh[0]], width),
                zero,
                fresh[1],
                combine(ops, [scalar(), scalar()], [fresh[0], fresh[1]], width),
                fresh[2],
            ]
            filling = fresh[:2] + [combine(ops, [scalar()], [fresh[0]], width)] + fresh[2:]
            for batch in (mixed, filling, [zero, zero], fresh[:1]):
                cases.append((width, prefill, batch))
    return cases


def sequential_inserts(state, batch, width):
    """The spin's earlier loop: one insert per row, returning once full."""
    accepted = []
    for j, v in enumerate(batch):
        if state.insert(v) is not None:
            accepted.append(j)
            if state.dim == width:
                break
    return accepted


@pytest.mark.parametrize("field", BATCH_FIELDS, ids=lambda f: f"F{f.order}")
def test_insert_all_matches_sequential_inserts(field, monkeypatch):
    ops = matops.ops_for(field)
    rng = random.Random(field.order)
    prime = isinstance(ops, matops.PrimeOps)
    calls = []
    if not prime:
        real_insert = matops.ExtEchelon.insert

        def counted(self, v):
            calls.append(1)
            return real_insert(self, v)

        monkeypatch.setattr(matops.ExtEchelon, "insert", counted)
    fills = 0
    for width, prefill, batch in batch_cases(ops, rng):
        got, want = ops.new_echelon(width), ops.new_echelon(width)
        for v in prefill:
            got.insert(v)
            want.insert(v)
        calls.clear()
        want_accepted = sequential_inserts(want, batch, width)
        want_calls = len(calls)
        calls.clear()
        rows = np.array(batch, dtype=np.int64) if prime else batch
        before = rows.copy() if prime else [list(v) for v in batch]
        assert got.insert_all(rows) == want_accepted
        assert got.pivots == want.pivots
        assert (got.rows == want.rows).all() if prime else got.rows == want.rows
        # the caller's rows are left as they were
        assert (rows == before).all() if prime else rows == before
        if not prime:
            assert len(calls) == want_calls  # no insert past the one that fills the width
        if want.dim == width and want_accepted and want_accepted[-1] < len(batch) - 1:
            fills += 1
    assert fills >= 10


# ---------------------------------------------------------------------------
# Krylov minimal polynomials on the backend echelon
# ---------------------------------------------------------------------------

def krylov_with_combinations_prime(ops, r, v):
    """The earlier prime-field Krylov: a d-wide echelon plus a combination matrix."""
    p = ops.p
    d = r.shape[0]
    basis = np.zeros((0, d), dtype=np.int64)
    combos = np.zeros((0, d + 1), dtype=np.int64)
    pivots = []
    cur = v % p
    k = 0
    while True:
        combo = np.zeros(d + 1, dtype=np.int64)
        combo[k] = 1
        w = cur
        if k:
            coeffs = w[pivots]
            if coeffs.any():
                w = (w - coeffs @ basis[:k]) % p
                combo = (combo - coeffs @ combos[:k]) % p
        nz = w.nonzero()[0]
        if nz.size == 0:
            return [int(c) for c in combo[: k + 1]]
        piv = int(nz[0])
        inv = pow(int(w[piv]), -1, p)
        w = (w * inv) % p
        combo = (combo * inv) % p
        col = basis[:k, piv].copy()
        matops._clear_column(basis[:k], col, w, p)
        matops._clear_column(combos[:k], col, combo, p)
        basis = matops._with_room(basis, k)
        combos = matops._with_room(combos, k)
        basis[k] = w
        combos[k] = combo
        pivots.append(piv)
        cur = (r @ cur) % p
        k += 1


def krylov_with_combinations_ext(ops, r, v):
    """The earlier extension-field Krylov, elementwise with combination rows."""
    f = ops.field
    d = len(r)
    rows, pivots, combos = [], [], []
    cur = list(v)
    k = 0
    while True:
        combo = [f.zero] * (d + 1)
        combo[k] = f.one
        w = list(cur)
        for row, piv, cmb in zip(rows, pivots, combos):
            c = w[piv]
            if c:
                w = [x - c * y for x, y in zip(w, row)]
                combo = [x - c * y for x, y in zip(combo, cmb)]
        piv = next((i for i, x in enumerate(w) if x), None)
        if piv is None:
            return combo[: k + 1]
        inv = w[piv].inverse()
        rows.append([x * inv for x in w])
        pivots.append(piv)
        combos.append([x * inv for x in combo])
        cur = ops.matvec(r, cur)
        k += 1


def krylov_cases(d, rng, random_entry, zero, one):
    """Pairs (r, v): random, zero, identity, nilpotent and block-diagonal r."""
    def rand(rows, cols):
        return [[random_entry() for _ in range(cols)] for _ in range(rows)]

    ident = [[one if i == j else zero for j in range(d)] for i in range(d)]
    # strictly upper triangular: nilpotent
    nilpotent = [[random_entry() if j > i else zero for j in range(d)] for i in range(d)]
    shift = [[one if j == i + 1 else zero for j in range(d)] for i in range(d)]
    block = [[zero] * d for _ in range(d)]
    half = d // 2
    for i, row in enumerate(rand(d, d)):
        for j, x in enumerate(row):
            if (i < half) == (j < half):
                block[i][j] = x
    mats = [rand(d, d), [[zero] * d for _ in range(d)], ident, nilpotent, shift, block]
    vectors = [rand(1, d)[0], [zero] * (d - 1) + [one]]
    return [(m, v) for m in mats for v in vectors if any(v)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_krylov_on_the_echelon_matches_the_combination_reference(p):
    ops = matops.PrimeOps(prime_field(p))
    rng = random.Random(40 + p)
    for d in range(1, 13):
        for r, v in krylov_cases(d, rng, lambda: rng.randrange(p), 0, 1):
            r = np.array(r, dtype=np.int64)
            v = np.array(v, dtype=np.int64)
            got = ops.krylov_minpoly(r, v)
            assert got == krylov_with_combinations_prime(ops, r, v), (p, d)
            assert all(type(c) is int for c in got)


@pytest.mark.parametrize("p, e", [(2, 2), (3, 2)])
def test_ext_krylov_on_the_echelon_matches_the_combination_reference(p, e):
    field = galois_field(p, e)
    ops = matops.ExtOps(field)
    rng = random.Random(50 + p)
    for d in range(1, 13):
        for r, v in krylov_cases(d, rng, lambda: field.random(rng), field.zero, field.one):
            got = ops.krylov_minpoly(r, v)
            want = krylov_with_combinations_ext(ops, r, v)
            assert [c.coeffs for c in got] == [c.coeffs for c in want], (p, e, d)
