import random
import tracemalloc

import numpy as np
import pytest

from kw1 import fastpoly, matops, redenv
from kw1.fields import prime_field


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
