import random
from fractions import Fraction

import numpy as np
import pytest

from kw1 import linalg
from kw1.fields import QQ, galois_field, prime_field


def test_rref_modp_known():
    a = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]], dtype=np.int64)
    r, pivots = linalg.rref_modp(a, 5)
    assert pivots == [0, 1]
    assert r.tolist() == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
    assert linalg.rank_modp(a, 5) == 2
    rng = random.Random(1)
    for _ in range(20):
        a = np.array([[rng.randrange(5) for _ in range(6)] for _ in range(5)], dtype=np.int64)
        r, pivots = linalg.rref_modp(a, 5)
        # pivot columns form an identity block; the rows past the rank vanish
        assert np.array_equal(r[:, pivots], np.eye(5, len(pivots), dtype=np.int64))
        assert not r[len(pivots):].any()
        assert linalg.rank_modp(np.vstack([a, r]), 5) == len(pivots)


def test_nullspace_modp_exact():
    rng = random.Random(0)
    p = 7
    for _ in range(25):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        a = np.array(
            [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        basis = linalg.nullspace_modp(a, p)
        assert basis.shape[0] == cols - linalg.rank_modp(a, p)
        for v in basis:
            assert not ((a @ v) % p).any()


def test_solve_modp():
    p = 5
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    x = np.array([2, 3], dtype=np.int64)
    b = (a @ x) % p
    got = linalg.solve_modp(a, b, p)
    assert ((a @ got - b) % p == 0).all()
    # inconsistent system
    bad = np.array([[1, 1], [2, 2]], dtype=np.int64)
    assert linalg.solve_modp(bad, np.array([0, 1]), p) is None
    # canonical solution has zeros at free coordinates
    wide = np.array([[1, 1, 1]], dtype=np.int64)
    sol = linalg.solve_modp(wide, np.array([4]), p)
    assert list(sol) == [4, 0, 0]


def test_generic_field_rref_matches_prime():
    p = 3
    f3 = prime_field(p)
    rng = random.Random(2)
    for _ in range(20):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        ints = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        a = np.array(ints, dtype=np.int64)
        ff = [[f3.from_int(x) for x in row] for row in ints]
        assert linalg.rank_modp(a, p) == linalg.rank_ff(ff, f3)


def test_extension_nullspace():
    f9 = galois_field(3, 2)
    rng = random.Random(3)
    for _ in range(15):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[f9.random(rng) for _ in range(cols)] for _ in range(rows)]
        basis = linalg.nullspace_ff(a, f9)
        assert len(basis) == cols - linalg.rank_ff(a, f9)
        for v in basis:
            for row in a:
                acc = f9.zero
                for c, x in zip(row, v):
                    acc = acc + c * x
                assert not acc


def _ext_matrices(field, rng):
    """Random matrices of many shapes, with rank deficits and degenerate cases."""
    def rand(r, c):
        return [[field.random(rng) for _ in range(c)] for _ in range(r)]

    out = []
    for _ in range(6):
        out.append(rand(rng.randrange(1, 6), rng.randrange(1, 6)))
    out.append(rand(9, 3))  # tall
    out.append(rand(2, 9))  # wide
    out.append(rand(1, 7))  # one row
    out.append(rand(7, 1))  # one column
    out.append([[field.zero] * 4 for _ in range(3)])  # all zero
    dup = rand(3, 5)
    out.append(dup + [list(dup[1]), list(dup[0])])  # duplicate rows
    # rank <= 2 as a product of 6x2 and 2x5 matrices
    left, right = rand(6, 2), rand(2, 5)
    out.append([
        [sum((left[i][k] * right[k][j] for k in range(2)), field.zero) for j in range(5)]
        for i in range(6)
    ])
    return out


def test_blocked_rank_agrees_with_generic():
    rng = random.Random(4)
    for p, e in ((3, 2), (5, 3), (2, 4), (2, 5), (3, 5), (7, 2)):
        field = galois_field(p, e)
        for a in _ext_matrices(field, rng):
            assert linalg.rank(a, field) == linalg.rank_ff(a, field)


def test_blocked_matrix_blocks_are_mul_matrices():
    rng = random.Random(6)
    for p, e in ((3, 2), (5, 3), (2, 4), (2, 5)):
        field = galois_field(p, e)
        for a in _ext_matrices(field, rng):
            big = linalg.blocked_coefficients(linalg._coefficients(a), field)
            assert big.shape == (len(a) * e, len(a[0]) * e)
            for i, row in enumerate(a):
                for j, x in enumerate(row):
                    block = big[i * e:(i + 1) * e, j * e:(j + 1) * e]
                    assert block.tolist() == field.mul_matrix(x)


def test_blocked_rank_self_check(monkeypatch):
    from kw1.errors import SelfCheckFailure

    field = galois_field(3, 2)
    monkeypatch.setattr(linalg, "_eliminate", lambda m, p, reduce_above: [0])
    with pytest.raises(SelfCheckFailure, match="not a multiple of e"):
        linalg.rank([[field.one]], field)


def test_nullspace_modp_matches_loop_reference():
    rng = random.Random(8)
    p = 5
    cases = [np.zeros((2, 4), dtype=np.int64), np.eye(3, dtype=np.int64)]
    for rows, cols in ((3, 6), (6, 3), (1, 1), (4, 4), (2, 7)):
        cases.append(np.array(
            [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(cols)]
             for _ in range(rows)],
            dtype=np.int64,
        ))
    for a in cases:
        cols = a.shape[1]
        r, pivots = linalg.rref_modp(a, p)
        free = [c for c in range(cols) if c not in pivots]
        want = np.zeros((len(free), cols), dtype=np.int64)
        for k, c in enumerate(free):
            want[k, c] = 1
            for i, pc in enumerate(pivots):
                want[k, pc] = (-int(r[i, c])) % p
        got = linalg.nullspace_modp(a, p)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_fraction_rank():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(2, 1)],
        [Fraction(2), Fraction(4, 3)],
    ]
    assert linalg.rank(rows, QQ) == 2
    assert linalg.rank([[Fraction(0)]], QQ) == 0


def test_dispatch_rank():
    f5 = prime_field(5)
    rows = [[f5.from_int(1), f5.from_int(2)], [f5.from_int(2), f5.from_int(4)]]
    assert linalg.rank(rows, f5) == 1
    sol = linalg.solve(rows[:1], [f5.from_int(3)], f5)
    assert sol is not None and int(sol[0]) == 3 and int(sol[1]) == 0


def test_prime_field_solve_returns_int_residues():
    f7 = prime_field(7)
    rows = [[1, 2, 0], [0, 1, 3]]
    sol = linalg.solve(rows, [4, 5], f7)
    assert all(type(x) is int for x in sol)
    assert sol == [1, 5, 0]


# ---------------------------------------------------------------------------
# the int64 envelope: p (p - 1) < 2^63
# ---------------------------------------------------------------------------

BELOW, ABOVE = 3037000493, 3037000507  # consecutive primes around 2^31.5


def test_exact_prime_boundary_on_a_tiny_presentation():
    from kw1.errors import PrimeOutsideInt64Range
    from kw1.liealg import base_change_mod_p
    from kw1.registry import get_example

    assert BELOW == linalg.LARGEST_EXACT_PRIME
    assert BELOW * (BELOW - 1) < 2**63 <= ABOVE * (ABOVE - 1)
    pres = get_example("nonabelian2")
    assert base_change_mod_p(pres, BELOW).p == BELOW
    for p in (ABOVE, 4294967311):
        with pytest.raises(PrimeOutsideInt64Range, match=str(BELOW)):
            base_change_mod_p(pres, p)


def test_kernels_exact_at_the_largest_prime():
    from kw1.center import _field_mul

    p = BELOW
    # alternating and 3 x 3, so rank 2; past the envelope it came out 3
    a = np.array([[0, 2, p - 2], [p - 2, 0, 1], [2, p - 1, 0]], dtype=np.int64)
    assert linalg.rank_modp(a, p) == 2
    rng = random.Random(9)
    for e in (2, 3):
        field = galois_field(p, e, seed=1)
        xs = [field.random(rng) for _ in range(6)] + [field.elem([p - 1] * e)] * 2
        ys = [field.random(rng) for _ in range(6)] + [field.elem([p - 1] * e), field.elem([p - 2] * e)]
        got = _field_mul(
            np.array([x.coeffs for x in xs], dtype=np.int64),
            np.array([y.coeffs for y in ys], dtype=np.int64),
            field,
        )
        assert [tuple(int(c) for c in row) for row in got] == [(x * y).coeffs for x, y in zip(xs, ys)]
        rows = [[xs[0], xs[1]], [xs[0] * ys[2], xs[1] * ys[2]], [ys[3], ys[4]]]
        assert linalg.rank(rows, field) == linalg.rank_ff(rows, field)
