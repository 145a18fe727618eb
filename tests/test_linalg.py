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
            big, first = linalg.blocked_form(len(a), len(a[0]), field)
            first[...] = [[x.coeffs for x in row] for row in a]
            linalg._fill_blocks(big, field)
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


# ---------------------------------------------------------------------------
# the product helper and the elimination, against exact integers
# ---------------------------------------------------------------------------

# float64 products (p = 2, 7, 65521), int64 chunks of two columns
# (2^31 - 1) and rank-1 steps (the largest exact prime)
KERNEL_PRIMES = (2, 7, 65521, 2**31 - 1, BELOW)


def _exact_product(a, b, p):
    return (a.astype(object) @ b.astype(object)) % p


def test_matmul_modp_exact_on_every_path():
    rng = np.random.default_rng(11)
    assert (2**63 - (2**31 - 1)) // (2**31 - 2) ** 2 == 2
    assert (2**63 - BELOW) // (BELOW - 1) ** 2 == 1
    for p in KERNEL_PRIMES:
        for n, k, m in ((1, 1, 1), (5, 7, 3), (9, 40, 11), (3, 0, 4)):
            a = rng.integers(0, p, (n, k), dtype=np.int64)
            b = rng.integers(0, p, (k, m), dtype=np.int64)
            if k:
                a[0] = p - 1  # the largest possible sums
                b[:, 0] = p - 1
            got = linalg.matmul_modp(a, b, p)
            assert got.dtype == np.int64
            assert got.tolist() == _exact_product(a, b, p).tolist(), (p, n, k, m)


def test_matmul_modp_float_bound_boundary():
    p = 3000017  # prime; 1000 (p - 1)^2 < 2^53 <= 1001 (p - 1)^2
    assert 1000 * (p - 1) ** 2 < 2**53 <= 1001 * (p - 1) ** 2
    below = np.full((1, 1000), p - 1, dtype=np.int64)
    got = linalg.matmul_modp(below, below.T.copy(), p)
    assert int(got[0, 0]) == 1000 * (p - 1) ** 2 % p
    # just above: the sum 1000 (p - 1)^2 + (p - 2)^2 is odd and past 2^53,
    # so float64 cannot hold it, and the helper must take the int64 path
    above = np.full((1, 1001), p - 1, dtype=np.int64)
    above[0, -1] = p - 2
    exact = 1000 * (p - 1) ** 2 + (p - 2) ** 2
    assert exact > 2**53 and exact % 2
    assert int((above.astype(np.float64) @ above.T.astype(np.float64))[0, 0]) != exact
    got = linalg.matmul_modp(above, above.T.copy(), p)
    assert int(got[0, 0]) == exact % p


def _rank_shapes(p, rng):
    """Tall, wide, low rank, sparse, repeated and zero matrices."""
    def rand(r, c):
        return rng.integers(0, p, (r, c), dtype=np.int64)

    low = _exact_product(rand(230, 6), rand(6, 90), p).astype(np.int64)
    zeros = rand(150, 40)
    zeros[rng.choice(150, 60, replace=False)] = 0
    base = rand(30, 50)
    dup = base[rng.integers(0, 30, 200)]
    # one row times scalars: rank 1
    line = rng.integers(1, p, (140, 1), dtype=np.int64) * rand(1, 20) % p
    sparse = np.zeros((300, 120), dtype=np.int64)
    sparse[np.arange(300), rng.integers(0, 120, 300)] = rng.integers(1, p, 300)
    wide = rand(100, 260)
    wide[70:] = _exact_product(rng.integers(0, p, (30, 70)), wide[:70], p).astype(np.int64)
    return [rand(200, 30), rand(65, 65), wide, low, zeros, dup, line, sparse, np.zeros((130, 9), dtype=np.int64)]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_rank_modp_exact_on_tall_shapes(p):
    rng = np.random.default_rng(p % 1000)
    for a in _rank_shapes(p, rng):
        null = linalg.nullspace_modp(a, p)
        assert linalg.rank_modp(a, p) + len(null) == a.shape[1], (p, a.shape)
        assert not _exact_product(a, null.T, p).any(), (p, a.shape)


def test_blocked_rank_over_an_extension():
    rng = random.Random(12)
    for p, e in ((3, 2), (2, 4), (7, 3)):
        field = galois_field(p, e)
        left = [[field.random(rng) for _ in range(3)] for _ in range(50)]
        right = [[field.random(rng) for _ in range(8)] for _ in range(3)]
        a = [
            [sum((row[k] * right[k][j] for k in range(3)), field.zero) for j in range(8)]
            for row in left
        ]
        assert linalg.rank(a, field) == linalg.rank_ff(a, field)


# ---------------------------------------------------------------------------
# the nullspace by column components
# ---------------------------------------------------------------------------

def _dense_null_rref(a, p):
    basis = linalg.nullspace_modp(a, p)
    if basis.shape[0] == 0:
        return basis
    reduced, pivots = linalg.rref_modp(basis, p)
    return reduced[: len(pivots)]


def _block_diagonal(rng, p):
    """Random blocks on the diagonal, then rows and columns shuffled."""
    blocks = [rng.integers(0, p, (rng.integers(1, 5), rng.integers(1, 5))) for _ in range(rng.integers(0, 7))]
    blocks = [b * (rng.random(b.shape) < rng.random()) for b in blocks]
    blocks += [np.array([[rng.integers(1, p)]]), np.array([[rng.integers(1, p)], [rng.integers(1, p)]])]
    blocks.append(rng.integers(0, p, (12, 9)))  # one dense block
    rows = sum(b.shape[0] for b in blocks) + 3
    cols = sum(b.shape[1] for b in blocks) + int(rng.integers(0, 4))  # zero columns
    a = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for b in blocks:
        a[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return a[rng.permutation(rows)][:, rng.permutation(cols)]


@pytest.mark.parametrize("p", [2, 3, 7, 65521])
def test_component_nullspace_matches_dense(p):
    rng = np.random.default_rng(p)
    cases = [_block_diagonal(rng, p) for _ in range(25)]
    cases += [np.zeros((3, 5), dtype=np.int64), np.eye(4, dtype=np.int64), np.zeros((2, 0), dtype=np.int64)]
    for a in cases:
        rows, cols = np.nonzero(a)
        got = linalg.nullspace_rref_sparse(rows, cols, a[rows, cols], a.shape[1], p)
        want = _dense_null_rref(a, p)
        assert got.dtype == np.int64 and got.shape == (want.shape[0], a.shape[1])
        assert np.array_equal(got, want)
