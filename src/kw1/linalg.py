"""Exact linear algebra over Fraction, F_p, and F_{p^e}.

Three backends share one interface:

* rationals: plain Fraction elimination (small matrices only);
* prime fields: numpy int64 matrices reduced mod p, with vectorized
  row operations (this is the hot path for center computations);
* extensions: every rank goes through one vectorized kernel that embeds
  each F_{p^e} entry as its e x e multiplication matrix over F_p and
  eliminates the blown-up matrix in place; ``rank_coefficient_array``
  takes the entries straight as a (rows, cols, e) int64 array.
  Nullspaces and solves over extensions use elementwise FFElem
  elimination.

All results are exact; there is no floating point.

int64 envelope: every kernel of the package that works on int64 residues
mod p is exact while p (p - 1) < 2^63, that is p <= 3037000493 among
primes (``LARGEST_EXACT_PRIME``), at every extension degree.  Each kernel
states the bound it needs in its docstring; ``require_exact_prime`` is
called where p enters the library (``liealg.base_change_mod_p`` and
``center.rank_over_frobenius_subring``).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import PrimeOutsideInt64Range, SelfCheckFailure
from .fields import GF, FFElem, QQ


# ---------------------------------------------------------------------------
# prime field backend (numpy)
# ---------------------------------------------------------------------------

LARGEST_EXACT_PRIME = 3037000493


def require_exact_prime(p: int) -> None:
    """Raise ``PrimeOutsideInt64Range`` unless p (p - 1) < 2^63.

    Below the bound a residue times a residue, plus a residue, fits in
    int64, which is what ``_eliminate``, ``blocked_coefficients`` and
    ``center._field_mul`` need; the matrix products of ``matops`` and
    ``fastpoly`` need a factor of the inner dimension more, which their
    small p leaves room for.
    """
    if p * (p - 1) >= 2**63:
        raise PrimeOutsideInt64Range(p, LARGEST_EXACT_PRIME)


def to_modp_array(rows, p: int) -> np.ndarray:
    """Rows of ints / FFElem (e == 1) / Fraction to an int64 array mod p."""
    out = []
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, FFElem):
                r.append(x.coeffs[0] % p)
            elif isinstance(x, Fraction):
                r.append((x.numerator * pow(x.denominator, -1, p)) % p)
            else:
                r.append(int(x) % p)
        out.append(r)
    if not out:
        return np.zeros((0, 0), dtype=np.int64)
    return np.array(out, dtype=np.int64)


def _eliminate(m: np.ndarray, p: int, reduce_above: bool) -> list:
    """Gaussian elimination mod p of ``m`` in place; returns the pivot columns.

    ``m`` must already be reduced mod p.  With ``reduce_above`` it ends in
    reduced row echelon form; without, rows above a pivot are left alone,
    which is enough for the rank.  When column c is processed, every row at
    or below the current pivot row is zero left of c, so each row operation
    touches only columns c and beyond.

    int64: a scaled pivot row holds products of two residues, and an
    updated entry lies in [-(p - 1)^2, p - 1], so it is exact while
    (p - 1)^2 < 2^63, inside ``require_exact_prime``.
    """
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr], c:] = m[[pr, r], c:]
        inv = pow(int(m[r, c]), -1, p)
        m[r, c:] = (m[r, c:] * inv) % p
        # rows to clear: every other row for the reduced form, those below for rank
        lo = 0 if reduce_above else r + 1
        col = m[lo:, c].copy()
        if reduce_above:
            col[r] = 0
        nzr = col.nonzero()[0]
        if nzr.size:
            m[lo + nzr, c:] = (m[lo + nzr, c:] - np.outer(col[nzr], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots


def rref_modp(a: np.ndarray, p: int):
    """Reduced row echelon form mod p; returns (matrix, pivot columns)."""
    m = a % p
    return m, _eliminate(m, p, reduce_above=True)


def rank_modp(a: np.ndarray, p: int) -> int:
    return len(_eliminate(a % p, p, reduce_above=False))


def nullspace_modp(a: np.ndarray, p: int) -> np.ndarray:
    """Right nullspace basis, one vector per row."""
    cols = a.shape[1]
    r, pivots = rref_modp(a, p)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free].T) % p
    return basis


def solve_modp(a: np.ndarray, b: np.ndarray, p: int):
    """Particular solution of a x = b with free variables set to zero.

    Returns None when the system is inconsistent.  The solution is the
    canonical echelon-form representative: coordinates at non-pivot
    columns vanish, so the answer is deterministic.
    """
    rows, cols = a.shape
    aug = np.concatenate([a % p, (b % p).reshape(rows, 1)], axis=1)
    r, pivots = rref_modp(aug, p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, cols]
    return x


# ---------------------------------------------------------------------------
# generic field backend (lists of FFElem)
# ---------------------------------------------------------------------------

def rref_ff(rows, field: GF):
    m = [list(row) for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank_ff(rows, field: GF) -> int:
    return len(rref_ff(rows, field)[1])


def nullspace_ff(rows, field: GF):
    if not rows:
        return []
    ncols = len(rows[0])
    r, pivots = rref_ff(rows, field)
    pivset = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivset:
            continue
        v = [field.zero] * ncols
        v[c] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][c]
        basis.append(v)
    return basis


def solve_ff(rows, b, field: GF):
    aug = [list(row) + [bb] for row, bb in zip(rows, b)]
    ncols = len(rows[0]) if rows else 0
    r, pivots = rref_ff(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = r[i][ncols]
    return x


def _coefficients(rows) -> np.ndarray:
    """The (rows, cols, e) int64 coefficient array of rows of ``FFElem``."""
    return np.array([[x.coeffs for x in row] for row in rows], dtype=np.int64)


def blocked_matrix(rows, field: GF) -> np.ndarray:
    """``blocked_coefficients`` of rows of ``FFElem``."""
    return blocked_coefficients(_coefficients(rows), field)


def blocked_coefficients(coeffs: np.ndarray, field: GF) -> np.ndarray:
    """F_p form of a matrix over F_{p^e}, by the regular representation.

    ``coeffs`` is the (rows, cols, e) int64 array of entry coefficients,
    reduced mod p.  Entry a becomes the e x e block of multiplication by a,
    whose entry [i][j] is coefficient i of a * t^j (as in
    ``GF.mul_matrix``).  Column j of every block is written at once,
    straight into the final layout, from the coefficient array of a * t^j:
    a shift folded through the reduction table.  int64: each entry is one
    residue plus a product of two, below p (p - 1).
    """
    p, e = field.p, field.e
    cur = coeffs
    nrows, ncols = cur.shape[:2]
    big = np.empty((nrows * e, ncols * e), dtype=np.int64)
    # a view: blocks[r, i, c, j] is big[r * e + i, c * e + j]
    blocks = big.reshape(nrows, e, ncols, e)
    red = np.array(field._red[0], dtype=np.int64) if e > 1 else None  # t^e
    for j in range(e):
        if j:
            top = cur[:, :, e - 1:]
            cur = np.concatenate((np.zeros_like(top), cur[:, :, : e - 1]), axis=2)
            cur = (cur + top * red) % p
        blocks[:, :, :, j] = cur.transpose(0, 2, 1)
    return big


def rank_coefficient_array(coeffs: np.ndarray, field: GF) -> int:
    """Rank over F_{p^e} of a (rows, cols, e) coefficient array, any e >= 1.

    The F_p-rank of ``blocked_coefficients`` is e times the rank.
    """
    if not coeffs.size:
        return 0
    e = field.e
    r = len(_eliminate(blocked_coefficients(coeffs, field), field.p, reduce_above=False))
    if r % e:
        raise SelfCheckFailure(f"blocked F_p-rank {r} is not a multiple of e = {e}")
    return r // e


def rank_ext_blocked(rows, field: GF) -> int:
    """Rank over F_{p^e} of rows of ``FFElem``, through ``rank_coefficient_array``."""
    if not rows or not rows[0]:
        return 0
    return rank_coefficient_array(_coefficients(rows), field)


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def rank_fractions(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        pr = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


# ---------------------------------------------------------------------------
# dispatching wrappers
# ---------------------------------------------------------------------------

def rank(rows, field) -> int:
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if field is QQ or getattr(field, "is_rational", False):
        return rank_fractions(rows)
    if field.e == 1:
        return rank_modp(to_modp_array(rows, field.p), field.p)
    return rank_ext_blocked(rows, field)


def solve(rows, b, field):
    """Canonical particular solution of rows . x = b, or None.

    Over F_p the solution is a list of int residues, over F_{p^e} of
    ``FFElem``.
    """
    rows = [list(r) for r in rows]
    if field is QQ or getattr(field, "is_rational", False):
        raise NotImplementedError("rational solve is not needed")
    if field.e == 1:
        x = solve_modp(to_modp_array(rows, field.p), to_modp_array([b], field.p)[0], field.p)
        return None if x is None else [int(v) for v in x]
    return solve_ff(rows, list(b), field)
