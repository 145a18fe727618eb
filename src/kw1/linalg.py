"""Exact linear algebra over Fraction, F_p, and F_{p^e}.

Dense matrices over F_q, q = p^e, are int64 coefficient arrays at every
e: an F_p matrix is (rows, cols) residues, and a matrix over F_q is the
(rows, cols, e) array of its entries' residues (``GF.coefficients``).
Each row reduction serves one load:

* ``_eliminate``: a whole numpy int64 matrix reduced mod p, with
  vectorized row operations.  It serves ``rref_modp``, the nullspaces
  and solves over F_p (solves are over F_p only), and every rank over
  F_q (``rank``).  A rank over F_q is taken of the blocked form, which
  embeds each entry as its e x e multiplication matrix over F_p
  (``blocked_form`` lets a caller write the coefficients into block
  column 0 directly, and ``_fill_blocks`` fills the other block
  columns); at e = 1 the blocked form is the matrix itself.  The
  center's commutator matrix is taken by its nonzero entries
  (``nullspace_rref_sparse``): it is graded and so block-diagonal up to
  order, so each connected column component is one elimination of its
  dense block, and no dense copy of the whole matrix is built.
* ``rref_ff``: one list RREF for scalars with field arithmetic and
  ``1 / x``: ``Fraction`` for the (small) ranks over the rationals, and
  ``FFElem`` for nullspaces over extensions, e > 1.

Two F_p reductions live elsewhere, each for its own load: the MeatAxe's
incremental spins insert one vector at a time into
``matops.PrimeEchelon``, and the verdict's spin (``center._Span``) clears
wide blocks of blocked rows against that echelon by ``matmul_modp``
products before inserting them.

Products go through ``matmul_modp``: float64 BLAS while
k (p - 1)^2 < 2^53 for inner dimension k, where every partial sum is an
integer float64 holds exactly, and int64 in chunks of the inner dimension
beyond that (one column at a time near the top of the envelope).  All
results are exact.

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
from .fields import GF, QQ


# ---------------------------------------------------------------------------
# prime field backend (numpy)
# ---------------------------------------------------------------------------

LARGEST_EXACT_PRIME = 3037000493


def require_exact_prime(p: int) -> None:
    """Raise ``PrimeOutsideInt64Range`` unless p (p - 1) < 2^63.

    Below the bound a residue times a residue, plus a residue, fits in
    int64, which is what ``_eliminate``, ``_fill_blocks`` and
    ``center._field_mul`` need.  ``matmul_modp`` and ``fastpoly.mul``
    chunk their sums so that they are exact at every p below it, and
    ``fastpoly`` builds the defining polynomials of F_{p^e} here.  The
    matrix products of ``matops`` need a factor of the inner dimension
    more, which the small p of the MeatAxe leaves room for.
    """
    if p * (p - 1) >= 2**63:
        raise PrimeOutsideInt64Range(p, LARGEST_EXACT_PRIME)


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


def matmul_modp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for int64 residues in [0, p), exact inside the envelope.

    Each entry sums k = a.shape[1] products below (p - 1)^2.  While
    k (p - 1)^2 < 2^53 every partial sum is an integer a float64 holds
    exactly, whatever order BLAS adds in, so the product runs on float64
    BLAS and is reduced there.  Beyond that the inner dimension is cut
    into chunks of s columns with s (p - 1)^2 <= 2^63 - p, each an int64
    product added to the reduced total so far; s >= 1 while
    p (p - 1) < 2^63, and s = 1 is one rank-1 step per column.
    """
    k = a.shape[1]
    square = (p - 1) ** 2
    if k * square < 2**53:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        # the quotient is correctly rounded and off an integer by at least
        # 1/p, more than half its ulp, so its floor is the integer quotient
        prod -= np.floor(prod / p) * p
        return prod.astype(np.int64)
    step = (2**63 - p) // square
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, k, step):
        out += a[:, lo:lo + step] @ b[lo:lo + step]
        out %= p
    return out


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


def _column_components(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Component label of each column, columns linked by a shared nonzero row.

    Every nonzero is linked to the first nonzero of its row.  A round
    lowers the label of each link's larger root to the smaller, then
    follows labels until each is a root; rounds repeat until every link
    joins equal labels.  A label is always a column of the same component
    and only decreases, so this ends with one label per component.
    """
    label = np.arange(ncols)
    order = np.argsort(rows, kind="stable")
    r, c = rows[order], cols[order]
    head = c[np.searchsorted(r, r)]
    while True:
        a, b = label[head], label[c]
        if np.array_equal(a, b):
            return label
        low = np.minimum(a, b)
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def nullspace_rref_sparse(rows, cols, vals, ncols: int, p: int) -> np.ndarray:
    """RREF basis of the right nullspace of a sparse matrix, by column components.

    The matrix has the residue ``vals[t]`` at (``rows[t]``, ``cols[t]``),
    at most one entry per position, and ``ncols`` columns.  Columns that
    share no row with another component's columns split the nullspace into
    a direct sum, and the RREF of a direct sum over disjoint columns is the
    union of the parts' RREFs.  A zero column is its own null vector, a
    nonzero column alone in its component has none, and every larger
    component is one ``nullspace_modp`` on its dense block with the columns
    reversed: a null vector built there on a free column f has its other
    entries right of f, so the block's basis is already in RREF.  Returns
    the same (nullity, ncols) array as the RREF of ``nullspace_modp`` on
    the dense matrix, rows in pivot order.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    vals = np.asarray(vals, dtype=np.int64)
    label = _column_components(rows, cols, ncols)
    size = np.bincount(label, minlength=ncols)
    start = np.cumsum(size) - size
    members_of = np.argsort(label, kind="stable")  # each component's columns, ascending
    # a column's place in its component, counted from the right
    flip = np.empty(ncols, dtype=np.intp)
    flip[members_of] = (start + size - 1)[label[members_of]] - np.arange(ncols)
    # entries by component, then by row; row_id numbers the distinct rows
    order = np.lexsort((rows, label[cols]))
    r, c, v, at = rows[order], cols[order], vals[order], label[cols[order]]
    row_id = np.cumsum(np.r_[True, (r[1:] != r[:-1]) | (at[1:] != at[:-1])]) - 1
    roots = np.flatnonzero(size > 1)
    zero_cols = np.flatnonzero(np.bincount(cols, minlength=ncols) == 0)
    pieces = []
    for root, lo, hi in zip(roots, np.searchsorted(at, roots), np.searchsorted(at, roots, "right")):
        local = row_id[lo:hi] - row_id[lo]
        block = np.zeros((int(local[-1]) + 1, size[root]), dtype=np.int64)
        block[local, flip[c[lo:hi]]] = v[lo:hi]
        basis = nullspace_modp(block, p)[::-1, ::-1]
        if basis.shape[0]:
            pieces.append((members_of[start[root]:start[root] + size[root]], basis))
    out = np.zeros((zero_cols.size + sum(b.shape[0] for _, b in pieces), ncols), dtype=np.int64)
    out[np.arange(zero_cols.size), zero_cols] = 1
    pivots = [zero_cols]
    k = zero_cols.size
    for members, basis in pieces:
        out[k:k + basis.shape[0], members] = basis
        pivots.append(members[(basis != 0).argmax(axis=1)])
        k += basis.shape[0]
    return out[np.argsort(np.concatenate(pivots), kind="stable")]


def solve_modp(a: np.ndarray, b: np.ndarray, p: int):
    """Particular solution of a x = b with free variables set to zero.

    Returns None when the system is inconsistent.  The solution is the
    null vector of [a | -b] with last entry 1 in the RREF basis of
    ``nullspace_modp``, the one built on the last column: the canonical
    echelon-form representative, whose coordinates at the other free
    columns vanish, so the answer is deterministic.
    """
    null = nullspace_modp(np.concatenate([a, -b.reshape(-1, 1)], axis=1), p)
    hit = null[null[:, -1] == 1]
    return hit[0, :-1] if hit.shape[0] else None


# ---------------------------------------------------------------------------
# list backend (lists of Fraction or FFElem)
# ---------------------------------------------------------------------------

def rref_ff(rows, field):
    """Reduced row echelon form of a list matrix; returns (rows, pivots).

    Entries are ``Fraction`` (``field`` QQ) or ``FFElem`` of ``field``, e > 1.
    """
    if isinstance(field, GF) and field.e == 1:
        raise ValueError("rref_ff needs field arithmetic; over F_p use rref_modp")
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
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank_ff(rows, field) -> int:
    """Rank by ``rref_ff``.

    ``rank`` uses it over QQ; over F_{p^e} it is the tests' reference for
    the blocked form's rank.
    """
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


def blocked_form(nrows: int, ncols: int, field: GF):
    """A zeroed blocked F_p form and its block column 0 as coefficients.

    Returns the (nrows e) x (ncols e) int64 matrix and a (nrows, ncols, e)
    view of it: writing a coefficient array into the view fills block
    column 0, so no separate coefficient array is needed.
    """
    e = field.e
    big = np.zeros((nrows * e, ncols * e), dtype=np.int64)
    return big, big.reshape(nrows, e, ncols, e)[:, :, :, 0].transpose(0, 2, 1)


def _fill_blocks(big: np.ndarray, field: GF) -> np.ndarray:
    """Block columns 1 .. e-1 of a blocked form from its block column 0.

    The blocked form is the F_p form of a matrix over F_{p^e}, by the
    regular representation: entry a becomes the e x e block of
    multiplication by a, whose entry [i][j] is coefficient i of a * t^j.
    Block column 0 holds the coefficients of a; block column j is block
    column j - 1 times t, a shift folded through the reduction table,
    written straight into the final layout one (rows, cols) slice at a
    time, so no temporary is allocated.  int64: each entry is one residue
    plus a product of two, below p (p - 1).
    """
    p, e = field.p, field.e
    # a view: blocks[r, i, c, j] is big[r * e + i, c * e + j]
    blocks = big.reshape(big.shape[0] // e, e, big.shape[1] // e, e)
    red = field._red[0] if e > 1 else ()  # coefficients of t^e
    for j in range(1, e):
        top = blocks[:, e - 1, :, j - 1]
        for i in range(e):
            out = blocks[:, i, :, j]
            np.multiply(top, red[i], out=out)
            if i:
                out += blocks[:, i - 1, :, j - 1]
            out %= p
    return big


# ---------------------------------------------------------------------------
# dispatching wrappers
# ---------------------------------------------------------------------------

def rank(rows, field) -> int:
    """Rank of a matrix over QQ (rows of rationals) or over F_q.

    Over F_q, q = p^e, ``rows`` is the (rows, cols, e) int64 coefficient
    array, ranked by its blocked form, whose F_p-rank is e times the rank.
    """
    if field.is_rational:
        return rank_ff([[Fraction(x) for x in r] for r in rows], QQ)
    e = field.e
    big, first = blocked_form(rows.shape[0], rows.shape[1], field)
    first[...] = rows % field.p
    r = len(_eliminate(_fill_blocks(big, field), field.p, reduce_above=False))
    if r % e:
        raise SelfCheckFailure(f"blocked F_p-rank {r} is not a multiple of e = {e}")
    return r // e
