"""Matrix backends for module splitting.

Two interchangeable implementations of the same small interface: a
vectorized numpy backend for prime fields (the hot path) and an
elementwise FFElem backend for extensions.  Vectors are 1-D, matrices
2-D, and modules use the column convention: the action sends v to A.v.

The interface: matrix arithmetic (``identity``, ``matmul``, ``matvec``,
``add``, ``scale``, ``combination``, ``transpose``, ``submatrix``,
``stack``, ``vstack``, ``reshape``, ``vec_is_zero``), random draws
(``random_scalar``, ``random_vector``), an echelon (``new_echelon``), a
nullspace basis (``nullspace``; a nullity is its length),
``poly_eval``, ``krylov_minpoly`` and ``iter_factors``.

Echelon states are kept in full reduced row echelon form with a pivot
list, so submodule restriction and quotient coordinates can be read off
entries directly.  The prime backend stores the echelon rows in the top
of one int64 buffer whose row capacity doubles when it fills, capped at
the width (the rank never exceeds it).  So a new row is written in place
instead of re-stacking the matrix, and a wide echelon (the Burnside one
has width d^2) allocates for its rank, never width x width up front.

``insert_all`` inserts a batch of rows in order with the result of one
``insert`` each.  The prime echelon reduces the whole batch by its basis
in one product, then updates only the later rows of the batch for each
row it accepts; the extension echelon loops ``insert``.  The verdict's
spin (``center._Span``) grows a prime echelon's width (``widen``) and
reduces its rows before ``insert_all``, which then forms no product.

Each backend has this one row reduction.  ``krylov_minpoly`` runs on it
too: row k of its echelon is (r^k v | e_k), and the first row whose left
half reduces to zero carries the minimal polynomial in its right half.

Every int64 product here sums k terms below (p - 1)^2, for an inner
dimension k of at most the module dimension d (d + 1 for the Krylov
echelon, d^2 for the Burnside one), so it is exact while k (p - 1)^2 < 2^63.  The splitter only
runs when p^n <= ``redenv.DIM_CAP`` (625), so p and d are at most
``DIM_CAP`` and the bound holds with room to spare.  The spin's rows
reach every p of the int64 envelope, where the row updates multiply two
residues at a time, exact while p (p - 1) < 2^63.
"""

from __future__ import annotations

import random

import numpy as np

from . import fastpoly, linalg
from .errors import CoefficientFieldMismatch
from .fields import GF
from .polys import pfactor


_FIRST_ROWS = 8


def _with_room(buf, k):
    """``buf`` if it has a row ``k``, else a copy with twice the rows.

    The capacity is capped at the width: an echelon over F_p has at most
    as many rows as columns.
    """
    if k < buf.shape[0]:
        return buf
    width = buf.shape[1]
    grown = np.zeros((min(max(_FIRST_ROWS, 2 * buf.shape[0]), width), width), dtype=np.int64)
    grown[:k] = buf[:k]
    return grown


def _clear_column(rows, col, v, p):
    """Subtract col[i] * v from each row i with col[i] != 0, in place, mod p.

    ``col`` may be a column of ``rows``: its entries are read before the write.
    """
    hit = col.nonzero()[0]
    if hit.size:
        rows[hit] = (rows[hit] - col[hit, None] * v) % p


class PrimeEchelon:
    """Full-RREF basis over F_p, rows held in the top of one int64 buffer."""

    __slots__ = ("p", "_buf", "pivots")

    def __init__(self, p, width):
        self.p = p
        self._buf = np.zeros((0, width), dtype=np.int64)
        self.pivots = []

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def rows(self):
        """The basis rows: a read-only view of the buffer."""
        view = self._buf[: len(self.pivots)]
        view.flags.writeable = False
        return view

    def reduce(self, v):
        v = v % self.p
        if self.pivots:
            coeffs = v[self.pivots]
            if coeffs.any():
                v = (v - coeffs @ self._buf[: len(self.pivots)]) % self.p
        return v

    def insert(self, v):
        """Insert if independent; returns pivot column or None."""
        v = self.reduce(v)
        nz = v.nonzero()[0]
        if nz.size == 0:
            return None
        return self._append(v, int(nz[0]))

    def insert_all(self, rows):
        """Insert the rows in order, as one ``insert`` each would.

        Returns the indices of the accepted rows, and stops once the span
        is the whole width.  One product reduces every row by the basis.
        After that, accepting a row u with pivot q takes R_j to
        R_j - R_j[q] u for each later row R_j, which in full RREF is what
        reducing R_j by the grown basis gives: the rows, pivots and
        accepted indices are those of the sequential inserts.
        """
        p = self.p
        width = self._buf.shape[1]
        rows = np.asarray(rows) % p
        k = len(self.pivots)
        if k:
            lead = rows[:, self.pivots]
            if np.count_nonzero(lead):
                rows = (rows - lead @ self._buf[:k]) % p
        accepted = []
        for j, v in enumerate(rows):
            nz = v.nonzero()[0]
            if nz.size == 0:
                continue
            piv = self._append(v, int(nz[0]))
            accepted.append(j)
            if len(self.pivots) == width:
                break
            if j + 1 < len(rows):
                # a handful of rows, nearly all nonzero at piv: update them all
                later = rows[j + 1 :]
                later -= later[:, piv, None] * self._buf[len(self.pivots) - 1]
                later %= p
        return accepted

    def widen(self, width):
        """Pad the rows with zero columns up to ``width``; rows and pivots stay."""
        if width > self._buf.shape[1]:
            self._buf = np.pad(self._buf, ((0, 0), (0, width - self._buf.shape[1])))

    def _append(self, v, piv):
        """Add a reduced row v with first nonzero at ``piv``, scaled to 1 there."""
        v = (v * pow(int(v[piv]), -1, self.p)) % self.p
        k = len(self.pivots)
        rows = self._buf[:k]
        _clear_column(rows, rows[:, piv], v, self.p)
        self._buf = _with_room(self._buf, k)
        self._buf[k] = v
        self.pivots.append(piv)
        return piv


class ExtEchelon:
    """Full-RREF basis over an extension field, elementwise."""

    __slots__ = ("field", "width", "rows", "pivots")

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.pivots)

    def reduce(self, v):
        v = list(v)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def insert(self, v):
        v = self.reduce(v)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        inv = v[piv].inverse()
        v = [x * inv for x in v]
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = [x - c * y for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(piv)
        return piv

    def insert_all(self, rows):
        """As ``PrimeEchelon.insert_all``, one ``insert`` per row."""
        accepted = []
        for j, v in enumerate(rows):
            if self.insert(v) is not None:
                accepted.append(j)
                if self.dim == self.width:
                    break
        return accepted


class PrimeOps:
    """numpy int64 matrices reduced mod p."""

    def __init__(self, field: GF):
        if field.e != 1:
            raise CoefficientFieldMismatch(f"PrimeOps needs a prime field, got {field!r}")
        self.field = field
        self.p = field.p
        # polynomial coefficient tuple -> its irreducible factors
        self._factors = {}

    def identity(self, d):
        return np.eye(d, dtype=np.int64)

    def matmul(self, a, b):
        return (a @ b) % self.p

    def matvec(self, a, v):
        return (a @ v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def scale(self, a, c):
        return (a * (int(c) % self.p)) % self.p

    def combination(self, c0, terms, d):
        """c0 I + sum c a over the (c, a) pairs, reduced once.

        int64: each term is below p^2, so the sum is exact while
        (len(terms) + 1) p^2 < 2^63.
        """
        out = np.zeros((d, d), dtype=np.int64)
        for c, a in terms:
            out += int(c) * a
        out[np.diag_indices(d)] += int(c0)
        return out % self.p

    def transpose(self, a):
        return a.T.copy()

    def submatrix(self, a, rows, cols=None):
        return a[rows] if cols is None else a[rows][:, cols]

    def random_scalar(self, rng: random.Random):
        return rng.randrange(self.p)

    def random_vector(self, d, rng: random.Random):
        return np.array([rng.randrange(self.p) for _ in range(d)], dtype=np.int64)

    def vec_is_zero(self, v):
        return not v.any()

    def stack(self, vectors):
        return np.array([np.asarray(v) for v in vectors], dtype=np.int64)

    def vstack(self, mats):
        return np.concatenate(mats)

    def reshape(self, a, width):
        """The entries of a vector or matrix, row by row, as rows of ``width``."""
        return a.reshape(-1, width)

    def new_echelon(self, width):
        return PrimeEchelon(self.p, width)

    def nullspace(self, a):
        basis = linalg.nullspace_modp(np.asarray(a, dtype=np.int64), self.p)
        return [basis[i] for i in range(basis.shape[0])]

    def poly_eval(self, coeffs, r):
        """Matrix polynomial by Horner; coeffs little endian ints."""
        d = r.shape[0]
        acc = np.zeros((d, d), dtype=np.int64)
        eye = np.eye(d, dtype=np.int64)
        for c in reversed(coeffs):
            acc = (acc @ r) % self.p
            ci = int(c) % self.p
            if ci:
                acc = (acc + ci * eye) % self.p
        return acc

    def krylov_minpoly(self, r, v):
        """Minimal polynomial of v under r, little-endian int coefficients.

        Row k of a width 2d + 1 echelon is (r^k v | e_k), so the right half
        of each stored row records which combination of Krylov vectors its
        left half is.  The first row whose left half reduces to zero is
        sum_i c_i r^i v = 0 with c_k = 1: the minimal polynomial, which is
        unique, scaled by the insert to put a 1 at its pivot.
        """
        p = self.p
        d = r.shape[0]
        state = PrimeEchelon(p, 2 * d + 1)
        cur = v % p
        k = 0
        while True:
            row = np.zeros(2 * d + 1, dtype=np.int64)
            row[:d] = cur
            row[d + k] = 1
            if state.insert(row) >= d:
                found = state.rows[-1, d : d + k + 1]
                return [int(c) for c in (found * pow(int(found[-1]), -1, p)) % p]
            cur = (r @ cur) % p
            k += 1

    def iter_factors(self, coeffs, rng: random.Random):
        """Distinct irreducible factors of a polynomial, smallest degree first.

        Memoized per polynomial for the life of this object.  The factors
        are a function of the polynomial alone (``fastpoly`` sorts each
        equal-degree batch), so a later call yields the same list whatever
        its ``rng``.  Factors are tuples, since every call shares them.
        """
        key = tuple(coeffs)
        found = self._factors.get(key)
        if found is None:
            f = fastpoly.from_ints(coeffs, self.p)
            found = [tuple(int(c) for c in irr) for irr in fastpoly.iter_irreducible_factors(f, self.p, rng)]
            self._factors[key] = found
        yield from found


class ExtOps:
    """Elementwise FFElem matrices for extension fields."""

    def __init__(self, field: GF):
        self.field = field

    def identity(self, d):
        f = self.field
        return [[f.one if i == j else f.zero for j in range(d)] for i in range(d)]

    def matmul(self, a, b):
        f = self.field
        n, inner, m = len(a), len(b), len(b[0])
        out = [[f.zero] * m for _ in range(n)]
        for i in range(n):
            ai = a[i]
            oi = out[i]
            for k in range(inner):
                c = ai[k]
                if c:
                    bk = b[k]
                    for j in range(m):
                        if bk[j]:
                            oi[j] = oi[j] + c * bk[j]
        return out

    def matvec(self, a, v):
        f = self.field
        out = []
        for row in a:
            acc = f.zero
            for c, x in zip(row, v):
                if c and x:
                    acc = acc + c * x
            out.append(acc)
        return out

    def add(self, a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def scale(self, a, c):
        return [[x * c for x in row] for row in a]

    def combination(self, c0, terms, d):
        """c0 I + sum c a over the (c, a) pairs."""
        out = self.scale(self.identity(d), c0)
        for c, a in terms:
            out = [[x + c * y for x, y in zip(ro, ra)] for ro, ra in zip(out, a)]
        return out

    def transpose(self, a):
        return [list(col) for col in zip(*a)]

    def submatrix(self, a, rows, cols=None):
        if cols is None:
            return [list(a[i]) for i in rows]
        return [[a[i][j] for j in cols] for i in rows]

    def random_scalar(self, rng):
        return self.field.random(rng)

    def random_vector(self, d, rng):
        return [self.field.random(rng) for _ in range(d)]

    def vec_is_zero(self, v):
        return not any(v)

    def stack(self, vectors):
        return [list(v) for v in vectors]

    def vstack(self, mats):
        return [row for a in mats for row in a]

    def reshape(self, a, width):
        """The entries of a vector or matrix, row by row, as rows of ``width``."""
        flat = [x for row in a for x in row] if isinstance(a[0], list) else a
        return [flat[i : i + width] for i in range(0, len(flat), width)]

    def new_echelon(self, width):
        return ExtEchelon(self.field, width)

    def nullspace(self, a):
        return linalg.nullspace_ff(a, self.field)

    def poly_eval(self, coeffs, r):
        f = self.field
        d = len(r)
        acc = [[f.zero] * d for _ in range(d)]
        ident = self.identity(d)
        for c in reversed(coeffs):
            acc = self.matmul(acc, r)
            cc = c if getattr(c, "field", None) is f else f.embed(c)
            if cc:
                acc = [
                    [x + cc * e for x, e in zip(row, irow)]
                    for row, irow in zip(acc, ident)
                ]
        return acc

    def krylov_minpoly(self, r, v):
        """As ``PrimeOps.krylov_minpoly``, on an ``ExtEchelon``."""
        f = self.field
        d = len(r)
        state = ExtEchelon(f, 2 * d + 1)
        cur = list(v)
        k = 0
        while True:
            unit = [f.zero] * (d + 1)
            unit[k] = f.one
            if state.insert(cur + unit) >= d:
                found = state.rows[-1][d : d + k + 1]
                inv = found[-1].inverse()
                return [c * inv for c in found]
            cur = self.matvec(r, cur)
            k += 1

    def iter_factors(self, coeffs, rng: random.Random):
        f = self.field
        poly = tuple(
            c if getattr(c, "field", None) is f else f.embed(c) for c in coeffs
        )
        items = pfactor(poly, f, rng)
        for irr, _mult in items:
            yield list(irr)


def ops_for(field: GF):
    return PrimeOps(field) if field.e == 1 else ExtOps(field)
