"""The p-center, degree-bounded centers, ranks, and the KW1 verdict.

The enveloping algebra of a restricted Lie algebra is a free module of
rank p^n over the central subalgebra generated by xi_i = x_i^p - x_i^[p];
``_zp_terms`` computes coordinates in that module by repeatedly
left-factoring p-th powers out of PBW monomials (``zp_coordinates``, the
public form, returns them as ``SymPoly`` maps).  zp is linear and
coordinates are unique, so zp(x^m) is memoized per PBW monomial on the
algebra (``_pbw_memo["zp-coordinates"]``); a monomial whose exponents
>= p fall only on variables with x_i^[p] = 0 is the one term
xi^(m // p) x^(m mod p) and needs no entry.  The verdict's spin keeps
a table of its own, T[m, j] = zp(x^m g_j) for a reduced monomial m and
a generator g_j (``_SpinRows``), for as long as it runs.  Ranks over the
fraction field of the p-center are obtained by specializing the formal
xi at RANK_TRIALS random points of F_{p^e} (maximum rank), e the
smallest with p^e >= 4 n^2 d for d the largest total xi-degree of a row:
each rank is an attained lower bound, equal to the true rank with
Schwartz-Zippel confidence.  A coordinate row has one form, arrays of
its terms held once in a ``_CoordinateTerms`` (``row``); each point
evaluates each xi-monomial once and scatter-adds the rows it reads.  One
class, ``_Span``, ranks every such matrix: per point, a
``matops.PrimeEchelon`` of the blocked F_p rows, each block reduced by
one ``linalg.matmul_modp`` product, exact at every p of the int64
envelope.  The oracle's u_chi is
the same specialization at xi = chi^p (``redenv.regular_representation``).

``rank_over_frobenius_subring`` (``kw1 lemma1``) is the commutative
model: the rank of A = F_p[x_1..x_n] over B . A^p.  Its generating set
is exact: for g in A, g^p = g(x^p) lies in A^p, so B . A^p is spanned
over A^p by the products prod_j g_j^{k_j} with 0 <= k_j < p, which are
ranked once.  A is U(abelian:n) with the zero p-map, where xi_i = x_i^p,
so the coordinate of c x^a over A^p is the one term c xi^(a div p)
x^(a mod p).

The verdict reads the rank of the algebra the degree <= D slice of the
center generates with a spin (``_spin_ranks``), run at one point after
another.  Its generators are the slice's basis elements of positive
degree, lowest degree first.  It spans the rows of 1 and of the
generators, then takes each generator g in turn: every row kept so far
is multiplied by g, a product that grows the span is kept and
multiplied by g again, and so on until nothing grows.  A row is the zp
coordinates of its element, and so is a product: xi is central, so
zp(y g) = sum c xi^u zp(x^m g) over the terms (m, u, c) of zp(y), and
only reduced monomials times a generator are straightened, each once
(the table T).  A generator whose own row grew no span is passed over.
This is exact: specializing is an algebra map onto u_xi, and central
elements commute, so if the span V is an algebra closed under the
generators before g, then
V + V g + V g^2 + ... is one closed under g too (V g^k h = V h g^k), and
a generator passed over lies in the span of 1 and the generators before
it, so in V already.  A product kept in g's turn is multiplied only by g
and later generators, and a generator's own row only from its own turn
on: for h before g, (y g) h = (y h) g, with y h in the span by induction
on the factors.  So the span ends as the image of the algebra at the
point, with no round cap; the spin stops by itself, or once the span is
all p^n reduced monomials, which ends the search.  The rank is the
largest point's dimension, and a later point reads the products
earlier ones formed, so only one echelon is held at a time and no
product is formed twice.  The D-1 generators come first, so the same
run reads the D-1 rank and ``stabilized``.  No later point is spun once
both ranks reach p^ind: ``index_generic`` bounds the index from above
and the rank over the p-center is at most p^ind (the inequality
``kw1_verdict`` checks), so a later point could raise neither.  A
product that needs a larger e than the field's starts the search again
over that field, from the same products and the same table T.

``center_basis_bounded`` is an exact nullspace computation: the span of
PBW monomials of bounded degree is stable under all [x_i, -], and the
kernel of the stacked commutator maps is the degree slice of the
center.  One solve at the bound D serves both slices it needs: its
canonical basis is in reduced echelon form over monomials in
reverse-deglex order, so the elements of degree <= D-1 are exactly the
canonical basis of the D-1 slice.  It also returns the rank over the
p-center at D, with its specialization field, so ``kw1_verdict`` ranks
the center once.  The commutator matrix is filled in increasing degree
by the derivation rule [x_i, x^b x_j] = [x_i, x^b] x_j + x^b [x_i, x_j]
(j the last letter), so each column costs one straightening step per
term of a column already built, not a full product.  It is kept as its
nonzero entries and solved by ``linalg.nullspace_rref_sparse``, one
connected column component at a time: a graded bracket makes the matrix
block-diagonal up to order, and the solve returns the canonical basis
directly.

Memory guards: ``MATRIX_BYTES_CAP`` bounds the commutator matrix taken
dense with the copy its nullspace reduces (``_check_matrix_budget``, an
upper bound on every component's block), and the echelons of a rank with
the rows a step may add to them and its working blocks
(``_check_spin_budget``, before the spin forms a step's products and
again before it ranks them, and as lemma1 keeps each product and
power).  ``MONOMIAL_CAP`` bounds the monomials of
the commutator matrix and the reduced monomials the spin's rows meet.
Each refuses with ``DegreeBoundTooLargeForMemory``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CentralityFailure,
    DegreeBoundTooLargeForMemory,
    SelfCheckFailure,
    WeightMismatch,
    ZeroElement,
)
from .fields import GF, galois_field, prime_field, reduce_sparse, render_poly_modp
from .liealg import ModularLieAlgebra, index_generic
from .matops import PrimeEchelon
from .pbw import (
    SymPoly,
    UEElement,
    _mono_times_letter,
    _mono_times_mono,
    pbw_bracket,
    principal_symbol,
    semi_invariant_weight,
    ue_gen,
    ue_monomial,
    ue_one,
)
from .util import deglex_key, derive_seed, monomial_count, monomials_upto, sz_extension_degree

MONOMIAL_CAP = 20000
# bytes of the commutator matrix taken dense with the copy its nullspace
# reduces, and bytes of the matrices of one specialized rank
MATRIX_BYTES_CAP = 1 << 30
RANK_TRIALS = 3
# random trials of the generic index, printed as ``indexTrials``
INDEX_TRIALS = 3
# blocked F_p rows the spin specializes and clears per exact product
_SPAN_BLOCK = 64


# ---------------------------------------------------------------------------
# p-center generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PCenterGenerators:
    """The elements xi_i = x_i^p - x_i^[p], in PBW normal form."""

    xi: tuple


def p_center_generators(alg: ModularLieAlgebra) -> PCenterGenerators:
    """Build all xi_i and verify their centrality exactly.

    A failure means the p-map table is wrong (bad override or internal
    bug), so it is raised rather than returned.
    """
    if alg.restricted is None:
        raise ValueError("algebra carries no restricted structure")
    n = alg.n
    gens = []
    for i in range(n):
        mono = tuple(alg.p if k == i else 0 for k in range(n))
        xi = ue_monomial(alg, mono)
        for l, c in enumerate(alg.restricted.vector(i)):
            if c:
                xi = xi - ue_gen(alg, l).scale(c)
        gens.append(xi)
    for i, xi in enumerate(gens):
        for j in range(n):
            if not pbw_bracket(ue_gen(alg, j), xi).is_zero():
                raise CentralityFailure(i, j)
        sym = principal_symbol(xi)
        if sym != SymPoly.monomial(
            alg.field, n, tuple(alg.p if k == i else 0 for k in range(n))
        ):
            raise SelfCheckFailure(f"principal symbol of xi_{i} is not x_{i}^p")
    return PCenterGenerators(xi=tuple(gens))


# ---------------------------------------------------------------------------
# coordinates over the p-center
# ---------------------------------------------------------------------------

class ZpCoordinateVector:
    """Coordinates of an element in the free module over the p-center.

    ``coordinates`` maps reduced monomials (all exponents < p) to
    commutative polynomials in the formal variables xi_0..xi_{n-1}.
    Substituting xi_i -> x_i^p - x_i^[p] and expanding reproduces the
    original element exactly (tested as the reassembly invariant).
    """

    __slots__ = ("alg", "coordinates")

    def __init__(self, alg, coordinates):
        self.alg = alg
        self.coordinates = coordinates

    def reassemble(self) -> UEElement:
        alg = self.alg
        gens = p_center_generators(alg).xi
        total = None
        for mono, poly in self.coordinates.items():
            base = ue_monomial(alg, mono)
            for xi_exps, c in poly.terms.items():
                term = base.scale(c)
                for i, a in enumerate(xi_exps):
                    for _ in range(a):
                        term = term * gens[i]
                total = term if total is None else total + term
        return total if total is not None else UEElement(alg, {})


def _monomial_coordinates(alg: ModularLieAlgebra, mono, pmapped):
    """zp(x^mono) as pairs ((reduced monomial, xi exponents), residue).

    ``pmapped[i]`` says whether x_i^[p] is nonzero.  When every exponent
    >= p falls on a variable with x_i^[p] = 0, x^mono = xi^(mono // p)
    x^(mono mod p) is a single term, built on the spot.  Otherwise the
    leftmost block of p letters is rewritten, x^mono = xi_hot x^reduced +
    x^prefix x_hot^[p] x^remainder, each part by recursion on smaller
    degree, and the pairs are memoized on the algebra like straightening.
    x^prefix is reduced, and it multiplies x_hot^[p] x^remainder once that
    is straightened, so every straightening here starts from a reduced
    monomial on the left.
    """
    p = alg.p
    if all(a < p or not pm for a, pm in zip(mono, pmapped)):
        return (((tuple(a % p for a in mono), tuple(a // p for a in mono)), 1),)
    memo = alg._pbw_memo.setdefault("zp-coordinates", {})
    hit = memo.get(mono)
    if hit is not None:
        return hit
    # x^mono = x^prefix . x_hot^p . x^remainder, and xi_hot is central
    hot = next(i for i, a in enumerate(mono) if a >= p)
    prefix = tuple(a if k < hot else 0 for k, a in enumerate(mono))
    remainder = tuple(a - p if k == hot else (a if k > hot else 0) for k, a in enumerate(mono))
    reduced = tuple(a - p if k == hot else a for k, a in enumerate(mono))
    out = {
        (r, tuple(x + 1 if k == hot else x for k, x in enumerate(xi))): c
        for (r, xi), c in _monomial_coordinates(alg, reduced, pmapped)
    }
    get = out.get
    for l, cl in enumerate(alg.restricted.vector(hot)):
        if not cl:
            continue
        letter = tuple(int(k == l) for k in range(len(mono)))
        for m1, c1 in _mono_times_mono(alg, letter, remainder).items():
            for m2, c2 in _mono_times_mono(alg, prefix, m1).items():
                c = cl * c1 * c2
                for key, a in _monomial_coordinates(alg, m2, pmapped):
                    out[key] = get(key, 0) + c * a
    result = memo[mono] = tuple(reduce_sparse(out, p).items())
    return result


def _zp_terms(alg: ModularLieAlgebra, terms: dict) -> dict:
    """zp of the element with PBW ``terms`` (ints).

    A map (reduced monomial, xi exponents) -> residue, zeros dropped.
    """
    if alg.restricted is None:
        raise ValueError("algebra carries no restricted structure")
    pmapped = tuple(any(alg.restricted.vector(i)) for i in range(alg.n))
    out: dict = {}
    get = out.get
    for mono, c in terms.items():
        for key, v in _monomial_coordinates(alg, mono, pmapped):
            out[key] = get(key, 0) + c * v
    return reduce_sparse(out, alg.p)


def zp_coordinates(a: UEElement, alg: ModularLieAlgebra) -> ZpCoordinateVector:
    """Coordinates of ``a`` over the p-center, by the rewrite x_i^p = xi_i + x_i^[p].

    zp is linear, so the map of a = sum c_m x^m is sum c_m zp(x^m), read
    from ``_monomial_coordinates`` (memoized per PBW monomial) and reduced
    once.  Coordinates in the free module are unique, so the result does
    not depend on the order of the rewrites.
    """
    coords: dict = {}
    for (mono, xi), v in _zp_terms(alg, a.terms).items():
        coords.setdefault(mono, {})[xi] = v
    return ZpCoordinateVector(
        alg, {mono: SymPoly._reduced(alg.field, alg.n, terms) for mono, terms in coords.items()}
    )


def _product_coordinates(alg: ModularLieAlgebra, mono, gen: UEElement) -> dict:
    """``_zp_terms`` of x^mono gen, for a reduced monomial ``mono``."""
    raw: dict = {}
    get = raw.get
    for mb, cb in gen.terms.items():
        for m2, c2 in _mono_times_mono(alg, mono, mb).items():
            raw[m2] = get(m2, 0) + cb * c2
    return _zp_terms(alg, raw)


# ---------------------------------------------------------------------------
# degree-bounded center
# ---------------------------------------------------------------------------

@dataclass
class CenterBasis:
    """Canonical basis of the degree <= D slice of the center.

    ``rank`` is the witnessed rank of the slice over the p-center and
    ``spec_field`` the field it was specialized over.  ``ind`` is
    ``index_generic``'s bound on the index; p^ind bounds both ranks, so
    the spin stops at the first point that reads it for both.
    """

    degree_bound: int
    elements: tuple
    stabilized: bool
    rank: int
    spec_field: GF
    ind: int


def _check_matrix_budget(n: int, count: int):
    """Refuse a dense (n count) x count int64 matrix plus its RREF copy over the cap.

    The solve builds only one connected component's block at a time,
    never larger than this, so the bound holds for brackets that are not
    graded too.
    """
    nbytes = 2 * 8 * n * count * count
    if nbytes > MATRIX_BYTES_CAP:
        raise DegreeBoundTooLargeForMemory(
            nbytes, MATRIX_BYTES_CAP, unit="bytes of commutator matrix"
        )


def _commutator_entries(alg: ModularLieAlgebra, monos, index):
    """Nonzero entries (rows, cols, vals) of the stacked maps [x_i, -].

    The maps act on the span of ``monos``, all degrees <= some D.  Row
    i * count + index[m'] of column index[m] is the coefficient of x^m'
    in [x_i, x^m], each position listed at most once.  Columns are built
    in increasing degree by the derivation rule: with x^m = x^b x_j, j the
    last letter of m, [x_i, x^m] = [x_i, x^b] x_j + x^b [x_i, x_j], both
    read off the column of b through ``_mono_times_letter``.  Only the
    previous degree's brackets are kept.
    """
    n, p = alg.n, alg.p
    count = len(monos)
    rows, cols, vals = [], [], []
    prev, cur, deg = {}, {}, 0
    for m in sorted(monos, key=deglex_key):
        d = sum(m)
        if d != deg:
            prev, cur, deg = cur, {}, d
        if d == 0:
            cur[m] = [{}] * n
            continue
        j = max(k for k in range(n) if m[k])
        base = tuple(a - 1 if k == j else a for k, a in enumerate(m))
        col = index[m]
        brackets = []
        for i in range(n):
            out = {}
            get = out.get
            for m2, c2 in prev[base][i].items():
                for m3, c3 in _mono_times_letter(alg, m2, j).items():
                    out[m3] = get(m3, 0) + c2 * c3
            for l, cl in alg.bracket(i, j).items():
                for m3, c3 in _mono_times_letter(alg, base, l).items():
                    out[m3] = get(m3, 0) + cl * c3
            out = reduce_sparse(out, p)
            brackets.append(out)
            offset = i * count
            for m3, c in out.items():
                rows.append(offset + index[m3])
                cols.append(col)
                vals.append(c)
        cur[m] = brackets
    return rows, cols, vals


def _center_space(alg: ModularLieAlgebra, bound: int):
    """Exact nullspace of the stacked commutator maps on degree <= bound."""
    n = alg.n
    count = monomial_count(n, bound)
    if count > MONOMIAL_CAP:
        raise DegreeBoundTooLargeForMemory(count, MONOMIAL_CAP)
    _check_matrix_budget(n, count)
    monos = sorted(monomials_upto(n, bound), key=deglex_key, reverse=True)
    index = {m: k for k, m in enumerate(monos)}
    rows, cols, vals = _commutator_entries(alg, monos, index)
    # canonical: reduced echelon form with leading monomials as pivots
    reduced = linalg.nullspace_rref_sparse(rows, cols, vals, count, alg.p)
    elements = []
    for row in reduced:
        terms = {monos[k]: int(row[k]) for k in np.flatnonzero(row)}
        elements.append(UEElement._reduced(alg, terms))
    # exact recheck after the solve: every basis vector really is central
    gens = [ue_gen(alg, i) for i in range(n)]
    for el in elements:
        for i in range(n):
            if not pbw_bracket(gens[i], el).is_zero():
                raise SelfCheckFailure(
                    f"nullspace vector fails exact centrality at generator {i}"
                )
    return elements


def center_basis_bounded(
    alg: ModularLieAlgebra, bound: int, seed: int = 0, min_extension: int = 1
) -> CenterBasis:
    """Center slice of degree <= bound with its rank and a stabilization flag.

    The nullspace is solved once, at ``bound``; the D-1 slice is the
    canonical basis elements of degree <= D-1 (see the module docstring).
    One spin ranks the algebras both slices generate: the D-1 slice's
    generators first, then the degree-D ones, over a field of degree at
    least ``min_extension``.  ``stabilized`` is true when the two ranks
    agree, the working signal that no new central directions appear at
    the top degree.  Once a point reads p^ind for both, no later point is
    spun: neither rank can exceed p^ind, so both are already exact.
    """
    if bound < 1:
        raise ValueError("degree bound must be >= 1")
    ind = index_generic(alg, trials=INDEX_TRIALS, seed=seed)
    elements = _center_space(alg, bound)
    prev = [el for el in elements if el.degree <= bound - 1]
    top = [el for el in elements if el.degree == bound]
    r_prev, r_here, field = _spin_ranks(alg, prev, top, alg.p**ind, seed, min_extension)
    return CenterBasis(
        degree_bound=bound,
        elements=tuple(elements),
        stabilized=(r_here == r_prev),
        rank=r_here,
        spec_field=field,
        ind=ind,
    )


# ---------------------------------------------------------------------------
# ranks over the p-center
# ---------------------------------------------------------------------------

class _CoordinateTerms:
    """Coordinate rows, each held once as arrays, and the numbering they share.

    ``row`` holds terms ((reduced monomial, xi exponents), coefficient)
    as three arrays: the numbers of the monomials (``monomials[k]`` is
    numbered k), the xi exponents and the coefficients.  ``extend``
    gathers rows: ``rows[r]`` is row r of the matrix, whose entry in
    column c, the monomial ``columns[c]``, is a polynomial in xi.  A
    monomial gets a column (after the ``columns`` given) when a gathered
    row first meets it, so one met only in rows never gathered (the
    spin's table T) has none.  A gathered row keeps its xi-monomials as
    numbers, row ``exponents[k]`` for k, so a specialization evaluates
    each once and scatter-adds the terms.
    """

    def __init__(self, num_vars: int, columns=()):
        self.num_vars = num_vars
        self.columns: list = list(columns)
        self.monomials: list = list(columns)
        self._number: dict = {m: k for k, m in enumerate(self.monomials)}
        self._column_of = np.arange(len(self.columns), dtype=np.intp)  # number -> column, -1 for none
        self._xi: dict = {}  # xi exponents -> number, in ``exponents`` order
        self.exponents = np.zeros((0, num_vars), dtype=np.int64)
        self.rows: list = []  # (monomial numbers, xi-monomial numbers, coefficients)
        self._all = None  # the terms of every gathered row, concatenated

    def row(self, pairs):
        """Terms ((reduced monomial, xi exponents), coefficient) as (numbers, exponents, coefficients).

        A reduced monomial met for the first time is numbered.
        """
        number, monomials = self._number, self.monomials
        nums, exps, coef = [], [], []
        for (m, xi), a in pairs:
            k = number.get(m)
            if k is None:
                k = number[m] = len(monomials)
                monomials.append(m)
            nums.append(k)
            exps.append(xi)
            coef.append(a)
        return (
            np.array(nums, dtype=np.intp),
            np.array(exps, dtype=np.int64).reshape(len(nums), self.num_vars),
            np.array(coef, dtype=np.int64),
        )

    def extend(self, rows):
        """Gather ``rows``, each made by ``row``, as the next rows of the matrix."""
        if not rows:
            return
        nums, exps, coef = zip(*rows)
        new = len(self.monomials) - len(self._column_of)
        self._column_of = np.append(self._column_of, np.full(new, -1))
        # the monomials met first, in the order they are met
        met, first = np.unique(np.concatenate(nums), return_index=True)
        met = met[np.argsort(first)]
        for k in met[self._column_of[met] < 0].tolist():
            self._column_of[k] = len(self.columns)
            self.columns.append(self.monomials[k])
        xi, keys = self._xi, map(tuple, np.concatenate(exps).tolist())
        numbers = np.array([xi.setdefault(x, len(xi)) for x in keys], dtype=np.intp)
        if len(xi) > len(self.exponents):
            self.exponents = np.array(list(xi), dtype=np.int64).reshape(len(xi), self.num_vars)
        self.rows += zip(nums, np.split(numbers, np.cumsum([len(c) for c in coef])[:-1]), coef)
        self._all = None

    def _terms(self, rows):
        """(row positions, columns, xi-monomial numbers, coefficients) of the terms of ``rows``."""
        # one row without terms, so that no rows (n = 0 in u_chi) give empty arrays
        none = np.zeros(0, dtype=np.int64)
        nums, xi, coef = zip(*[self.rows[r] for r in rows], (none, none, none))
        local = np.repeat(np.arange(len(coef)), [len(c) for c in coef])
        return local, self._column_of[np.concatenate(nums)], np.concatenate(xi), np.concatenate(coef)

    @property
    def max_degree(self) -> int:
        """Largest total xi-degree of a term; 0 without terms."""
        return int(self.exponents.sum(axis=1).max(initial=0))

    def values(self, point, field: GF, out=None, rows=None) -> np.ndarray:
        """(rows, cols, e) coefficient array of the matrix at ``point``.

        Only the gathered ``rows`` given (indices, in their order) when
        given; the terms of all rows are concatenated once per ``extend``.
        Written into ``out`` (zeroed, any strides) when given.  ``point``
        holds one scalar of ``field`` per xi variable, read through
        ``GF.coefficients``.  int64: each term is reduced below p before
        the scatter-add, so an entry hit by T terms stays below T p.  T is
        at most the number of gathered terms; inside
        ``linalg.require_exact_prime``, 2^63 / p is over 3 * 10^9 terms,
        some 100 GB of arrays.
        """
        p, e = field.p, field.e
        at = np.array([field.coefficients(x) for x in point], dtype=np.int64).reshape(len(point), e)
        # powers[u, i] = point[i]^distinct[u] by square-and-multiply (bit k
        # of the exponent multiplies in point[i]^(2^k)), then each monomial
        # as a product of powers.  Only the exponents that occur are
        # evaluated, with 2 (bits - 1) products: never more than the
        # largest exponent, which a table of every power would take.
        distinct, where = np.unique(self.exponents.ravel(), return_inverse=True)
        where = where.reshape(self.exponents.shape)
        powers = np.zeros((len(distinct),) + at.shape, dtype=np.int64)
        powers[:, :, 0] = 1
        powers[distinct & 1 == 1] = at
        square = at
        for k in range(1, int(distinct.max(initial=0)).bit_length()):
            square = _field_mul(square, square, field)
            bit = (distinct >> k) & 1 == 1
            powers[bit] = _field_mul(powers[bit], square, field)
        vals = np.zeros((len(self.exponents), e), dtype=np.int64)
        vals[:, 0] = 1
        for i in range(at.shape[0]):
            vals = _field_mul(vals, powers[where[:, i], i], field)
        if rows is None:
            if self._all is None:
                self._all = self._terms(range(len(self.rows)))
            local, cols, numbers, coef = self._all
        else:
            local, cols, numbers, coef = self._terms(rows)
        if out is None:
            out = np.zeros((len(self.rows if rows is None else rows), len(self.columns), e), dtype=np.int64)
        np.add.at(out, (local, cols), vals[numbers] * coef[:, None] % p)
        out %= p
        return out


def _field_mul(a: np.ndarray, b: np.ndarray, field: GF) -> np.ndarray:
    """Products of F_{p^e} elements stored as coefficient vectors on the last axis.

    int64: every partial sum is reduced mod p before the next product of
    two residues is added, so each step stays below p (p - 1), at any e.
    """
    p, e = field.p, field.e
    if e == 1:
        return a * b % p
    full = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1] + (2 * e - 1,), dtype=np.int64)
    for i in range(e):
        full[..., i:i + e] += a[..., i:i + 1] * b
        full[..., i:i + e] %= p
    # fold t^e .. t^(2e-2) through the reduction table, one power at a time
    out = full[..., :e]
    for k, row in enumerate(field._red):
        out = (out + full[..., e + k, None] * np.array(row, dtype=np.int64)) % p
    return out


def _check_spin_budget(dim: int, rows: int, width: int):
    """Refuse when an echelon holding ``dim`` F_p rows, grown by ``rows``, could exceed the cap.

    ``width`` is the blocked width.  Its buffer holds at most twice its
    rows (8 at first) and at most ``width``, with one old copy alive while
    it grows or widens; eight arrays of a ``_SPAN_BLOCK``-row block.
    """
    held = min(max(8, 2 * (dim + rows)), width)
    nbytes = 8 * width * (2 * held + 8 * min(rows, _SPAN_BLOCK))
    if nbytes > MATRIX_BYTES_CAP:
        raise DegreeBoundTooLargeForMemory(
            nbytes, MATRIX_BYTES_CAP, unit="bytes of specialized rank matrices"
        )


def _sampling(p: int, n: int, e: int, field_tag: str, seed: int, point_seed: int):
    """F_{p^e} and the RANK_TRIALS random points a rank is specialized at."""
    field = galois_field(p, e, seed=derive_seed(field_tag, p, e, seed))
    rng = random.Random(point_seed)
    return field, [[field.random_nonzero(rng) for _ in range(n)] for _ in range(RANK_TRIALS)]


class _Span:
    """The span of gathered coordinate rows specialized at one point.

    A row over F_{p^e} is e blocked F_p rows (``linalg.blocked_form``)
    spanning its F_{p^e} line, so it grows the echelon by e or not at all.
    """

    def __init__(self, field: GF, point):
        self.field, self.point = field, point
        self.echelon = PrimeEchelon(field.p, 0)

    @property
    def rank(self) -> int:
        return self.echelon.dim // self.field.e

    def insert(self, terms: _CoordinateTerms, rows: list, full: int) -> list:
        """The ``rows`` of ``terms`` that grow the span, in order; stops at rank ``full``."""
        field, echelon = self.field, self.echelon
        e, cols = field.e, len(terms.columns)
        _check_spin_budget(echelon.dim, len(rows) * e, cols * e)
        echelon.widen(cols * e)
        grown = []
        step = max(1, _SPAN_BLOCK // e)
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            big, coeffs = linalg.blocked_form(len(chunk), cols, field)
            terms.values(self.point, field, out=coeffs, rows=chunk)
            block = linalg._fill_blocks(big, field)
            # reduced first by the basis rows whose pivots it meets, a block
            # of them per exact product, so insert_all forms no product
            lead = block[:, echelon.pivots]
            used = np.flatnonzero(lead.any(axis=0))
            for k in range(0, used.size, _SPAN_BLOCK):
                u = used[k:k + _SPAN_BLOCK]
                block = (block - linalg.matmul_modp(lead[:, u], echelon.rows[u], field.p)) % field.p
            grown += [chunk[j // e] for j in echelon.insert_all(block)[::e]]
            if self.rank == full:
                break
        return grown


def _specialized_rank(terms: _CoordinateTerms, p, n, field_tag, seed, point_seed) -> int:
    """Largest rank of the gathered rows over the RANK_TRIALS points; stops at full rank."""
    e = sz_extension_degree(p, n, terms.max_degree)
    field, points = _sampling(p, n, e, field_tag, seed, point_seed)
    full, rank = min(len(terms.rows), len(terms.columns)), 0
    for point in points:
        span = _Span(field, point)
        span.insert(terms, list(range(len(terms.rows))), full)
        rank = max(rank, span.rank)
        if rank == full:
            break
    return rank


class _SpinRows:
    """The spin's rows: zp coordinates of 1 and of products row . generator.

    Row r is ``terms.rows[r]``, formed with generator ``made_with[r]``.
    The product of row r and generator j is the sum of c xi^u T[m, j]
    over the terms (m, u, c) of row r, where T[m, j] = zp(x^m gens[j])
    (``_product_coordinates``), a row of ``terms`` that is never gathered,
    keyed by m's number: xi is central, so a product straightens only
    x^m gens[j] for reduced monomials m.  Each product and each T[m, j] is
    formed once and read by every point and every field the search tries.
    """

    def __init__(self, alg: ModularLieAlgebra, gens):
        self.alg, self.gens = alg, gens
        self.terms = _CoordinateTerms(alg.n)
        unit = (0,) * alg.n
        self.terms.extend([self.terms.row([((unit, unit), 1)])])
        self.made_with = [0]
        self.formed: dict = {}  # (row, generator index) -> row of their product
        self.table: list = [{} for _ in gens]  # table[j][number of m] -> T[m, j]

    def products(self, pairs) -> list:
        """The rows of the products of (row, generator index) ``pairs``, forming the new ones."""
        new = [pair for pair in pairs if pair not in self.formed]
        for k, (r, j) in enumerate(new, len(self.terms.rows)):
            self.formed[r, j] = k
            self.made_with.append(j)
        self.terms.extend([self.times(r, j) for r, j in new])
        if len(self.terms.columns) > MONOMIAL_CAP:
            raise DegreeBoundTooLargeForMemory(len(self.terms.columns), MONOMIAL_CAP)
        return [self.formed[pair] for pair in pairs]

    def times(self, r: int, j: int):
        """Row r times generator j, as arrays with equal terms summed and zeros dropped."""
        alg, terms, table = self.alg, self.terms, self.table[j]
        nums, xi, coef = terms.rows[r]
        exps = terms.exponents[xi]
        blocks = []
        for m in nums.tolist():
            t = table.get(m)
            if t is None:
                t = table[m] = terms.row(_product_coordinates(alg, terms.monomials[m], self.gens[j]).items())
            blocks.append(t)
        if len(blocks) == 1:
            # c xi^u T[m, j] has T's distinct keys, and c T's nonzero residues
            t_nums, t_exps, t_coef = blocks[0]
            return t_nums, t_exps + exps, t_coef * coef % alg.p
        sizes = [len(t[0]) for t in blocks]
        keys = np.column_stack([
            np.concatenate([t[0] for t in blocks]),
            np.concatenate([t[1] for t in blocks]) + np.repeat(exps, sizes, axis=0),
        ])
        # residues below p, so each product fits int64 (require_exact_prime)
        vals = np.concatenate([t[2] for t in blocks]) * np.repeat(coef, sizes) % alg.p
        order = np.lexsort(keys.T[::-1])
        keys, vals = keys[order], vals[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(vals, starts) % alg.p
        keys = keys[starts[sums != 0]]
        return keys[:, 0].astype(np.intp), np.ascontiguousarray(keys[:, 1:]), sums[sums != 0]


def _spin_ranks(alg: ModularLieAlgebra, first, then, ceiling: int, seed: int, min_ext: int = 1):
    """(rank over ``first``, rank over both, field) of the algebras central elements generate.

    See the module docstring; e is at least ``min_ext``, and no point is
    spun after one that reads ``ceiling``, an upper bound on both ranks,
    for both.  The rows are zp coordinates, and a product is formed in
    them (``_SpinRows``), never as an element of U(g).
    """
    n, p = alg.n, alg.p
    full = p**n
    gens = sorted((el for el in first if el.degree > 0), key=lambda el: el.degree)
    split = len(gens)
    gens += sorted((el for el in then if el.degree > 0), key=lambda el: el.degree)
    point_seed = derive_seed("specialize", alg.signature(), seed)
    made = _SpinRows(alg, gens)
    terms = made.terms

    def field_degree():
        return max(sz_extension_degree(p, n, terms.max_degree), min_ext)

    def spin(span):
        e = span.field.e
        kept = span.insert(terms, [0], full)
        ranks = []
        for lo, hi in ((0, split), (split, len(gens))):
            own = made.products([(0, j) for j in range(lo, hi)]) if span.rank < full else []
            if field_degree() > e:
                return None
            grown = set(span.insert(terms, own, full))
            kept += [r for r in own if r in grown]
            for j, gen_row in enumerate(own, lo):
                if gen_row not in grown or span.rank == full:
                    continue
                frontier = [r for r in kept[1:] if made.made_with[r] <= j]
                while frontier and span.rank < full:
                    _check_spin_budget(span.echelon.dim, len(frontier) * e, len(terms.columns) * e)
                    rows = made.products([(r, j) for r in frontier])
                    if field_degree() > e:
                        return None
                    frontier = span.insert(terms, rows, full)
                    kept += frontier
            ranks.append(span.rank)
        return ranks

    while True:
        field, points = _sampling(p, n, field_degree(), "spec-field", seed, point_seed)
        best = [0, 0]
        for point in points:
            ranks = spin(_Span(field, point))
            if ranks is None or ranks[1] == full or ranks == [ceiling, ceiling]:
                break
            best = [max(pair) for pair in zip(best, ranks)]
        if ranks is not None:
            return max(best[0], ranks[0]), max(best[1], ranks[1]), field


def zp_subalgebra_contains(a: UEElement, alg: ModularLieAlgebra) -> bool:
    """Membership test for the subalgebra generated by the xi_i.

    Elements of the p-center are exactly those whose coordinates are
    concentrated on the reduced monomial 1.
    """
    coords = zp_coordinates(a, alg).coordinates
    unit = (0,) * alg.n
    return all(m == unit for m in coords)


# ---------------------------------------------------------------------------
# fraction field degrees
# ---------------------------------------------------------------------------

def fraction_field_degree(
    phi: UEElement,
    psi: UEElement,
    alg: ModularLieAlgebra,
    power_bound: int,
    seed: int = 0,
) -> int:
    """Degree of Frac(Z_p)(phi/psi) over Frac(Z_p), up to ``power_bound``.

    Both arguments must be semi-invariant of the same weight, which
    makes phi psi^{p-1} and psi^p central (verified exactly before any
    randomized step).  The fraction u = phi/psi is represented through
    the central elements v_j = phi^j psi^{pJ'-j}; the least j making
    them linearly dependent over Frac(Z_p) is the degree.  Returns
    power_bound + 1 when no dependence is found (inconclusive).
    """
    if psi.is_zero():
        raise ZeroElement("denominator is zero")
    w_phi = semi_invariant_weight(phi)
    w_psi = semi_invariant_weight(psi)
    if w_phi is None or w_psi is None or w_phi != w_psi:
        raise WeightMismatch(
            "numerator and denominator are not semi-invariant of equal weight"
        )
    p = alg.p
    gens = [ue_gen(alg, i) for i in range(alg.n)]
    psi_p = psi**p
    mixed = phi * psi ** (p - 1)
    for g in gens:
        if not pbw_bracket(g, psi_p).is_zero() or not pbw_bracket(g, mixed).is_zero():
            raise CentralityFailure(-1, -1)
    j_blocks = -(-power_bound // p)  # ceil
    exponent = p * j_blocks
    point_seed = derive_seed("specialize", alg.signature(), seed)
    terms = _CoordinateTerms(alg.n)
    psi_pow = [ue_one(alg)]
    for _ in range(exponent):
        psi_pow.append(psi_pow[-1] * psi)
    phi_pow = ue_one(alg)
    for d in range(power_bound + 1):
        v = phi_pow * psi_pow[exponent - d]
        terms.extend([terms.row(_zp_terms(alg, v.terms).items())])
        if d >= 1 and _specialized_rank(terms, p, alg.n, "spec-field", seed, point_seed) < d + 1:
            return d
        phi_pow = phi_pow * phi
    return power_bound + 1


# ---------------------------------------------------------------------------
# commutative Frobenius-subring rank checker
# ---------------------------------------------------------------------------

def rank_over_frobenius_subring(num_vars: int, b_generators, p: int, seed: int = 0) -> int:
    """Rank of the polynomial ring A over B . A^p, by specialization.

    ``b_generators`` are polynomials generating B inside
    A = F_p[x_1..x_n].  The products prod_j g_j^{k_j}, 0 <= k_j < p, span
    B . A^p over A^p (module docstring); they are formed from one table
    of powers per generator, without duplicates, and their coordinates
    in the free A^p-module basis of reduced monomials are ranked once.
    The answer is p^n divided by that rank r.  Frac(A) is purely
    inseparable over Frac(B . A^p), so r is a power of p; a rank not
    dividing p^n raises ``SelfCheckFailure``.

    Each table keeps every earlier product (k_j = 0) and 1 times each
    power, so the distinct products and powers kept so far and the
    reduced monomials they meet bound the final rank's rows and columns
    from below: ``_check_spin_budget`` (at e = 1) checks that bound as
    each one is kept, and refuses an over-budget input at once.

    The xi-exponents a // p of the coordinates are int64 in
    ``_CoordinateTerms``, and so is their sum.  The product of every
    g_j^(p-1) has the largest total degree, (p - 1) sum_j deg g_j, so the
    total xi-degree of a coordinate term is at most that over p; an input
    where this exceeds 2^63 - 1 raises ``ValueError`` before any product
    is formed.
    """
    linalg.require_exact_prime(p)
    field = prime_field(p)
    gens = [g if isinstance(g, SymPoly) else SymPoly(field, num_vars, g) for g in b_generators]
    gens = [g for g in gens if not g.is_zero()]
    xi_degree = (p - 1) * sum(max(sum(m) for m in g.terms) for g in gens) // p
    if xi_degree >= 2**63:
        raise ValueError(
            f"the coordinates over the p-th powers reach xi-degree {xi_degree}, above 2^63 - 1"
        )
    one = SymPoly.one(field, num_vars)
    products = {frozenset(one.terms.items()): one}
    columns = {(0,) * num_vars}

    def keep(table: dict, c: SymPoly):
        key = frozenset(c.terms.items())
        if key not in table:
            table[key] = c
            columns.update(tuple(a % p for a in m) for m in c.terms)
            _check_spin_budget(0, max(len(products), len(table)), len(columns))

    for g in gens:
        powers: dict = {}
        keep(powers, one)
        power = one
        for _ in range(p - 1):
            power = power * g
            keep(powers, power)
        grown: dict = {}
        for a in products.values():
            for b in powers.values():
                keep(grown, a * b)
        products = grown
    terms = _CoordinateTerms(num_vars)
    terms.extend([
        terms.row(((tuple(a % p for a in m), tuple(a // p for a in m)), c) for m, c in f.terms.items())
        for f in products.values()
    ])
    r = _specialized_rank(
        terms, p, num_vars, "frob-field", seed, derive_seed("frob-points", p, num_vars, seed),
    )
    total = p**num_vars
    if total % r != 0:
        raise SelfCheckFailure(f"rank {r} over B . A^p does not divide p^n = {total}")
    return total // r


# ---------------------------------------------------------------------------
# the verdict
# ---------------------------------------------------------------------------

@dataclass
class KW1Report:
    """Everything the verdict pipeline measured for one (algebra, p)."""

    algebra_name: str
    p: int
    e: int
    dim: int
    ind: int
    degree_bound: int
    rank_z_over_zp: int
    m_upper: int | None
    m_upper_formal: str
    m_lower: int
    verdict: str
    seed: int
    defining_polynomial: str
    stabilized: bool
    index_trials: int
    oracle_estimate: dict | None = None
    notes: tuple = ()


def _p_power_exponent(value: int, p: int):
    """k with value == p^k, or None."""
    k = 0
    v = value
    while v % p == 0:
        v //= p
        k += 1
    return k if v == 1 else None


def default_degree_bound(alg: ModularLieAlgebra) -> int:
    """2p - 2 in dimension <= 3, p above; no effective bound is known."""
    return 2 * alg.p - 2 if alg.n <= 3 else alg.p


def kw1_verdict(
    alg: ModularLieAlgebra,
    degree_bound: int | None = None,
    seed: int = 0,
    min_extension: int = 1,
) -> KW1Report:
    """Assemble the index, center rank, and bound comparison.

    verified   : rank equals p^ind, so both bounds coincide and the
                 largest irreducible dimension is pinned exactly;
    inconclusive: the witnessed rank is below p^ind, meaning the center
                 was not fully seen up to the degree bound.

    The center is ranked over a field of degree at least
    ``min_extension``.  ``oracle_estimate`` is left unset; ``kw1 check
    --oracle`` fills it from ``redenv.max_irreducible_dim``.
    """
    if alg.restricted is None:
        raise ValueError("algebra carries no restricted structure")
    n = alg.n
    p = alg.p
    bound = degree_bound if degree_bound is not None else default_degree_bound(alg)
    cb = center_basis_bounded(alg, bound, seed=seed, min_extension=min_extension)
    r, spec_field, ind = cb.rank, cb.spec_field, cb.ind
    if r > p**ind:
        raise SelfCheckFailure(f"rank {r} exceeds p^ind = {p**ind}")
    m_lower = p ** ((n - ind) // 2)
    quotient = p**n // r if p**n % r == 0 else None
    notes = [
        "largest irreducible dimension M is read from M^2 * rank(Z over Z_p) = p^dim",
        "verdict is an empirical certificate for this (algebra, p), not a proof "
        "of algebraicity of the input",
    ]
    k = _p_power_exponent(quotient, p) if quotient else None
    if k is not None and k % 2 == 0:
        m_upper = p ** (k // 2)
        m_upper_formal = str(m_upper)
    elif k is not None:
        m_upper = None
        m_upper_formal = f"{p}^({k}/2)"
    else:
        m_upper = None
        m_upper_formal = f"sqrt({p**n}/{r})"
    verified = r == p**ind
    if not verified:
        notes.append(
            f"rank {r} < p^ind = {p**ind}: raise the degree bound above {bound}"
        )
    return KW1Report(
        algebra_name=alg.name,
        p=p,
        e=spec_field.e,
        dim=n,
        ind=ind,
        degree_bound=bound,
        rank_z_over_zp=r,
        m_upper=m_upper,
        m_upper_formal=m_upper_formal,
        m_lower=m_lower,
        verdict="verified" if verified else "inconclusive",
        seed=seed,
        defining_polynomial=(
            "t" if spec_field.e == 1 else render_poly_modp(spec_field.modulus)
        ),
        stabilized=cb.stabilized,
        index_trials=INDEX_TRIALS,
        notes=tuple(notes),
    )
