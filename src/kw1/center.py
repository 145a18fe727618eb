"""The p-center, degree-bounded centers, ranks, and the KW1 verdict.

The enveloping algebra of a restricted Lie algebra is a free module of
rank p^n over the central subalgebra generated by xi_i = x_i^p - x_i^[p];
``zp_coordinates`` computes coordinates in that module by repeatedly
left-factoring p-th powers out of PBW monomials.  Ranks of submodules
over the fraction field of the p-center are obtained by specializing
the formal xi variables at random points of a large enough extension
(three tries, maximum rank), so every reported rank is an attained
lower bound that equals the true rank with Schwartz-Zippel confidence.
The coordinate terms are gathered once per rank into index arrays (row,
column, xi-monomial, coefficient); at each point every distinct
xi-monomial is evaluated once, as an F_p coefficient vector, and the
terms are scatter-added into a (rows, cols, e) array that is ranked by
the blocked F_p kernel of ``linalg``.

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
term of a column already built, not a full product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dfield

import numpy as np

from . import linalg
from .errors import (
    CentralityFailure,
    DegreeBoundTooLargeForMemory,
    SelfCheckFailure,
    StabilizationNotReached,
    WeightMismatch,
    ZeroElement,
)
from .fields import GF, galois_field, prime_field, reduce_sparse, render_poly_modp
from .liealg import ModularLieAlgebra, index_generic
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
# bytes of the dense commutator matrix plus the copy its nullspace reduces
MATRIX_BYTES_CAP = 1 << 30
RANK_TRIALS = 3
PRODUCT_ROUNDS = 3


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


def zp_coordinates(a: UEElement, alg: ModularLieAlgebra) -> ZpCoordinateVector:
    """Eliminate every exponent >= p by the rewrite x_i^p = xi_i + x_i^[p].

    The substitution always targets the leftmost block of p letters of
    the offending variable; since xi_i is central it factors out, and
    the p-map remainder is restraightened with the PBW engine.  Each
    substitution strictly drops the total degree, so this terminates.
    """
    if alg.restricted is None:
        raise ValueError("algebra carries no restricted structure")
    n = alg.n
    p = alg.p
    zero_xi = (0,) * n
    work = [(zero_xi, mono, c) for mono, c in a.terms.items()]
    out: dict = {}
    while work:
        xi_exps, mono, coeff = work.pop()
        hot = next((i for i in range(n) if mono[i] >= p), None)
        if hot is None:
            bucket = out.setdefault(mono, {})
            bucket[xi_exps] = bucket.get(xi_exps, 0) + coeff
            continue
        # split x^mono = prefix . x_hot^p . remainder
        prefix = tuple(mono[k] if k < hot else 0 for k in range(n))
        remainder = tuple(
            mono[k] - (p if k == hot else 0) if k >= hot else 0 for k in range(n)
        )
        # central substitution term: xi_hot pulled out front
        new_xi = tuple(x + (1 if k == hot else 0) for k, x in enumerate(xi_exps))
        reduced = tuple(x - (p if k == hot else 0) for k, x in enumerate(mono))
        work.append((new_xi, reduced, coeff))
        # p-map remainder term: prefix * x_l * remainder, restraightened
        for l, cl in enumerate(alg.restricted.vector(hot)):
            if not cl:
                continue
            for m1, c1 in _mono_times_letter(alg, prefix, l).items():
                c = coeff * cl * c1
                for m2, c2 in _mono_times_mono(alg, m1, remainder).items():
                    work.append((xi_exps, m2, c * c2 % p))
    coords = {}
    for mono, bucket in out.items():
        terms = reduce_sparse(bucket, p)
        if terms:
            coords[mono] = SymPoly._reduced(alg.field, n, terms)
    return ZpCoordinateVector(alg, coords)


# ---------------------------------------------------------------------------
# degree-bounded center
# ---------------------------------------------------------------------------

@dataclass
class CenterBasis:
    """Canonical basis of the degree <= D slice of the center.

    ``rank`` is the witnessed rank of the slice over the p-center and
    ``spec_field`` the field it was specialized over.
    """

    degree_bound: int
    elements: tuple
    stabilized: bool
    rank: int
    spec_field: GF
    _rank_cache: dict = dfield(default_factory=dict, repr=False, compare=False)


def _check_matrix_budget(n: int, count: int):
    """Refuse a dense (n count) x count int64 matrix plus its RREF copy over the cap."""
    nbytes = 2 * 8 * n * count * count
    if nbytes > MATRIX_BYTES_CAP:
        raise DegreeBoundTooLargeForMemory(
            nbytes, MATRIX_BYTES_CAP, unit="bytes of commutator matrix"
        )


def _commutator_matrix(alg: ModularLieAlgebra, monos, index) -> np.ndarray:
    """Stacked maps [x_i, -] on the span of ``monos``, all degrees <= some D.

    Row i * count + index[m'] of column index[m] is the coefficient of x^m'
    in [x_i, x^m].  Columns are built in increasing degree by the
    derivation rule: with x^m = x^b x_j, j the last letter of m,
    [x_i, x^m] = [x_i, x^b] x_j + x^b [x_i, x_j], both read off the column
    of b through ``_mono_times_letter``.  Only the previous degree's
    brackets are kept.
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
    mat = np.zeros((n * count, count), dtype=np.int64)
    mat[rows, cols] = vals
    return mat


def _center_space(alg: ModularLieAlgebra, bound: int, cap: int = MONOMIAL_CAP):
    """Exact nullspace of the stacked commutator maps on degree <= bound."""
    n = alg.n
    count = monomial_count(n, bound)
    if count > cap:
        raise DegreeBoundTooLargeForMemory(count, cap)
    _check_matrix_budget(n, count)
    monos = sorted(monomials_upto(n, bound), key=deglex_key, reverse=True)
    index = {m: k for k, m in enumerate(monos)}
    p = alg.p
    basis = linalg.nullspace_modp(_commutator_matrix(alg, monos, index), p)
    if basis.shape[0] == 0:
        return []
    # canonicalize: reduced echelon form with leading monomials as pivots
    reduced, _ = linalg.rref_modp(basis, p)
    elements = []
    for row in reduced:
        terms = {monos[k]: int(row[k]) for k in np.flatnonzero(row)}
        if terms:
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
    The rank at D is specialized over a field of degree at least
    ``min_extension``; the rank at D-1 over the smallest sufficient one.
    ``stabilized`` is true when the two ranks agree, the working signal
    that no new central directions appear at the top degree.
    """
    if bound < 1:
        raise ValueError("degree bound must be >= 1")
    elements = _center_space(alg, bound)
    prev_elements = [el for el in elements if el.degree <= bound - 1]
    r_here, field = _rank_of_elements(alg, elements, seed, min_extension)
    r_prev = _rank_of_elements(alg, prev_elements, seed)[0]
    cb = CenterBasis(
        degree_bound=bound,
        elements=tuple(elements),
        stabilized=(r_here == r_prev),
        rank=r_here,
        spec_field=field,
    )
    cb._rank_cache[seed] = r_here
    return cb


# ---------------------------------------------------------------------------
# ranks over the p-center
# ---------------------------------------------------------------------------

def _specialization_field(alg, deg_bound, seed, min_ext=1):
    e = max(sz_extension_degree(alg.p, alg.n, deg_bound), min_ext)
    field = galois_field(alg.p, e, seed=derive_seed("spec-field", alg.p, e, seed))
    return field


class _CoordinateTerms:
    """Every term of a list of coordinate maps, gathered once into index arrays.

    Row r of the matrix is ``maps[r]``, column c the reduced monomial
    ``columns[c]``, and the entry the polynomial ``maps[r][columns[c]]``.
    Term t adds ``coef[t] * xi^exponents[mono[t]]`` to entry
    (row[t], col[t]), so a specialization evaluates each distinct
    xi-monomial once and scatters the products.
    """

    def __init__(self, maps, num_vars: int):
        self.columns = sorted({m for c in maps for m in c}, key=deglex_key)
        col_index = {m: k for k, m in enumerate(self.columns)}
        mono_ids: dict = {}
        row, col, mono, coef = [], [], [], []
        for r, coords in enumerate(maps):
            for m, poly in coords.items():
                c = col_index[m]
                for xi, a in poly.terms.items():
                    row.append(r)
                    col.append(c)
                    mono.append(mono_ids.setdefault(xi, len(mono_ids)))
                    coef.append(a)
        self.shape = (len(maps), len(self.columns))
        self.exponents = np.array(list(mono_ids), dtype=np.int64).reshape(len(mono_ids), num_vars)
        self.row = np.array(row, dtype=np.intp)
        self.col = np.array(col, dtype=np.intp)
        self.mono = np.array(mono, dtype=np.intp)
        self.coef = np.array(coef, dtype=np.int64)

    @property
    def max_degree(self) -> int:
        """Largest total xi-degree of a term; 0 without terms."""
        return int(self.exponents.sum(axis=1).max(initial=0))

    def values(self, point, field: GF) -> np.ndarray:
        """(rows, cols, e) coefficient array of the matrix at ``point``.

        ``point`` holds one ``FFElem`` of ``field`` per xi variable.  int64:
        each term is reduced below p before the scatter-add, so an entry
        hit by T terms stays below T p.  T is at most the number of
        gathered terms; inside ``linalg.require_exact_prime``, 2^63 / p
        is over 3 * 10^9 terms, some 100 GB of index arrays.
        """
        p, e = field.p, field.e
        at = np.array([x.coeffs for x in point], dtype=np.int64).reshape(len(point), e)
        # powers[a, i] = point[i]^a, then each monomial as a product of powers
        powers = np.zeros((int(self.exponents.max(initial=0)) + 1,) + at.shape, dtype=np.int64)
        powers[0, :, 0] = 1
        for a in range(1, len(powers)):
            powers[a] = _field_mul(powers[a - 1], at, field)
        vals = np.zeros((len(self.exponents), e), dtype=np.int64)
        vals[:, 0] = 1
        for i in range(at.shape[0]):
            vals = _field_mul(vals, powers[self.exponents[:, i], i], field)
        out = np.zeros(self.shape + (e,), dtype=np.int64)
        np.add.at(out, (self.row, self.col), vals[self.mono] * self.coef[:, None] % p)
        return out % p

    def rank(self, point, field: GF) -> int:
        return linalg.rank_coefficient_array(self.values(point, field), field)


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


def _rows_rank(alg, vectors, seed, min_ext=1):
    """Max specialized rank of zp coordinate rows over three random points."""
    live = [v.coordinates for v in vectors if v.coordinates]
    if not live:
        return 0, prime_field(alg.p)
    terms = _CoordinateTerms(live, alg.n)
    field = _specialization_field(alg, terms.max_degree, seed, min_ext)
    rng = random.Random(derive_seed("specialize", alg.signature(), seed))
    best = 0
    for _ in range(RANK_TRIALS):
        point = [field.random_nonzero(rng) for _ in range(alg.n)]
        best = max(best, terms.rank(point, field))
        if best == min(terms.shape):
            break
    return best, field


def _new_products(frontier, gens, seen, commuting_square=False):
    """Nonzero products a * b, a in ``frontier``, b in ``gens``, not in ``seen``.

    Each new product's key is added to ``seen``.  With ``commuting_square``
    the frontier is ``gens`` itself and its elements commute, so
    b * a = a * b: only pairs with b at or after a are formed, which yields
    the same list in the same order as the full double loop.
    """
    new_items = []
    for k, a in enumerate(frontier):
        for b in gens[k:] if commuting_square else gens:
            prod = a * b
            key = frozenset(prod.terms.items())
            if key in seen or prod.is_zero():
                continue
            seen.add(key)
            new_items.append(prod)
    return new_items


def _rank_of_elements(alg, elements, seed, min_ext=1):
    """Stabilized rank of the p-center subalgebra generated by ``elements``.

    Closes under products of at most two factors per round, at most
    PRODUCT_ROUNDS rounds, stopping as soon as the specialized rank
    stops growing.  The elements are central, so round one forms each
    unordered pair once.  Returns (rank, specialization field).
    """
    one = ue_one(alg)
    pool = [one] + [el for el in elements if not el.is_zero()]
    seen = {frozenset(el.terms.items()) for el in pool}
    vectors = [zp_coordinates(el, alg) for el in pool]
    r, field = _rows_rank(alg, vectors, seed, min_ext)
    gens = pool[1:]
    frontier = gens
    for rnd in range(PRODUCT_ROUNDS):
        new_items = _new_products(frontier, gens, seen, commuting_square=(rnd == 0))
        if not new_items:
            break
        vectors.extend(zp_coordinates(el, alg) for el in new_items)
        r2, field = _rows_rank(alg, vectors, seed, min_ext)
        frontier = new_items
        if r2 == r:
            break
        r = r2
    return r, field


def rank_over_p_center(cb: CenterBasis, alg: ModularLieAlgebra, seed: int = 0) -> int:
    """Witnessed rank of the center over the p-center in degree <= D.

    A lower bound for the true fraction-field degree; exact with
    Schwartz-Zippel confidence once the degree bound has stabilized.
    """
    if seed in cb._rank_cache:
        return cb._rank_cache[seed]
    r = _rank_of_elements(alg, list(cb.elements), seed)[0]
    cb._rank_cache[seed] = r
    return r


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
    vectors = []
    psi_pow = [ue_one(alg)]
    for _ in range(exponent):
        psi_pow.append(psi_pow[-1] * psi)
    phi_pow = ue_one(alg)
    for d in range(power_bound + 1):
        v = phi_pow * psi_pow[exponent - d]
        vectors.append(zp_coordinates(v, alg))
        if d >= 1:
            r, _ = _rows_rank(alg, vectors, seed)
            if r < len(vectors):
                return d
        phi_pow = phi_pow * phi
    return power_bound + 1


# ---------------------------------------------------------------------------
# commutative Frobenius-subring rank checker
# ---------------------------------------------------------------------------

def _frobenius_coordinates(f: SymPoly, p: int):
    """Coordinates of f in the free module over p-th powers.

    Each exponent splits as a = p q + r with r < p; the x^r part
    indexes the coordinate and the q part lives in the polynomial ring
    of p-th powers.
    """
    coords: dict = {}
    for exps, c in f.terms.items():
        r = tuple(a % p for a in exps)
        q = tuple(a // p for a in exps)
        bucket = coords.setdefault(r, {})
        bucket[q] = bucket.get(q, 0) + c
    modulus = f.field.residue_modulus
    out = {}
    for r, bucket in coords.items():
        terms = reduce_sparse(bucket, modulus)
        if terms:
            out[r] = SymPoly._reduced(f.field, f.n, terms)
    return out


def rank_over_frobenius_subring(
    num_vars: int,
    b_generators,
    p: int,
    stabilization_bound: int = 4,
    seed: int = 0,
) -> int:
    """Rank of the polynomial ring A over B . A^p, by specialization.

    ``b_generators`` are polynomials generating B inside
    A = F_p[x_1..x_n].  The rank of the A^p-subalgebra generated by B
    is computed in the free A^p-module basis of reduced monomials by
    the same specialize-and-rank routine used for enveloping algebras;
    the answer is p^n divided by that rank.
    """
    linalg.require_exact_prime(p)
    field = prime_field(p)
    gens = []
    for g in b_generators:
        if isinstance(g, SymPoly):
            gens.append(g)
        else:
            gens.append(SymPoly(field, num_vars, g))
    one = SymPoly.one(field, num_vars)
    pool = [one] + [g for g in gens if not g.is_zero()]
    seen = {frozenset(g.terms.items()) for g in pool}

    def rows_rank(items, rnd_seed):
        terms = _CoordinateTerms([_frobenius_coordinates(f, p) for f in items], num_vars)
        if not terms.columns:
            return 0
        e = sz_extension_degree(p, num_vars, max(1, terms.max_degree))
        ext = galois_field(p, e, seed=derive_seed("frob-field", p, e, rnd_seed))
        rng = random.Random(derive_seed("frob-points", p, num_vars, rnd_seed))
        best = 0
        for _ in range(RANK_TRIALS):
            point = [ext.random_nonzero(rng) for _ in range(num_vars)]
            best = max(best, terms.rank(point, ext))
        return best

    r = rows_rank(pool, seed)
    frontier = pool[1:]
    stabilized = not frontier
    for _ in range(stabilization_bound):
        new_items = []
        for a in frontier:
            for b in pool[1:]:
                prod = a * b
                key = frozenset(prod.terms.items())
                if key in seen or prod.is_zero():
                    continue
                seen.add(key)
                new_items.append(prod)
        if not new_items:
            stabilized = True
            break
        candidates = pool + new_items
        r2 = rows_rank(candidates, seed)
        pool = candidates
        frontier = new_items
        if r2 == r:
            stabilized = True
            break
        r = r2
    if not stabilized:
        raise StabilizationNotReached(stabilization_bound)
    total = p**num_vars
    if total % r != 0:
        raise StabilizationNotReached(stabilization_bound)
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
    with_oracle: bool = False,
    samples: int = 10,
    index_trials: int = 3,
    dim_cap: int = 625,
    min_extension: int = 1,
) -> KW1Report:
    """Assemble the index, center rank, and bound comparison.

    verified   : rank equals p^ind, so both bounds coincide and the
                 largest irreducible dimension is pinned exactly;
    inconclusive: the witnessed rank is below p^ind, meaning the center
                 was not fully seen up to the degree bound.
    """
    if alg.restricted is None:
        raise ValueError("algebra carries no restricted structure")
    n = alg.n
    p = alg.p
    bound = degree_bound if degree_bound is not None else default_degree_bound(alg)
    ind = index_generic(alg, trials=index_trials, seed=seed)
    cb = center_basis_bounded(alg, bound, seed=seed, min_extension=min_extension)
    r, spec_field = cb.rank, cb.spec_field
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
    report = KW1Report(
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
        index_trials=index_trials,
        notes=tuple(notes),
    )
    if with_oracle:
        from .redenv import max_irreducible_dim

        est = max_irreducible_dim(alg, samples=samples, seed=seed, dim_cap=dim_cap)
        report.oracle_estimate = est.as_dict()
    return report
