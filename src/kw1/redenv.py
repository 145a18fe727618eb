"""Independent oracle for the largest irreducible-module dimension.

Reduced enveloping algebras u_chi(g) have dimension p^n, with basis the
reduced PBW monomials; multiplication straightens and then rewrites
x_i^p as x_i^[p] + chi_i^p.  Splitting the left regular representation
into composition factors bounds the largest simple dimension from
below, and for generic chi attains it.

The splitter is a MeatAxe: pick a random algebra element, factor the
minimal polynomial of a random vector under it, spin kernel vectors of
an irreducible factor, and use the Norton dual test with a good factor
(nullity equal to the factor degree) to certify irreducibility.  A
certified factor can still be reducible after extending scalars; the
endomorphism field degree s is detected from good-factor degrees (with
a Burnside spin of the matrix algebra as the exact fallback).  An
irreducible F_q-module with End = F_{q^s} becomes s Galois twists of
one absolutely irreducible module of dimension d/s over F_{q^s}
(Curtis-Reiner, section 29), so the factor is recorded as s such pieces
without leaving F_q.  Odd s do occur (Artin-Schreier weight
polynomials), so s is taken from the module, never assumed to be 2.

The splitter does not repeat work.  One ``split_simples`` call uses one
matrix backend for all its pieces, and ``max_irreducible_dim`` one per
sampling field.  The prime-field backend factors each distinct minimal
polynomial once and keeps the factors as long as the backend lives;
there is no module-level cache.  Every RNG draw stays where it was,
since the factors of a polynomial do not depend on the factoring RNG.
A spin returns as soon as its span is the whole space, where no further
vector could be accepted.  Restriction and quotient are one matrix
product per generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import gcd

from .center import zp_coordinates
from .errors import CoefficientFieldMismatch, DimensionCap, SelfCheckFailure, SplitBudgetExceeded
from .fields import GF, galois_field, prime_field
from .liealg import ModularLieAlgebra, index_generic
from .matops import ops_for
from .pbw import UEElement, _mono_times_mono
from .util import deglex_key, derive_seed

MAX_SPLIT_TRIES = 40
BURNSIDE_DIM_CAP = 96
ENDO_PROBE_TRIES = 6
KERNEL_SPIN_CAP = 4


@dataclass(frozen=True)
class Character:
    """A linear functional on the basis, with values in F_{p^e}."""

    chi: tuple

    def render(self):
        return tuple(c.render() for c in self.chi)


class ReducedEnvelopingAlgebra:
    """u_chi(g): the p^n-dimensional quotient of U(g) at the character chi."""

    def __init__(self, alg: ModularLieAlgebra, chi: Character, dim_cap: int = 625):
        if alg.restricted is None:
            raise ValueError("algebra carries no restricted structure")
        self.alg = alg
        self.chi = chi
        self.field = chi.chi[0].field if chi.chi else prime_field(alg.p)
        self.dimension = alg.p**alg.n
        if self.dimension > dim_cap:
            raise DimensionCap(self.dimension, dim_cap)
        self.monomials = sorted(
            product(range(alg.p), repeat=alg.n), key=deglex_key
        )
        self.index = {m: i for i, m in enumerate(self.monomials)}
        # xi_i specializes to chi_i^p: an FFElem over F_{p^e}, e > 1, and
        # an int residue over F_p, where the coordinates are evaluated in ints
        if self.field.e > 1:
            self._xi_point = tuple(c**alg.p for c in chi.chi)
        else:
            self._xi_point = tuple(pow(self.field.scalar(c), alg.p, alg.p) for c in chi.chi)
        self._memo = {}

    def _symbolic_left_action(self, i, mono):
        """chi-independent coordinates of x_i . x^mono, cached on the algebra."""
        cache = self.alg._pbw_memo.setdefault("redenv-left", {})
        key = (i, mono)
        hit = cache.get(key)
        if hit is None:
            gen_mono = tuple(1 if k == i else 0 for k in range(self.alg.n))
            elem = UEElement._reduced(self.alg, _mono_times_mono(self.alg, gen_mono, mono))
            hit = zp_coordinates(elem, self.alg).coordinates
            cache[key] = hit
        return hit

    def _at_chi(self, coords):
        """Specialize zp coordinates at chi; drops the coordinates that vanish."""
        out = {}
        for m, poly in coords.items():
            val = poly.evaluate(self._xi_point)
            if val:
                out[m] = val
        return out

    def left_action_column(self, i, mono):
        """Coordinates of x_i . x^mono in the reduced basis at this chi."""
        return self._at_chi(self._symbolic_left_action(i, mono))

    def multiply(self, m1, m2):
        """Product of basis monomials as a sparse map, straighten then reduce."""
        key = (m1, m2)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        elem = UEElement._reduced(self.alg, _mono_times_mono(self.alg, m1, m2))
        out = self._at_chi(zp_coordinates(elem, self.alg).coordinates)
        self._memo[key] = out
        return out


def reduced_algebra(alg: ModularLieAlgebra, chi: Character, dim_cap: int = 625):
    return ReducedEnvelopingAlgebra(alg, chi, dim_cap=dim_cap)


@dataclass
class AlgebraModule:
    """A module given by one action matrix per algebra generator."""

    dimension: int
    field: GF
    mats: list


def regular_representation(u: ReducedEnvelopingAlgebra) -> AlgebraModule:
    """Left regular action of the generators on the reduced monomial basis."""
    import numpy as np

    d = u.dimension
    mats = []
    prime = u.field.e == 1
    for i in range(u.alg.n):
        if prime:
            mat = np.zeros((d, d), dtype=np.int64)
            for col, mono in enumerate(u.monomials):
                for m2, c in u.left_action_column(i, mono).items():
                    mat[u.index[m2], col] = int(c)
            mats.append(mat)
        else:
            rows = [[u.field.zero] * d for _ in range(d)]
            for col, mono in enumerate(u.monomials):
                for m2, c in u.left_action_column(i, mono).items():
                    rows[u.index[m2]][col] = c
            mats.append(rows)
    return AlgebraModule(dimension=d, field=u.field, mats=mats)


# ---------------------------------------------------------------------------
# MeatAxe
# ---------------------------------------------------------------------------

@dataclass
class SplitReport:
    """Composition factor data from one module split."""

    dims: tuple
    factors: tuple  # (dimension, order of the factor's splitting field) pairs
    degraded: bool


def _random_algebra_element(ops, mats, d, rng):
    """Random element of the unital algebra generated by the action."""
    r = ops.scale(ops.identity(d), ops.random_scalar(rng))
    for a in mats:
        r = ops.add(r, ops.scale(a, ops.random_scalar(rng)))
    if len(mats) >= 2 and rng.random() < 0.5:
        i = rng.randrange(len(mats))
        j = rng.randrange(len(mats))
        r = ops.add(r, ops.scale(ops.matmul(mats[i], mats[j]), ops.random_scalar(rng)))
    return r


def _spin(ops, start_vectors, mats, width):
    """Smallest subspace containing the starts and stable under all mats.

    Depth first from the last accepted vector; returns as soon as the
    span is the whole space, since no later vector could be accepted.
    """
    state = ops.new_echelon(width)
    queue = []
    for v in start_vectors:
        if state.insert(v) is not None:
            queue.append(v)
    while queue and state.dim < width:
        v = queue.pop()
        for a in mats:
            w = ops.matvec(a, v)
            if state.insert(w) is not None:
                if state.dim == width:
                    return state
                queue.append(w)
    return state


def _restrict(ops, mats, state):
    """Action matrices on the submodule, in the echelon basis of ``state``.

    A sends basis row w_j into the span, and in full RREF the coordinate
    of a span vector on w_i is its entry at pivot i, so the matrix is
    A[pivots] . W^T for the basis matrix W.
    """
    basis_t = ops.transpose(state.rows)
    return [ops.matmul(ops.submatrix(a, state.pivots), basis_t) for a in mats]


def _quotient(ops, mats, state, d):
    """Action matrices on the quotient by the submodule of ``state``.

    The quotient has the non-pivot coordinates C as its basis.  Column c
    of A, reduced by the echelon, is A[:, c] - W^T . A[pivots, c], so the
    matrix is A[C, C] - W[:, C]^T . A[pivots, C].
    """
    pivset = set(state.pivots)
    comp = [c for c in range(d) if c not in pivset]
    lift = ops.transpose(ops.submatrix(state.rows, range(state.dim), comp))
    return [
        ops.add(
            ops.submatrix(a, comp, comp),
            ops.scale(ops.matmul(lift, ops.submatrix(a, state.pivots, comp)), -1),
        )
        for a in mats
    ]


def _probe(ops, mats, d, rng):
    """One random draw: (r, the factors of v's minimal polynomial under r).

    r is a random algebra element and v a random vector.  None when v is
    zero or its minimal polynomial is constant.  The factoring RNG is
    drawn from ``rng`` after the Krylov step.
    """
    r = _random_algebra_element(ops, mats, d, rng)
    v = ops.random_vector(d, rng)
    if ops.vec_is_zero(v):
        return None
    minpoly = ops.krylov_minpoly(r, v)
    if len(minpoly) <= 1:
        return None
    return r, ops.iter_factors(minpoly, random.Random(rng.randrange(2**62)))


def _norton_attempt(ops, mats, d, rng):
    """One random-element attempt.

    Returns ("split", echelon state of a proper submodule), or
    ("irreducible", degree of the certifying good factor), or None when
    this element was inconclusive.
    """
    probe = _probe(ops, mats, d, rng)
    if probe is None:
        return None
    r, factors = probe
    for f in factors:
        deg = len(f) - 1
        n_mat = ops.poly_eval(f, r)
        kernel = ops.nullspace(n_mat)
        if not kernel:
            continue
        good = len(kernel) == deg
        # the kernel of a good factor is one F[r]/(f)-line: every kernel
        # vector spins to the same module as the first
        for kv in kernel[: 1 if good else KERNEL_SPIN_CAP]:
            spun = _spin(ops, [kv], mats, d)
            if spun.dim < d:
                return ("split", spun)
        if good:
            # good factor: a single dual spin decides irreducibility
            mats_t = [ops.transpose(a) for a in mats]
            nt = ops.transpose(n_mat)
            dual_kernel = ops.nullspace(nt)
            dual_spun = _spin(ops, [dual_kernel[0]], mats_t, d)
            if dual_spun.dim < d:
                perp_rows = ops.nullspace(ops.stack(dual_spun.rows))
                perp = ops.new_echelon(d)
                for w in perp_rows:
                    perp.insert(w)
                return ("split", perp)
            return ("irreducible", deg)
    return None


def _flatten(ops, m, d):
    if isinstance(m, list):
        return [x for row in m for x in row]
    return m.reshape(d * d)


def _endomorphism_degree(ops, mats, d, rng, first_bound):
    """Endomorphism field degree of a certified irreducible module.

    Every good factor degree is a multiple of s, so gcds of a few
    probes usually pin s = 1 immediately; otherwise a Burnside spin of
    the generated matrix algebra gives s exactly, since that algebra
    has dimension d^2 / s.  Returns None when the module is too large
    for the fallback.
    """
    bound = gcd(d, first_bound)
    tries = 0
    while bound > 1 and tries < ENDO_PROBE_TRIES:
        tries += 1
        probe = _probe(ops, mats, d, rng)
        if probe is None:
            continue
        r, factors = probe
        for f in factors:
            deg = len(f) - 1
            n_mat = ops.poly_eval(f, r)
            if ops.nullity(n_mat) == deg:
                bound = gcd(bound, deg)
                if bound == 1:
                    return 1
    if bound == 1:
        return 1
    if d > BURNSIDE_DIM_CAP:
        return None
    alg_dim = _algebra_dimension(ops, mats, d)
    if (d * d) % alg_dim:
        raise SelfCheckFailure(
            f"matrix algebra of dimension {alg_dim} on an irreducible module of "
            f"dimension {d}: Burnside needs a divisor of {d * d}"
        )
    return (d * d) // alg_dim


def _algebra_dimension(ops, mats, d):
    """Dimension of the unital matrix algebra generated by ``mats``.

    A spin like ``_spin``, of the identity under left multiplication, and
    like it done once the span is all d x d matrices.
    """
    state = ops.new_echelon(d * d)
    queue = []
    ident = ops.identity(d)
    if state.insert(_flatten(ops, ident, d)) is not None:
        queue.append(ident)
    while queue and state.dim < d * d:
        m = queue.pop()
        for a in mats:
            prod = ops.matmul(a, m)
            if state.insert(_flatten(ops, prod, d)) is not None:
                if state.dim == d * d:
                    return state.dim
                queue.append(prod)
    return state.dim


def split_simples(module: AlgebraModule, seed: int = 0, ops=None) -> SplitReport:
    """Composition factor dimensions over the splitting field of each factor.

    Splitting stays on the module's own field F_q.  A factor that is
    irreducible there with endomorphism field F_{q^s} contributes s
    pieces of dimension d / s, recorded with field order q^s; s is exact
    whenever it is known.  ``degraded`` is set when some factor is too
    large for the Burnside count (``BURNSIDE_DIM_CAP``) while its
    good-factor degrees leave s open, so it contributes its F_q
    dimension, only an upper bound on the honest one.

    ``ops`` is the matrix backend for ``module.field``; every piece of the
    split lives on that field, so one backend, with its factor memo,
    serves the whole call.  Built here when not given.
    """
    if ops is None:
        ops = ops_for(module.field)
    elif ops.field != module.field:
        raise CoefficientFieldMismatch(f"backend over {ops.field!r} for a module over {module.field!r}")
    rng = random.Random(derive_seed("meataxe", seed))
    dims = []
    factors = []
    degraded = False
    stack = [module]
    while stack:
        mod = stack.pop()
        d = mod.dimension
        if d == 0:
            continue
        if d == 1:
            dims.append(1)
            factors.append((1, mod.field.order))
            continue
        outcome = None
        for _ in range(MAX_SPLIT_TRIES):
            outcome = _norton_attempt(ops, mod.mats, d, rng)
            if outcome is not None:
                break
        if outcome is None:
            raise SplitBudgetExceeded(
                f"no decision for a {d}-dimensional module after {MAX_SPLIT_TRIES} tries"
            )
        kind, payload = outcome
        if kind == "split":
            state = payload
            sub = AlgebraModule(
                dimension=state.dim, field=mod.field, mats=_restrict(ops, mod.mats, state)
            )
            quo = AlgebraModule(
                dimension=d - state.dim,
                field=mod.field,
                mats=_quotient(ops, mod.mats, state, d),
            )
            stack.append(sub)
            stack.append(quo)
            continue
        # certified irreducible over mod.field; decide absolute irreducibility
        s = _endomorphism_degree(ops, mod.mats, d, rng, payload)
        if s is None:
            degraded = True
            s = 1
        for _ in range(s):
            dims.append(d // s)
            factors.append((d // s, mod.field.order**s))
    return SplitReport(dims=tuple(sorted(dims)), factors=tuple(factors), degraded=degraded)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleEstimate:
    """Best composition-factor dimension over sampled characters."""

    m_est: int
    witness: tuple
    samples: int
    seed: int
    escalated_sampling: bool
    degraded: bool

    def as_dict(self):
        return {
            "M": self.m_est,
            "witnessChi": list(self.witness),
            "samples": self.samples,
            "seed": self.seed,
            "escalatedSampling": self.escalated_sampling,
            "degraded": self.degraded,
        }


def _characters(alg, field, samples, rng):
    n = alg.n
    chis = [Character(tuple(field.zero for _ in range(n)))]
    for i in range(n):
        chis.append(
            Character(tuple(field.one if k == i else field.zero for k in range(n)))
        )
    for _ in range(samples):
        chis.append(Character(tuple(field.random(rng) for _ in range(n))))
    return chis


def max_irreducible_dim(
    alg: ModularLieAlgebra,
    samples: int = 10,
    seed: int = 0,
    dim_cap: int = 625,
) -> OracleEstimate:
    """Maximum composition-factor dimension over sampled characters.

    Always a lower bound for the largest irreducible dimension; with
    generic sampling it attains it.  Characters are drawn over F_p
    first; when every sample agrees on a value smaller than the
    expected generic dimension p^((n - ind)/2), sampling escalates once
    to F_{p^2} to dodge non-generic rational strata.
    """
    if alg.p**alg.n > dim_cap:
        raise DimensionCap(alg.p**alg.n, dim_cap)
    rng = random.Random(derive_seed("oracle", alg.signature(), seed))
    ind = index_generic(alg, trials=3, seed=seed)
    expected = alg.p ** ((alg.n - ind) // 2)

    def run(field, tag):
        ops = ops_for(field)
        best = 0
        witness = None
        seen = []
        degraded = False
        for chi in _characters(alg, field, samples, rng):
            u = reduced_algebra(alg, chi, dim_cap=dim_cap)
            module = regular_representation(u)
            report = split_simples(module, seed=derive_seed(tag, seed, chi.render()), ops=ops)
            top = max(report.dims)
            degraded = degraded or report.degraded
            seen.append(top)
            if top > best:
                best = top
                witness = chi
        return best, witness, seen, degraded

    fp = prime_field(alg.p)
    best, witness, seen, degraded = run(fp, "chi-run")
    escalated = False
    if len(set(seen)) == 1 and best < expected:
        escalated = True
        ext = galois_field(alg.p, 2, seed=derive_seed("oracle-ext", alg.p, seed))
        best2, witness2, _, degraded2 = run(ext, "chi-run-ext")
        degraded = degraded or degraded2
        if best2 > best:
            best, witness = best2, witness2
    return OracleEstimate(
        m_est=best,
        witness=witness.render() if witness is not None else (),
        samples=samples,
        seed=seed,
        escalated_sampling=escalated,
        degraded=degraded,
    )
