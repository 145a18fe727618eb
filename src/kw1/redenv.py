"""Independent oracle for the largest irreducible-module dimension.

Reduced enveloping algebras u_chi(g) have dimension p^n, with basis the
reduced PBW monomials.  u_chi = U(g) (x)_{Z_p} F is the fibre of U(g)
at the point xi = chi^p of Spec Z_p, so it is the verdict's
specialization at that point: the zp coordinates of each x_i x^m
(straighten, then rewrite x_i^p as xi_i + x_i^[p], ``center._zp_terms``)
are gathered once per algebra as the rows of one ``_CoordinateTerms``,
independent of chi, and one ``values`` call at xi_i = chi_i^p gives
every generator's matrix.  Splitting the
left regular representation into composition factors bounds the
largest simple dimension from below, and for generic chi attains it.

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
When ``MAX_SPLIT_TRIES`` attempts leave a piece within
``BURNSIDE_DIM_CAP`` undecided, as many more draw r from a basis of the
whole matrix algebra, the echelon of the Burnside spin.

The splitter does not repeat work.  One ``split_simples`` call uses one
matrix backend for all its pieces, and ``max_irreducible_dim`` one per
sampling field.  The prime-field backend factors each distinct minimal
polynomial once and keeps the factors as long as the backend lives;
there is no module-level cache.  Every RNG draw stays where it was,
since the factors of a polynomial do not depend on the factoring RNG.
A spin returns as soon as its span is the whole space, where no further
vector could be accepted.  Restriction and quotient are one matrix
product per generator.

A spin stacks its generators once.  The images of each popped vector
under all of them are then one product, reduced by the echelon as one
batch and accepted in generator order, which in full RREF gives the rows,
pivots and queue of one insert per image.  The Burnside count is the
same spin on d x d matrices flattened row by row, where the images of m
are the stacked generators times m.

The oracle reads only the largest factor dimension over all its
characters, the first character reaching it, whether every character
agrees on it, and ``degraded``.  So its splits start from the running
maximum: ``split_simples(..., above=a)`` skips every piece whose
dimension is at most ``BURNSIDE_DIM_CAP`` and at most the larger of a and
the largest factor dimension already found in this split; a piece
skipped as soon as a split produces it never has its action matrices
formed.  This is exact:

- factor dimensions are Jordan-Holder invariants, so a factor of
  dimension t > a lies only in pieces of dimension >= t, and those are
  never skipped: a split reports its exact top whenever that top is
  above a, and a value at most a otherwise;
- the oracle passes a = best, the largest top so far, so M is exact, and
  so is the witness, which changes only on a strict increase;
- escalation needs every per-character top to be equal and best below
  the expected dimension.  While that can still happen the oracle passes
  a = best - 1 instead, which keeps a top equal to best exact while a
  smaller one still reads as different; once escalation is ruled out it
  passes a = best;
- the F_{p^2} run is used only when it beats the F_p best, so it starts
  from that best and may skip everything up to it; its witness is the
  first character to beat it;
- s is exact below the cap, so a skipped piece could never set
  ``degraded``: only an irreducible piece above the cap whose s the good
  factors leave open does, and such a piece is never skipped.

Pieces after a skipped one draw from a later RNG state, so they may split
along other submodules, but their factors, and so the largest one, stay
the same.  The one outcome those draws can move is ``degraded`` for a
piece above the cap whose s is 1 while all ``ENDO_PROBE_TRIES`` probes
leave it open, a seeded chance in the full split as well.
``split_simples`` called without ``above`` still splits every piece.

A split with ``above >= 1`` of a whole module within ``BURNSIDE_DIM_CAP``
reports no factors when all of them are absolutely 1-dimensional: its top
1 is at most ``above``, and no piece is above the cap, so ``degraded`` is
exact.  By Wedderburn, and since End of a simple module over F_q is a
finite field, that holds exactly when A/rad A is commutative for the
algebra A the generators span, that is when the two-sided ideal J
generated by their commutators C is nilpotent.  J^k M is the chain
N_0 = M, N_{k+1} = A C N_k (A C A N = A C N for a submodule N), which
reaches 0 or stops falling.  Pieces are not tested: nearly every 6- and
9-dimensional piece of a generic character fails.  The oracle floors
``above`` at 1 and reads an empty report as a top of 1, exact since a
nonzero module has a factor, so a top equal to a best of 1 reads exactly.

The oracle also splits each distinct sampled character once per
sampling field.  A split depends only on the character: its module is
the regular representation of u_chi and its seed is derived from the
run's tag and the rendered character.  All characters of a run are
drawn before the first split, so skipping repeats moves no RNG draw;
first occurrences keep their order, so the maximum and its witness (the
first character reaching it) stay; and a repeat adds nothing to the set
of per-character tops that decides escalation, nor to the OR of
``degraded``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import gcd

import numpy as np

from .center import INDEX_TRIALS, _CoordinateTerms, _zp_terms
from .errors import CoefficientFieldMismatch, DimensionCap, SelfCheckFailure, SplitBudgetExceeded
from .fields import GF, field_of, galois_field, prime_field
from .liealg import ModularLieAlgebra, index_generic
from .matops import ops_for
from .pbw import _mono_times_mono, render_scalar
from .util import deglex_key, derive_seed

MAX_SPLIT_TRIES = 40
BURNSIDE_DIM_CAP = 96
# largest p^n for which a reduced enveloping algebra is built
DIM_CAP = 625
ENDO_PROBE_TRIES = 6
KERNEL_SPIN_CAP = 4


@dataclass(frozen=True)
class Character:
    """A linear functional on the basis, with values in F_{p^e}: ints when e == 1."""

    chi: tuple

    def render(self):
        return tuple(render_scalar(c) for c in self.chi)


@dataclass
class AlgebraModule:
    """A module given by one action matrix per algebra generator."""

    dimension: int
    field: GF
    mats: list


def _left_action_terms(alg: ModularLieAlgebra) -> _CoordinateTerms:
    """chi-independent zp coordinates of every x_i . x^m, gathered once per algebra.

    m runs over the reduced monomials (every exponent below p) in deglex
    order, the basis of u_chi.  Row i p^n + k is ``_zp_terms`` of the
    straightened x_i . x^m for m the k-th of them, and column k is that
    monomial too, so a specialization needs no reordering.
    """
    terms = alg._pbw_memo.get("redenv-left")
    if terms is None:
        monomials = sorted(product(range(alg.p), repeat=alg.n), key=deglex_key)
        terms = _CoordinateTerms(alg.n, columns=monomials)
        letters = [tuple(int(k == i) for k in range(alg.n)) for i in range(alg.n)]
        terms.extend([
            terms.row(_zp_terms(alg, _mono_times_mono(alg, letter, mono)).items())
            for letter in letters
            for mono in monomials
        ])
        alg._pbw_memo["redenv-left"] = terms
    return terms


def regular_representation(alg: ModularLieAlgebra, chi: Character) -> AlgebraModule:
    """Left regular action of the generators on u_chi(g).

    u_chi is the p^n-dimensional quotient of U(g) at the character chi,
    with basis the reduced monomials in deglex order.  It is the fibre
    U(g) (x)_{Z_p} F at the point xi = chi^p of Spec Z_p, so one
    specialization of the gathered left actions at xi_i = chi_i^p gives
    every generator's matrix: int64 residues over F_p, where the
    Frobenius fixes chi and xi is chi itself, and the rows of the
    extension backend over F_{p^e}, e > 1, built with ``GF.elem``, where
    every zero entry is the field's own ``zero``.  p^n above ``DIM_CAP``
    raises ``DimensionCap``.
    """
    d = alg.p**alg.n
    if d > DIM_CAP:
        raise DimensionCap(d, DIM_CAP)
    field = field_of(chi.chi, alg.p)
    e = field.e
    xi = [c**alg.p for c in chi.chi] if e > 1 else chi.chi
    values = _left_action_terms(alg).values(xi, field)
    # values[i p^n + col, row] is entry (row, col) of x_i's matrix
    blocks = values.reshape(alg.n, d, d, e).transpose(0, 2, 1, 3)
    if e == 1:
        mats = [np.ascontiguousarray(block[..., 0]) for block in blocks]
    else:
        zero = field.zero
        mats = [
            [[field.elem(c) if any(c) else zero for c in row] for row in block.tolist()] for block in blocks
        ]
    return AlgebraModule(dimension=d, field=field, mats=mats)


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
    """Random element c0 I + sum c_a A_a (+ c A_i A_j) of the unital algebra.

    The scalars are drawn in that order, then the element is formed as one
    combination.
    """
    c0 = ops.random_scalar(rng)
    terms = [(ops.random_scalar(rng), a) for a in mats]
    if len(mats) >= 2 and rng.random() < 0.5:
        i = rng.randrange(len(mats))
        j = rng.randrange(len(mats))
        terms.append((ops.random_scalar(rng), ops.matmul(mats[i], mats[j])))
    return ops.combination(c0, terms, d)


def _closure(ops, start_vectors, images, width):
    """Echelon of the smallest span containing the starts and closed under ``images``.

    ``images(v)`` gives the images of v under every generator, as rows.
    Depth first from the last accepted vector, the images of a popped
    vector inserted in generator order as one batch; returns as soon as
    the span is the whole space, since no later vector could be accepted.
    """
    state = ops.new_echelon(width)
    queue = [v for v in start_vectors if state.insert(v) is not None]
    while queue and state.dim < width:
        rows = images(queue.pop())
        queue.extend(rows[j] for j in state.insert_all(rows))
    return state


def _spin(ops, start_vectors, mats, width):
    """Smallest subspace containing the starts and stable under all mats.

    The generators are stacked once, so the images of a popped vector
    are one matrix-vector product.
    """
    stacked = ops.vstack(mats)
    return _closure(ops, start_vectors, lambda v: ops.reshape(ops.matvec(stacked, v), width), width)


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


def _probe(ops, mats, d, rng, basis=None):
    """One random draw: (r, the factors of v's minimal polynomial under r).

    r is a random algebra element, from the generators or, when given,
    a random combination of ``basis``, a basis of the whole matrix
    algebra as flattened d x d matrices; v is a random vector.  None when
    v is zero or its minimal polynomial is constant.  The factoring RNG
    is drawn from ``rng`` after the Krylov step.
    """
    if basis is None:
        r = _random_algebra_element(ops, mats, d, rng)
    else:
        r = ops.combination(ops.field.zero, [(ops.random_scalar(rng), ops.reshape(w, d)) for w in basis], d)
    v = ops.random_vector(d, rng)
    if ops.vec_is_zero(v):
        return None
    minpoly = ops.krylov_minpoly(r, v)
    if len(minpoly) <= 1:
        return None
    return r, ops.iter_factors(minpoly, random.Random(rng.randrange(2**62)))


def _norton_attempt(ops, mats, d, rng, basis=None):
    """One random-element attempt, r drawn as in ``_probe``.

    Returns ("split", echelon state of a proper submodule), or
    ("irreducible", degree of the certifying good factor), or None when
    this element was inconclusive.
    """
    probe = _probe(ops, mats, d, rng, basis)
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
            if len(ops.nullspace(n_mat)) == deg:
                bound = gcd(bound, deg)
                if bound == 1:
                    return 1
    if bound == 1:
        return 1
    if d > BURNSIDE_DIM_CAP:
        return None
    alg_dim = _matrix_algebra(ops, mats, d).dim
    if (d * d) % alg_dim:
        raise SelfCheckFailure(
            f"matrix algebra of dimension {alg_dim} on an irreducible module of "
            f"dimension {d}: Burnside needs a divisor of {d * d}"
        )
    return (d * d) // alg_dim


def _matrix_algebra(ops, mats, d):
    """Echelon of the unital matrix algebra generated by ``mats``.

    The spin of the identity under left multiplication, on d x d
    matrices flattened row by row: the images of m are the stacked
    generators times m, one product.
    """
    stacked = ops.vstack(mats)
    width = d * d
    start = ops.reshape(ops.identity(d), width)[0]
    return _closure(
        ops, [start], lambda w: ops.reshape(ops.matmul(stacked, ops.reshape(w, d)), width), width
    )


def _factors_all_linear(ops, mats, d):
    """Whether every composition factor is absolutely 1-dimensional.

    Whether N_0 = F^d, N_{k+1} = spin(C . N_k) for the commutators C of
    the generators reaches 0 before it stops falling (module docstring).
    It draws no random numbers, so a split it does not end is unchanged.
    """
    pairs = [(a, b) for i, a in enumerate(mats) for b in mats[i + 1 :]]
    comms = [ops.add(ops.matmul(a, b), ops.scale(ops.matmul(b, a), -1)) for a, b in pairs]
    if not comms:
        return True
    stacked = ops.vstack(comms)
    # the images C w of the basis rows w of N_k are the rows of
    # (stacked . W^T)^T cut to width d; W = I for N_0 = F^d
    images, dim = ops.reshape(ops.transpose(stacked), d), d
    while True:
        state = _spin(ops, images, mats, d)
        if state.dim == 0:
            return True
        if state.dim == dim:
            return False
        dim = state.dim
        images = ops.reshape(ops.transpose(ops.matmul(stacked, ops.transpose(state.rows))), d)


def _decide(ops, mats, d, rng):
    """The first decisive Norton attempt on a piece.

    ``MAX_SPLIT_TRIES`` attempts draw r from the generators.  Where these
    all fail and the piece is within ``BURNSIDE_DIM_CAP``, as many more
    draw r from a basis of the whole matrix algebra: the elements built
    from the generators and one product of two can rarely have a good
    factor (an F_2-irreducible piece with End = F_4 is such a case).
    Raises ``SplitBudgetExceeded`` when every attempt is inconclusive.
    """

    def first(basis):
        attempts = (_norton_attempt(ops, mats, d, rng, basis) for _ in range(MAX_SPLIT_TRIES))
        return next(filter(None, attempts), None)

    outcome = first(None)
    tries = MAX_SPLIT_TRIES
    if outcome is None and d <= BURNSIDE_DIM_CAP:
        outcome = first(_matrix_algebra(ops, mats, d).rows)
        tries *= 2
    if outcome is None:
        raise SplitBudgetExceeded(f"no decision for a {d}-dimensional module after {tries} tries")
    return outcome


def split_simples(
    module: AlgebraModule, seed: int = 0, ops=None, *, above: int | None = None
) -> SplitReport:
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

    With ``above`` (the oracle's split), a piece is skipped when its
    dimension is at most both ``BURNSIDE_DIM_CAP`` and the larger of
    ``above`` and the largest factor dimension found so far.  The report
    then lists only the factors found.  Its largest dimension is that of
    the full split when that is above ``above``, and at most ``above``
    otherwise; ``degraded`` is that of the full split (see the module
    docstring).  With ``above >= 1``, a module within the cap whose
    factors are all absolutely 1-dimensional reports none at once: its
    top 1 is at most ``above``.  ``above=None`` splits every piece.
    """
    if ops is None:
        ops = ops_for(module.field)
    elif ops.field != module.field:
        raise CoefficientFieldMismatch(f"backend over {ops.field!r} for a module over {module.field!r}")
    if above is not None and above >= 1 and 1 < module.dimension <= BURNSIDE_DIM_CAP:
        if _factors_all_linear(ops, module.mats, module.dimension):
            return SplitReport((), (), False)
    rng = random.Random(derive_seed("meataxe", seed))
    dims = []
    factors = []
    degraded = False
    top = 0

    def skipped(d):
        return d == 0 or (above is not None and d <= min(max(above, top), BURNSIDE_DIM_CAP))

    stack = [module]
    while stack:
        mod = stack.pop()
        d = mod.dimension
        if skipped(d):
            continue
        if d == 1:
            dims.append(1)
            factors.append((1, mod.field.order))
            top = max(top, 1)
            continue
        kind, payload = _decide(ops, mod.mats, d, rng)
        if kind == "split":
            state = payload
            # top only grows and a skip draws no RNG, so a piece skipped
            # already would be skipped when popped: it is never formed
            if not skipped(state.dim):
                stack.append(
                    AlgebraModule(dimension=state.dim, field=mod.field, mats=_restrict(ops, mod.mats, state))
                )
            if not skipped(d - state.dim):
                stack.append(
                    AlgebraModule(
                        dimension=d - state.dim, field=mod.field, mats=_quotient(ops, mod.mats, state, d)
                    )
                )
            continue
        # certified irreducible over mod.field; decide absolute irreducibility
        s = _endomorphism_degree(ops, mod.mats, d, rng, payload)
        if s is None:
            degraded = True
            s = 1
        for _ in range(s):
            dims.append(d // s)
            factors.append((d // s, mod.field.order**s))
        top = max(top, d // s)
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
) -> OracleEstimate:
    """Maximum composition-factor dimension over sampled characters.

    Always a lower bound for the largest irreducible dimension; with
    generic sampling it attains it.  Characters are drawn over F_p
    first; when every sample agrees on a value smaller than the
    expected generic dimension p^((n - ind)/2), sampling escalates once
    to F_{p^2} to dodge non-generic rational strata.

    Random characters are drawn with replacement, and each distinct one
    is split once per sampling field.  The result is that of splitting
    every sample: a split depends only on the character (its module and
    its seed), every draw is made before the first split, first
    occurrences keep their order, so the witness (the first character
    reaching the maximum) is the same, and a repeat changes neither the
    set of values that decides escalation nor ``degraded``.

    Each split skips the pieces that cannot raise the running maximum
    ``best`` (see the module docstring): it is given ``above=best``, so a
    top above ``best`` is exact and M and its witness are too.  While
    every top so far is equal and below the expected dimension, the split
    is given ``above=best - 1``, so a top equal to ``best`` still reads
    exactly and a smaller one reads as different: the escalation decision
    is that of the full splits.  The F_{p^2} run starts from the F_p
    best, since only a character beating it is used.  ``above`` is at
    least 1 and an empty report reads as a top of 1, exact since every
    module split here is nonzero: the first character sets the witness.
    """
    if alg.p**alg.n > DIM_CAP:
        raise DimensionCap(alg.p**alg.n, DIM_CAP)
    rng = random.Random(derive_seed("oracle", alg.signature(), seed))
    ind = index_generic(alg, trials=INDEX_TRIALS, seed=seed)
    expected = alg.p ** ((alg.n - ind) // 2)

    def run(field, tag, best, may_escalate):
        ops = ops_for(field)
        witness = None
        tops = set()
        degraded = False
        # a repeat would split the same module with the same seed again
        for chi in dict.fromkeys(_characters(alg, field, samples, rng)):
            module = regular_representation(alg, chi)
            # while escalation is open, a top equal to best must read exactly
            escalation_open = may_escalate and len(tops) <= 1 and best < expected
            report = split_simples(
                module,
                seed=derive_seed(tag, seed, chi.render()),
                ops=ops,
                above=max(best - 1 if escalation_open else best, 1),
            )
            # a nonzero module has a factor, so an empty report means a top of 1
            top = max(max(report.dims, default=0), 1)
            degraded = degraded or report.degraded
            tops.add(top)
            if top > best:
                best = top
                witness = chi
        return best, witness, tops, degraded

    fp = prime_field(alg.p)
    best, witness, tops, degraded = run(fp, "chi-run", 0, True)
    escalated = False
    if len(tops) == 1 and best < expected:
        escalated = True
        ext = galois_field(alg.p, 2, seed=derive_seed("oracle-ext", alg.p, seed))
        # only a character beating the F_p best is used, so start from it
        best2, witness2, _, degraded2 = run(ext, "chi-run-ext", best, False)
        degraded = degraded or degraded2
        if witness2 is not None:
            best, witness = best2, witness2
    return OracleEstimate(
        m_est=best,
        witness=witness.render() if witness is not None else (),
        samples=samples,
        seed=seed,
        escalated_sampling=escalated,
        degraded=degraded,
    )
