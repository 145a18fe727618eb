"""Lie algebra presentations, reduction mod p, p-maps, and the index.

A presentation is a basis together with sparse antisymmetric structure
constants over exact rationals; only brackets [x_i, x_j] with i < j are
stored.  Reduction mod p produces a modular algebra over F_p, on which
a restricted p-power map is computed by solving ad(y) = (ad x_i)^p for
each basis element; the ad matrices are int64 arrays mod p, multiplied
by ``linalg.matmul_modp``, exact across the int64 envelope.  The index
is estimated by randomized evaluation of the alternating matrix
chi([x_i, x_j]) and is exact with Schwartz-Zippel confidence (it is
always an upper bound witness: dim minus an attained rank).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import NotRestrictable, SelfCheckFailure
from .fields import QQ, prime_field, galois_field, reduce_sparse
from .util import derive_seed, sz_extension_degree


def _normalize_constants(constants, n):
    out = {}
    for (i, j), comp in constants.items():
        if not (0 <= i < j < n):
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < n")
        comp = {k: v for k, v in comp.items() if v}
        for k in comp:
            if not 0 <= k < n:
                raise ValueError(f"component index {k} out of range")
        if comp:
            out[(i, j)] = comp
    return out


class LieAlgebraPresentation:
    """Basis labels plus sparse structure constants over the rationals."""

    def __init__(self, name, labels, constants, pmap_override=None):
        self.name = name
        self.labels = tuple(labels)
        self.constants = _normalize_constants(
            {k: {i: Fraction(v) for i, v in comp.items()} for k, comp in constants.items()},
            len(self.labels),
        )
        # optional user-supplied p-map table, kept as rationals and
        # reduced at base-change time
        self.pmap_override = (
            None
            if pmap_override is None
            else {i: dict(row) for i, row in pmap_override.items()}
        )
        self.field = QQ
        self._pbw_memo = {}

    @property
    def n(self):
        return len(self.labels)

    def bracket(self, i, j):
        """[x_i, x_j] as a sparse map k -> scalar, any order of i, j."""
        if i == j:
            return {}
        if i < j:
            return self.constants.get((i, j), {})
        return {k: -v for k, v in self.constants.get((j, i), {}).items()}

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebraPresentation)
            and self.name == other.name
            and self.labels == other.labels
            and self.constants == other.constants
            and self.pmap_override == other.pmap_override
        )

    def __repr__(self):
        return f"LieAlgebraPresentation({self.name!r}, dim={self.n})"


@dataclass(frozen=True)
class RestrictedStructure:
    """p-map table: row i gives the coordinates of x_i^[p] as int residues."""

    rows: tuple

    def vector(self, i):
        return self.rows[i]


class ModularLieAlgebra:
    """A presentation base-changed to F_p, optionally with a p-map.

    Structure constants always live in the prime field, as int residues
    in [1, p) (ints and Fractions are accepted and reduced); extensions
    F_{p^e} only enter through evaluation points, as coefficient arrays.
    """

    def __init__(self, name, labels, p, constants, restricted=None):
        self.name = name
        self.labels = tuple(labels)
        self.p = p
        self.field = prime_field(p)
        scalar = self.field.scalar
        self.constants = _normalize_constants(
            {k: {i: scalar(c) for i, c in comp.items()} for k, comp in constants.items()},
            len(self.labels),
        )
        self.restricted = restricted
        self._pbw_memo = {}
        # each constant enters as (i, (c,)): seed derivation depends on
        # this exact tuple
        self._signature = (
            p,
            self.labels,
            tuple(sorted((k, tuple(sorted((i, (c,)) for i, c in v.items())))
                         for k, v in self.constants.items())),
        )

    @property
    def n(self):
        return len(self.labels)

    def bracket(self, i, j):
        if i == j:
            return {}
        if i < j:
            return self.constants.get((i, j), {})
        p = self.p
        return {k: p - v for k, v in self.constants.get((j, i), {}).items()}

    def signature(self) -> int:
        """Stable identifier of (constants, p) for seed derivation."""
        return derive_seed("alg", self._signature)

    def __repr__(self):
        return f"ModularLieAlgebra({self.name!r}, p={self.p}, dim={self.n})"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def jacobi_defect(ctx, i, j, l):
    """[[x_i,x_j],x_l] + [[x_j,x_l],x_i] + [[x_l,x_i],x_j], sparse."""
    total = {}
    for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
        for k, v in ctx.bracket(a, b).items():
            for m, d in ctx.bracket(k, c).items():
                total[m] = total.get(m, 0) + v * d
    return reduce_sparse(total, ctx.field.p)


def validate_presentation(ctx):
    """All violated Jacobi triples with their defect vectors.

    Empty list means the presentation is a Lie algebra.  Works for both
    rational presentations and modular algebras.
    """
    n = ctx.n
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                defect = jacobi_defect(ctx, i, j, l)
                if defect:
                    violations.append((i, j, l, defect))
    return violations


# ---------------------------------------------------------------------------
# base change and restricted structure
# ---------------------------------------------------------------------------

def base_change_mod_p(pres: LieAlgebraPresentation, p: int) -> ModularLieAlgebra:
    """Reduce all structure constants into F_p; Jacobi is re-validated.

    Raises DenominatorDivisibleByP when some constant has denominator
    divisible by p, the signal that p is too small for this presentation,
    and PrimeOutsideInt64Range when p is too large for the int64 kernels
    (``linalg.require_exact_prime``).
    """
    linalg.require_exact_prime(p)
    alg = ModularLieAlgebra(pres.name, pres.labels, p, pres.constants)
    bad = validate_presentation(alg)
    if bad:
        raise SelfCheckFailure(f"Jacobi broke after reduction mod {p}: {bad[:3]}")
    return alg


def ad_matrices(alg: ModularLieAlgebra) -> np.ndarray:
    """int64 (n, n, n): [i, l, j] = coeff of x_l in [x_i, x_j], so [i] is ad(x_i)."""
    n = alg.n
    out = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for l, c in alg.bracket(i, j).items():
                out[i, l, j] = c
    return out


def _pth_power(m: np.ndarray, p: int) -> np.ndarray:
    """m^p mod p by repeated squaring with ``linalg.matmul_modp``."""
    out, k = np.eye(len(m), dtype=np.int64), p
    while k:
        if k & 1:
            out = linalg.matmul_modp(out, m, p)
        k >>= 1
        if k:
            m = linalg.matmul_modp(m, m, p)
    return out


def _ad_powers(alg: ModularLieAlgebra):
    """(``ad_matrices(alg)``, each (ad x_i)^p), computed once per algebra.

    ``compute_p_map`` and ``verify_restricted`` both read them from the
    algebra's derived caches.
    """
    hit = alg._pbw_memo.get("ad-powers")
    if hit is None:
        ads = ad_matrices(alg)
        hit = alg._pbw_memo["ad-powers"] = (ads, [_pth_power(m, alg.p) for m in ads])
    return hit


def _solve_inner_derivation(alg: ModularLieAlgebra, ads: np.ndarray, target: np.ndarray):
    """Solve sum_k y_k ad(x_k) = target for y, canonical representative.

    The solution is a coset of the center; row reduction with free
    variables pinned to zero picks the minimal-support representative,
    which makes the p-map deterministic.  Returns None if not inner.
    """
    system = ads.reshape(alg.n, alg.n * alg.n).T
    return linalg.solve_modp(system, target.reshape(-1), alg.p)


def compute_p_map(alg: ModularLieAlgebra) -> RestrictedStructure:
    """Solve ad(y) = (ad x_i)^p for every basis element.

    When the center is nontrivial the solution is only a coset; the
    echelon-form representative with zero free coordinates is chosen, so
    repeated runs agree.  Raises NotRestrictable when some (ad x_i)^p is
    not an inner derivation.
    """
    ads, powers = _ad_powers(alg)
    rows = []
    for i in range(alg.n):
        y = _solve_inner_derivation(alg, ads, powers[i])
        if y is None:
            raise NotRestrictable(f"(ad {alg.labels[i]})^p is not an inner derivation")
        rows.append(tuple(y.tolist()))
    return RestrictedStructure(rows=tuple(rows))


def p_map_override_to_structure(alg: ModularLieAlgebra, override) -> RestrictedStructure:
    """Reduce a rational override table {label: {label: rational}} mod p."""
    idx = {lbl: i for i, lbl in enumerate(alg.labels)}
    rows = []
    for i, lbl in enumerate(alg.labels):
        vec = [0] * alg.n
        for tgt, val in override.get(lbl, {}).items():
            vec[idx[tgt]] = alg.field.scalar(Fraction(val))
        rows.append(tuple(vec))
    return RestrictedStructure(rows=tuple(rows))


def verify_restricted(alg: ModularLieAlgebra, rs: RestrictedStructure) -> bool:
    """Exact check of ad(x_i^[p]) == (ad x_i)^p for every i."""
    n, p = alg.n, alg.p
    ads, powers = _ad_powers(alg)
    # row i: ad(x_i^[p]) = sum_k rs[i][k] ad(x_k), flattened
    coeffs = np.array(rs.rows, dtype=np.int64).reshape(n, n)
    images = linalg.matmul_modp(coeffs, ads.reshape(n, n * n), p)
    return all(np.array_equal(images[i], powers[i].reshape(-1)) for i in range(n))


def with_p_map(alg: ModularLieAlgebra, override=None) -> ModularLieAlgebra:
    """Return a copy of ``alg`` carrying a verified restricted structure."""
    if override is not None:
        rs = p_map_override_to_structure(alg, override)
        if not verify_restricted(alg, rs):
            raise NotRestrictable(
                f"the pmapOverride table fails ad(x^[p]) = (ad x)^p at p = {alg.p}"
            )
    else:
        rs = compute_p_map(alg)
        if not verify_restricted(alg, rs):
            raise SelfCheckFailure("computed p-map fails ad(x^[p]) = (ad x)^p")
    return ModularLieAlgebra(alg.name, alg.labels, alg.p, alg.constants, restricted=rs)


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def index_generic(obj, trials: int = 3, seed: int = 0) -> int:
    """dim g minus the best rank of chi([x_i,x_j]) over sampled chi.

    Besides ``trials`` random functionals, the all-ones and coordinate
    functionals are always evaluated.  Over F_p the random points are
    drawn from an extension F_q large enough for Schwartz-Zippel
    confidence, as (n, e) coefficient arrays, and each point's matrix
    chi([x_i, x_j]) is one ``linalg.matmul_modp`` of the ad matrices by
    chi; over the rationals small random integers are used.  The result
    is an upper bound on the index that is exact with overwhelming
    probability.
    """
    n = obj.n
    rng = random.Random(derive_seed("index", seed, getattr(obj, "p", 0), n))
    if obj.field is QQ:
        evals = [[Fraction(1)] * n]
        evals += [[Fraction(1 if k == i else 0) for k in range(n)] for i in range(n)]
        evals += [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(trials)]
        ranks = (
            linalg.rank([[sum((c * chi[k] for k, c in obj.bracket(i, j).items()), Fraction(0))
                          for j in range(n)] for i in range(n)], QQ)
            for chi in evals
        )
    else:
        p = obj.p
        e = sz_extension_degree(p, n, n)
        ext = galois_field(p, e, seed=derive_seed("index-field", p, e))
        # ad[i * n + j, l] is the coefficient of x_l in [x_i, x_j]
        ad = ad_matrices(obj).transpose(0, 2, 1).reshape(n * n, n)
        # the all-ones and coordinate functionals, then the random ones
        evals = np.zeros((n + 1 + trials, n, e), dtype=np.int64)
        evals[0, :, 0] = 1
        evals[1:n + 1, :, 0] = np.eye(n, dtype=np.int64)
        drawn = [ext.coefficients(ext.random(rng)) for _ in range(trials * n)]
        evals[n + 1:] = np.array(drawn, dtype=np.int64).reshape(trials, n, e)
        ranks = (linalg.rank(linalg.matmul_modp(ad, chi, p).reshape(n, n, e), ext) for chi in evals)
    return n - max(ranks)
