"""Case lists of the benchmark workloads and the answer pinned for each case.

A case is one call into the public API on a freshly built algebra:
``kw1_verdict`` (kind ``verdict``) or ``max_irreducible_dim`` (kind
``oracle``).  The expected values are the mathematical answers, not report
bytes, so a change that legitimately moves ``e`` or the defining polynomial
of the specialization field still passes.
"""

from __future__ import annotations

from dataclasses import dataclass

ORACLE_SAMPLES = 10


@dataclass(frozen=True)
class Case:
    example: str
    p: int
    kind: str  # "verdict" or "oracle"
    dim: int
    ind: int
    degree_bound: int | None = None  # None: the library's default bound
    seeds: int = 1  # runs per pass, each with its own library seed

    def library_seeds(self, seed: int) -> range:
        """Seeds passed to the library; disjoint for distinct workload seeds."""
        return range(seed * self.seeds, (seed + 1) * self.seeds)

    @property
    def case_id(self) -> str:
        parts = [self.example.replace(":", "-"), f"p{self.p}"]
        if self.degree_bound is not None:
            parts.append(f"d{self.degree_bound}")
        if self.kind == "oracle":
            parts.append("oracle")
        return "-".join(parts)

    @property
    def expected_m(self) -> int:
        return self.p ** ((self.dim - self.ind) // 2)

    @property
    def expected_rank(self) -> int:
        return self.p**self.ind


def _verdict(example, p, dim, ind, degree_bound=None, seeds=1):
    return Case(example, p, "verdict", dim, ind, degree_bound, seeds)


def _oracle(example, p, dim, ind, seeds=1):
    return Case(example, p, "oracle", dim, ind, seeds=seeds)


# Each case runs under ``seeds`` library seeds per pass: the work of a
# MeatAxe or specialization path changes with the seed, and the sum over
# several seeds changes much less from one workload seed to the next.
WORKLOADS = {
    # rank-over-Z_p product closure: pbw_multiply, zp_coordinates, extension
    # rank.  gl2@5 runs at D = 3, where it is already verified; D = 4 takes
    # some 20 s and the default D = 5 over two minutes (the slow case below).
    # The last two cases raise the degree bound, as an inconclusive verdict
    # tells the user to: there the dense center nullspace dominates time
    # and peak memory.
    "verdict": (
        _verdict("sl2", 5, 3, 1),
        _verdict("gl2", 3, 4, 2),
        _verdict("remark:2:3", 7, 3, 1, seeds=2),
        _verdict("gl2", 5, 4, 2, degree_bound=3),
        _verdict("remark:1:2", 7, 3, 1, degree_bound=18),
        _verdict("heisenberg", 7, 3, 1, degree_bound=16),
    ),
    # MeatAxe: spin, Norton attempts, factoring, escalation to F_{p^s}
    # (remark and nonabelian2 escalate, heisenberg does not)
    "oracle": (
        _oracle("remark:1:2", 3, 3, 1, seeds=4),
        _oracle("remark:2:3", 3, 3, 1, seeds=2),
        _oracle("nonabelian2", 3, 2, 0, seeds=16),
        _oracle("heisenberg", 3, 3, 1, seeds=6),
    ),
}

# Runnable with --workload but kept out of the repeated runs.
EXTRA_WORKLOADS = {
    # the slow case: gl2@5 at the default degree bound; its baseline is
    # recorded in perfbench/slow_cases.json
    "slow-gl2-p5": (_verdict("gl2", 5, 4, 2),),
}


def check_answer(case: Case, result) -> list[str]:
    """Differences between a result and the pinned answer; empty when correct."""
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{case.case_id}: {label} = {got!r}, expected {want!r}")

    if case.kind == "oracle":
        expect("M", result.m_est, case.p)
        expect("degraded", result.degraded, False)
    else:
        expect("verdict", result.verdict, "verified")
        expect("dim", result.dim, case.dim)
        expect("ind", result.ind, case.ind)
        expect("rank_z_over_zp", result.rank_z_over_zp, case.expected_rank)
        expect("m_upper", result.m_upper, case.expected_m)
        expect("m_lower", result.m_lower, case.expected_m)
    return problems
