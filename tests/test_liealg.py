import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from kw1 import liealg
from kw1.cli import main
from kw1.errors import DenominatorDivisibleByP, NotRestrictable, SelfCheckFailure
from kw1.liealg import (
    LieAlgebraPresentation,
    RestrictedStructure,
    base_change_mod_p,
    compute_p_map,
    index_generic,
    validate_presentation,
    verify_restricted,
    with_p_map,
)
from kw1.registry import get_example


def brute_force_index(alg):
    """Independent oracle: kernel dimension of B_chi over all chi in F_p^n."""
    from kw1 import linalg

    n = alg.n
    field = alg.field
    best = 0
    for chi in itertools.product(range(alg.p), repeat=n):
        rows = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = field.zero
                for k, c in alg.bracket(i, j).items():
                    v = v + c * field.from_int(chi[k])
                rows[i][j] = v
                rows[j][i] = -v
        best = max(best, linalg.rank(rows, field))
    return n - best


def test_validate_abelian_and_sl2():
    assert validate_presentation(get_example("abelian:4")) == []
    assert validate_presentation(get_example("sl2")) == []


def test_validate_catches_bad_triple():
    # [x,y] = z, [x,z] = x, [y,z] = 0 violates Jacobi at (x, y, z)
    bad = LieAlgebraPresentation(
        "bad", ("x", "y", "z"), {(0, 1): {2: 1}, (0, 2): {0: 1}}
    )
    violations = validate_presentation(bad)
    assert len(violations) == 1
    i, j, l, defect = violations[0]
    assert (i, j, l) == (0, 1, 2)
    # defect is [[x,y],z] + [[y,z],x] + [[z,x],y] = [z,z] + 0 - [x,y] = -z
    assert defect == {2: Fraction(-1)}


def test_base_change_sl2():
    alg = base_change_mod_p(get_example("sl2"), 5)
    assert int(alg.bracket(0, 1)[1]) == 2
    assert int(alg.bracket(0, 2)[2]) == 3  # -2 mod 5
    assert int(alg.bracket(1, 2)[0]) == 1


def test_base_change_denominator():
    pres = LieAlgebraPresentation("half", ("a", "b"), {(0, 1): {1: Fraction(1, 2)}})
    with pytest.raises(DenominatorDivisibleByP):
        base_change_mod_p(pres, 2)
    alg = base_change_mod_p(pres, 3)
    assert int(alg.bracket(0, 1)[1]) == 2  # 1/2 = 2 mod 3


def test_base_change_remark_unchanged():
    alg = base_change_mod_p(get_example("remark:1:2"), 7)
    assert int(alg.bracket(0, 1)[1]) == 1
    assert int(alg.bracket(0, 2)[2]) == 2


@pytest.mark.parametrize("p", [3, 5, 7])
def test_p_map_remark(p):
    alg = base_change_mod_p(get_example("remark:1:1"), p)
    rs = compute_p_map(alg)
    rows = [[int(c) for c in row] for row in rs.rows]
    assert rows == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_p_map_heisenberg():
    alg = base_change_mod_p(get_example("heisenberg"), 3)
    rs = compute_p_map(alg)
    assert all(all(int(c) == 0 for c in row) for row in rs.rows)


def test_p_map_sl2_p5():
    alg = base_change_mod_p(get_example("sl2"), 5)
    rs = compute_p_map(alg)
    rows = [[int(c) for c in row] for row in rs.rows]
    assert rows == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert verify_restricted(alg, rs)


def test_not_restrictable():
    # filiform nilpotent: [a,b] = c, [a,c] = d; (ad a)^2 is not inner at p = 2
    pres = LieAlgebraPresentation(
        "filiform4", ("a", "b", "c", "d"), {(0, 1): {2: 1}, (0, 2): {3: 1}}
    )
    assert validate_presentation(pres) == []
    alg = base_change_mod_p(pres, 2)
    with pytest.raises(NotRestrictable):
        compute_p_map(alg)
    # but restrictable at p >= 3 where (ad a)^3 = 0
    assert compute_p_map(base_change_mod_p(pres, 3)) is not None


def test_p_map_override():
    pres = LieAlgebraPresentation(
        "torus1", ("t",), {}, pmap_override={"t": {"t": "1"}}
    )
    alg = with_p_map(base_change_mod_p(pres, 5), override=pres.pmap_override)
    assert int(alg.restricted.vector(0)[0]) == 1
    bad = LieAlgebraPresentation(
        "heis", ("x", "y", "z"), {(0, 1): {2: 1}}, pmap_override={"x": {"y": "1"}}
    )
    with pytest.raises(NotRestrictable):
        with_p_map(base_change_mod_p(bad, 3), override=bad.pmap_override)


def test_computed_p_map_self_check(monkeypatch):
    monkeypatch.setattr(liealg, "verify_restricted", lambda alg, rs: False)
    with pytest.raises(SelfCheckFailure, match="computed p-map"):
        with_p_map(base_change_mod_p(get_example("sl2"), 3))
    assert main(["pmap", "--example", "sl2", "--prime", "3"]) == 3


def test_index_examples():
    assert index_generic(get_example("abelian:4"), 3, 0) == 4
    assert index_generic(get_example("remark:1:1"), 3, 0) == 1
    assert index_generic(get_example("sl2"), 3, 0) == 1
    assert index_generic(get_example("heisenberg"), 3, 0) == 1
    assert index_generic(get_example("nonabelian2"), 3, 0) == 0
    assert index_generic(get_example("gl2"), 3, 0) == 2


@pytest.mark.parametrize("name", ["heisenberg", "sl2", "remark:1:1", "nonabelian2"])
def test_index_matches_brute_force_mod5(name):
    alg = base_change_mod_p(get_example(name), 5)
    assert index_generic(alg, 3, 0) == brute_force_index(alg)


# alg.signature() at p = 3, 5, 7, as computed when structure constants were
# prime-field FFElem objects.  Every RNG stream is derived from it, so a
# change of scalar representation must leave it alone.
PINNED_SIGNATURES = {
    "abelian:2": (0x2a20da301c7621b8, 0x2ae379ca75a48ac6, 0x622fb8c17a2287fb),
    "abelian:4": (0x7a62faa4718e1847, 0x6ba556a397aa69d5, 0x6ba60f7e79f53f60),
    "nonabelian2": (0x44acfccfa5d59382, 0x48a39b0b7e054ed4, 0x769fd3fdb4a107f8),
    "heisenberg": (0x7f32f4d82406c3c8, 0x4311d905562e6ec9, 0x4b5ebdb39271361e),
    "sl2": (0x011bdd5ae9e9fcfb, 0x02526d54d4ea0fcf, 0x775402527a354ce9),
    "gl2": (0x5dd97de75bf21644, 0x091f0fd8bb50bcc8, 0x5a2ac5d921da4324),
    "borel2": (0x52083d8154d54047, 0x587a158313e2a2f5, 0x2bd9db7f4fb8a3aa),
    "remark:1:1": (0x11d8ce6e0aab1e14, 0x523c92e3fc24009f, 0x7c4019420b3367d8),
    "remark:1:2": (0x509324c2b89a79b7, 0x0e504416e88fe20c, 0x76e01c28be19128e),
    "remark:2:3": (0x7f82c726d6882801, 0x2a969f63976ff619, 0x6b00ef12fb02e98a),
}


@pytest.mark.parametrize("name", sorted(PINNED_SIGNATURES))
def test_signature_pinned(name):
    got = tuple(with_p_map(base_change_mod_p(get_example(name), p)).signature()
                for p in (3, 5, 7))
    assert got == PINNED_SIGNATURES[name]


def _python_matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def test_p_map_at_the_top_of_the_int64_envelope():
    from kw1.linalg import LARGEST_EXACT_PRIME as p

    sl2 = with_p_map(base_change_mod_p(get_example("sl2"), p))
    assert [list(row) for row in sl2.restricted.rows] == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    heis = with_p_map(base_change_mod_p(get_example("heisenberg"), p))
    assert not any(any(row) for row in heis.restricted.rows)
    assert verify_restricted(sl2, sl2.restricted)
    assert not verify_restricted(sl2, RestrictedStructure(rows=((p - 1, 0, 0), (0, 0, 0), (0, 0, 0))))
    # a dense matrix of residues near p: an unreduced int64 product
    # overflows; Python ints are the reference
    rng = random.Random(1)
    m = [[p - 1 - rng.randrange(9) for _ in range(3)] for _ in range(3)]
    power, base, k = [[int(r == c) for c in range(3)] for r in range(3)], m, p
    while k:
        if k & 1:
            power = _python_matmul(power, base, p)
        base, k = _python_matmul(base, base, p), k >> 1
    assert liealg._pth_power(np.array(m, dtype=np.int64), p).tolist() == power


def test_structure_constants_and_p_map_are_int_residues():
    alg = with_p_map(base_change_mod_p(get_example("sl2"), 5))
    for i in range(alg.n):
        for j in range(alg.n):
            for c in alg.bracket(i, j).values():
                assert type(c) is int and 1 <= c < alg.p
        assert all(type(c) is int and 0 <= c < alg.p for c in alg.restricted.vector(i))


def test_jacobi_self_check_after_reduction(monkeypatch, capsys):
    monkeypatch.setattr(
        liealg, "validate_presentation", lambda ctx: [(0, 1, 2, {2: 1})]
    )
    with pytest.raises(SelfCheckFailure, match="Jacobi broke"):
        base_change_mod_p(get_example("sl2"), 3)
    assert main(["check", "--example", "sl2", "--primes", "3"]) == 3
    # the KW1Error branch prints the message, not the exception repr
    assert "kw1: internal error: Jacobi broke after reduction mod 3" in capsys.readouterr().err
