"""Reduced enveloping algebras and the module-splitting oracle.

Builds u_chi(g) for a few characters, splits the regular representation
into composition factors, and shows field escalation on a case where
factors are irreducible over F_p only because their endomorphism field
is bigger: at p = 3 with chi(h) = 1 the eigenvalues of h satisfy the
Artin-Schreier cubic t^3 - t - 1, so honest 3-dimensional simples only
appear over F_27.  The split never leaves F_3: each 9-dimensional
F_3-factor has endomorphism field F_27 and is recorded as its three
Galois twists of dimension 3, with working field F_27.
"""

from kw1 import (
    Character,
    base_change_mod_p,
    get_example,
    max_irreducible_dim,
    regular_representation,
    split_simples,
    with_p_map,
)
from kw1.fields import prime_field

heis = with_p_map(base_change_mod_p(get_example("heisenberg"), 3))
f3 = prime_field(3)

print("== Heisenberg at p = 3 ==")
for chi_values, label in (((0, 0, 0), "chi = 0 (Engel: all factors trivial)"),
                          ((0, 0, 1), "chi(z) = 1 (all factors dimension 3)")):
    chi = Character(tuple(f3.from_int(v) for v in chi_values))
    report = split_simples(regular_representation(heis, chi), seed=0)
    print(f"  {label}: dims {report.dims}")

print()
print("== sl2 at p = 3, the Artin-Schreier character ==")
sl2 = with_p_map(base_change_mod_p(get_example("sl2"), 3))
chi = Character((f3.one, f3.zero, f3.zero))
report = split_simples(regular_representation(sl2, chi), seed=0)
print("  dims:", report.dims)
print("  working fields:", sorted({order for _d, order in report.factors}))
print("  degraded:", report.degraded)

print()
print("== the oracle: maximum factor dimension over sampled characters ==")
for name, p in (("heisenberg", 3), ("sl2", 3), ("nonabelian2", 5), ("gl2", 3)):
    alg = with_p_map(base_change_mod_p(get_example(name), p))
    est = max_irreducible_dim(alg, samples=10, seed=0)
    print(f"  {name:12s} p={p}: M = {est.m_est}, witness chi = {est.witness}")
