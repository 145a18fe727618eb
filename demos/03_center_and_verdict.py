"""The p-center, the degree-bounded center, ranks, and the verdict.

Reproduces the headline computation on the weighted family with n = m = 1
at p = 3: the center of the enveloping algebra is generated by the
p-center together with the extra monomials x^i y^j of weight divisible
by p, the rank over the p-center is p, and the resulting bounds pin the
largest irreducible dimension at exactly p.
"""

from kw1 import (
    base_change_mod_p,
    center_basis_bounded,
    fraction_field_degree,
    get_example,
    kw1_verdict,
    p_center_generators,
    ue_monomial,
    with_p_map,
    zp_coordinates,
)
from kw1.center import zp_subalgebra_contains
from kw1.reports import to_json

alg = with_p_map(base_change_mod_p(get_example("remark:1:1"), 3))

print("== p-center generators xi_i = x_i^p - x_i^[p] ==")
for lbl, xi in zip(alg.labels, p_center_generators(alg).xi):
    print(f"  xi_{lbl} = {xi.render()}")

print()
print("== coordinates in the free module over the p-center ==")
a = ue_monomial(alg, (0, 4, 0))
coords = zp_coordinates(a, alg)
for mono, poly in coords.coordinates.items():
    body = poly.render(tuple(f"xi_{l}" for l in alg.labels))
    print(f"  x^4 has coordinate {body} on the reduced monomial {mono}")
print("  reassembles exactly:", coords.reassemble() == a)

print()
print("== the center in degree <= 2p - 2 = 4 ==")
cb = center_basis_bounded(alg, 4, seed=0)
for el in cb.elements:
    print("  ", el.render())
print("rank over the p-center:", cb.rank)

xy2 = ue_monomial(alg, (0, 1, 2))
print()
print("x y^2 is central but lies outside the p-center:",
      not zp_subalgebra_contains(xy2, alg))

print()
print("== fraction-field degree of x / y over Frac(Z_p) ==")
phi = ue_monomial(alg, (0, 1, 0))
psi = ue_monomial(alg, (0, 0, 1))
print("degree:", fraction_field_degree(phi, psi, alg, 3, seed=0))

print()
print("== the full verdict as a report ==")
print(to_json([kw1_verdict(alg, seed=0)]))
