#!/usr/bin/env python3
"""
Structure of a p-group in one report
=====================================

Center, derived subgroup, upper central series, and the abelian invariants
that the minimality rules consume.
"""

from centaut import (
    builtin,
    center,
    derived_subgroup,
    parse_group_spec,
    quotient,
    structure_report,
)
from centaut.structure import upper_central_orders

D16 = builtin("dihedral", 16)

# A subgroup is a read-only bool mask over the element indices.
Z = center(D16)
G1 = derived_subgroup(D16)
print("dihedral(16):  |Z| =", Z.sum(), " |G'| =", G1.sum())
print("Z inside G':", (Z <= G1).all())

print("upper series orders:", upper_central_orders(D16))

# Quotients come back as groups with the projection map.
Q, proj = quotient(D16, Z)
print("G/Z has order", Q.order, "and is abelian:", Q.is_abelian)

print("G^ab invariants:", structure_report(D16).abelianization.exponents)

# Burnside: Phi(G) = G'G^p has index p^d, d = d(G) the rank of G/G'.
rep = structure_report(D16)
print("minimal generators d(G) =", rep.d)
print("Frattini subgroup order:", rep.order // rep.prime**rep.d)

# structure_report bundles everything the classifier needs.
for name in ("dihedral(16)", "heisenberg(3,1)", "extraspecial(2,32,+)"):
    rep = structure_report(parse_group_spec(name))
    print(
        f"\n{name}: order {rep.order} = {rep.prime}^{rep.order_exp}, "
        f"class {rep.nilpotency_class}, coclass {rep.coclass}"
    )
    print(f"  alpha (G^ab) = {rep.abelianization.exponents}")
    print(f"  gamma (Z)    = {rep.center.exponents}")
    print(f"  beta (Z2/Z)  = {rep.inner_center.exponents}")
    print(f"  Z <= G': {rep.center_in_derived}   d, d(Z), d(Z2/Z) =",
          (rep.d, rep.d_center, rep.d_inner_center))
