#!/usr/bin/env python3
"""
Building finite groups as Cayley tables
========================================

Every group in this library is a multiplication table: row i, column j
holds the index of x_i * x_j, with the identity at index 0.  A table from
outside is validated by group_from_cayley_table, and so is every table a
builtin family computes from a formula; direct products, quotients and
permutation closures are groups by construction.
"""

from centaut import (
    Permutation,
    builtin,
    direct_product,
    group_from_cayley_table,
    group_from_permutations,
    list_builtins,
    parse_group_spec,
)
from centaut.errors import NotAssociative

# The builtin families cover the usual suspects.
print("builtin families:", ", ".join(n for n, _, _ in list_builtins()))

Q8 = builtin("quaternion", (8,))
print("\nquaternion(8): order", Q8.order, "prime", Q8.prime)
print("element orders:", Q8.element_orders.tolist())

# i * j = k, j * i = -k: the table remembers noncommutativity.
a, b = next(
    (i, j) for i in range(8) for j in range(8) if Q8.table[i, j] != Q8.table[j, i]
)
print(f"table[{a},{b}] = {Q8.table[a, b]}, table[{b},{a}] = {Q8.table[b, a]}")

# Same group from permutation generators: closure under composition.
r = Permutation([1, 2, 3, 0])  # 4-cycle
f = Permutation([0, 3, 2, 1])  # flip
D8 = group_from_permutations(4, [r, f])
print("\n<r, f> has order", D8.order, "(dihedral of the square)")

# Direct products pair up the factors' elements.
V = direct_product(builtin("cyclic", (2,)), builtin("cyclic", (2,)))
print("C2 x C2 element orders:", V.element_orders.tolist())

# A table from a formula goes through the validator, as the builtins' do:
# r^i t^a * r^j t^b = r^(i + (-1)^a j) t^(a+b), with r^i t^a at index 2i + a.
pairs = [(i, a) for i in range(4) for a in range(2)]
D8_again = group_from_cayley_table(
    [[(i + (-1) ** a * j) % 4 * 2 + (a + b) % 2 for j, b in pairs] for i, a in pairs]
)
assert (D8_again.table == builtin("dihedral", (8,)).table).all()
print("r^4 = t^2 = 1, t r t^-1 = r^-1: builtin dihedral(8), cell for cell")

# Raw tables are checked before anything else runs.
bad = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]
try:
    group_from_cayley_table(bad)
except NotAssociative as e:
    print("\nrejected a latin square that is not a group:", e)

# One-line string specs are handy for CLIs and manifests.
G = parse_group_spec("dihedral(16) x cyclic(2)")
print("\nparsed 'dihedral(16) x cyclic(2)': order", G.order)
