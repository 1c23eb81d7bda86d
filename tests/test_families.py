"""Builders produce the groups their names promise."""

import tracemalloc

import numpy as np
import pytest

from centaut.abelian import abelian_invariants
from centaut.errors import BadParameters, ClosureExceedsCap, UnknownBuiltin
from centaut.families import (
    abelian_group,
    builtin,
    central_product,
    cyclic,
    cyclic_wreath,
    dihedral,
    elementary,
    extraspecial,
    heisenberg,
    list_builtins,
    metacyclic,
    modular,
    parse_group_spec,
    quaternion,
    semidihedral,
    unitriangular4,
    wreath,
)
from centaut.groups import direct_product, prime_power
from centaut.structure import center, closure, derived_subgroup, quotient, structure_report


def test_cyclic_and_abelian():
    assert cyclic(1).order == 1
    assert abelian_invariants(cyclic(9)).exponents == (2,)
    assert abelian_invariants(abelian_group(2, [2, 1])).exponents == (2, 1)
    assert abelian_invariants(elementary(5, 2)).exponents == (1, 1)
    with pytest.raises(BadParameters):
        cyclic(0)
    with pytest.raises(BadParameters):
        abelian_group(4, [1])


def test_metacyclic_relations():
    # <a,b | a^m = 1, b^s = a^w, b a b^-1 = a^t>, a -> index of (1,0)
    G = metacyclic(8, 2, 3)
    a = next(x for x in range(16) if G.element_orders[x] == 8)
    b = next(x for x in range(16) if x != a and G.element_orders[x] == 2)
    conj = G.mul(G.mul(b, a), G.inv(b))
    assert conj in (G.pow(a, 3), G.pow(a, 8 - 3))  # b may invert the roles
    with pytest.raises(BadParameters):
        metacyclic(8, 2, 2)  # t^s != 1 mod m
    with pytest.raises(BadParameters):
        metacyclic(8, 2, 3, w=1)  # w(t-1) != 0 mod m


def test_two_generator_two_groups():
    for order in (16, 32, 64):
        D, Q, S = dihedral(order), quaternion(order), semidihedral(order)
        for G in (D, Q, S):
            rep = structure_report(G)
            assert rep.order == order
            assert rep.nilpotency_class == rep.order_exp - 1  # maximal class
        assert int((Q.element_orders == 2).sum()) == 1  # unique involution
        assert int((D.element_orders == 2).sum()) == order // 2 + 1
    with pytest.raises(BadParameters):
        dihedral(12)
    with pytest.raises(BadParameters):
        quaternion(4)


def test_modular_group():
    G = modular(2, 16)
    assert abelian_invariants(center(G).as_group()).exponents == (2,)
    assert derived_subgroup(G).order == 2
    G = modular(3, 27)
    assert G.exponent == 9
    with pytest.raises(BadParameters):
        modular(2, 4)  # below p^3


def test_heisenberg_and_unitriangular():
    G = heisenberg(3, 1)
    assert G.order == 27 and G.exponent == 3
    assert structure_report(G).nilpotency_class == 2
    U = unitriangular4(3)
    assert U.order == 3**6
    assert structure_report(U).nilpotency_class == 3
    assert center(U).order == 3


def test_extraspecial_shapes():
    for p, order in ((2, 8), (2, 32), (3, 27), (5, 125)):
        for sign in "+-":
            G = extraspecial(p, order, sign)
            assert G.order == order
            z = center(G)
            assert z.order == p
            assert derived_subgroup(G).elements == z.elements
    with pytest.raises(BadParameters):
        extraspecial(2, 16, "+")  # even power of p beyond the center
    with pytest.raises(BadParameters):
        extraspecial(2, 8, "?")


def test_central_product_glues_centers():
    G = central_product(dihedral(8), dihedral(8))
    assert G.order == 32
    assert center(G).order == 2
    with pytest.raises(BadParameters):
        central_product(dihedral(8), cyclic(4))


def reference_extraspecial(p, order, sign):
    """extraspecial() with each central product taken as the quotient of the
    full direct product by the glued centers."""
    r = (prime_power(order)[1] - 1) // 2
    if p == 2:
        plus, minus = dihedral(8), quaternion(8)
    else:
        plus, minus = heisenberg(p, 1), modular(p, p**3)
    factors = [plus] * r if sign == "+" else [minus] + [plus] * (r - 1)
    G = factors[0]
    for F in factors[1:]:
        D = direct_product(G, F)
        glue = closure(D, [center(G).elements[1] * F.order + F.inv(center(F).elements[1])])
        G, _ = quotient(D, glue)
    return G


@pytest.mark.parametrize(
    "p,order,sign",
    [(2, 32, "+"), (2, 32, "-"), (2, 128, "+"), (3, 243, "+"), (3, 243, "-")],
)
def test_central_product_matches_quotient_of_direct_product(p, order, sign):
    G = extraspecial(p, order, sign)
    assert np.array_equal(G.table, reference_extraspecial(p, order, sign).table)


def test_extraspecial_beyond_direct_product_cap():
    """|A x B| = 6561 exceeds the default cap; the central product does not."""
    G = parse_group_spec("extraspecial(3,2187,+)")
    assert G.order == 2187
    assert center(G).order == 3
    with pytest.raises(ClosureExceedsCap):
        central_product(heisenberg(3, 1), heisenberg(3, 1), cap=242)


def test_wreath_products():
    G = wreath(2)
    assert G.order == 8 and not G.is_abelian
    H = cyclic_wreath(2, 4)
    assert H.order == 2**4 * 4
    assert structure_report(H).nilpotency_class == 4
    W = wreath(3)
    assert W.order == 3**4
    with pytest.raises(BadParameters):
        cyclic_wreath(4, 2)


def test_builders_are_deterministic():
    for spec in ("extraspecial(2,32,-)", "metacyclic(27,9,4)", "wreath(3)"):
        A, B = parse_group_spec(spec), parse_group_spec(spec)
        assert A.table.tobytes() == B.table.tobytes()


def test_builtin_registry():
    rows = list_builtins()
    names = [n for n, _, _ in rows]
    assert names == sorted(names)
    assert {"cyclic", "dihedral", "metacyclic", "wreath"} <= set(names)
    assert builtin("dihedral", [8]).order == 8
    with pytest.raises(UnknownBuiltin):
        builtin("frobenius")
    with pytest.raises(BadParameters):
        builtin("dihedral", [8, 9, 10])
    with pytest.raises(BadParameters):
        builtin("abelian", [2, "+"])


@pytest.mark.parametrize(
    "spec,order",
    [
        ("cyclic(8)", 8),
        ("dihedral(16) x cyclic(2)", 32),
        ("heisenberg(3,1) x elementary(3,2)", 243),
        ("extraspecial(2,8,-)", 8),
        ("quaternion:8", 8),
    ],
)
def test_parse_group_spec(spec, order):
    assert parse_group_spec(spec).order == order


def test_parse_group_spec_errors():
    with pytest.raises(BadParameters):
        parse_group_spec("dihedral(16")
    with pytest.raises(BadParameters):
        parse_group_spec("dihedral(a)")
    with pytest.raises(UnknownBuiltin):
        parse_group_spec("icosahedral(60)")
    with pytest.raises(ClosureExceedsCap):
        parse_group_spec("dihedral(64) x cyclic(2)", cap=64)
    with pytest.raises(ClosureExceedsCap):
        parse_group_spec("dihedral(128)", cap=64)  # single term, checked too


@pytest.mark.parametrize("spec", ["cyclic(3000)", "heisenberg(2,3)", "elementary(2,9)"])
def test_cap_checked_before_building(spec):
    """An over-cap builtin fails from its parameters, before any table exists."""
    tracemalloc.start()
    try:
        with pytest.raises(ClosureExceedsCap):
            parse_group_spec(spec, cap=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
