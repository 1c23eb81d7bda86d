"""Builders produce the groups their names promise."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from centaut.errors import BadParameters, CentautError, ClosureExceedsCap, UnknownBuiltin
from centaut.families import (
    abelian_group,
    builtin,
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
from centaut.central import central_automorphism_count
from centaut.groups import direct_product, powers, prime_power
from centaut.structure import Subgroup, center, derived_subgroup, quotient, structure_report

import oracles


def test_cyclic_and_abelian():
    assert cyclic(1).order == 1
    for G, exps in ((cyclic(9), (2,)), (abelian_group(2, [2, 1]), (2, 1)), (elementary(5, 2), (1, 1))):
        assert G.is_abelian
        assert oracles.ref_abelian_invariants(G.table, G.prime).exponents == exps
    with pytest.raises(BadParameters):
        cyclic(0)
    with pytest.raises(BadParameters):
        abelian_group(4, [1])


def test_metacyclic_relations():
    # <a,b | a^m = 1, b^s = a^w, b a b^-1 = a^t>, a -> index of (1,0)
    G = metacyclic(8, 2, 3)
    a = next(x for x in range(16) if G.element_orders[x] == 8)
    b = next(x for x in range(16) if x != a and G.element_orders[x] == 2)
    conj = G.table[G.table[b, a], G.inverse[b]]
    cube = powers(G.table, np.array([a]), 3)[0]
    assert conj in (cube, G.inverse[cube])  # a^(8-3); b may invert the roles
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
    z = oracles.ref_as_group_table(G.table, center(G).elements)
    assert oracles.ref_abelian_invariants(z, G.prime).exponents == (2,)
    assert derived_subgroup(G).order == 2
    G = modular(3, 27)
    assert G.element_orders.max() == 9
    with pytest.raises(BadParameters):
        modular(2, 4)  # below p^3


def test_heisenberg_and_unitriangular():
    G = heisenberg(3, 1)
    assert G.order == 27 and G.element_orders.max() == 3
    assert structure_report(G).nilpotency_class == 2
    U = unitriangular4(3)
    assert U.order == 3**6
    assert structure_report(U).nilpotency_class == 3
    assert center(U).order == 3


def test_extraspecial_shapes():
    """Orders other than p^(2r+1) and signs other than + and - are refused;
    test_extraspecial_type checks the groups themselves."""
    with pytest.raises(BadParameters):
        extraspecial(2, 16, "+")  # even power of p beyond the center
    with pytest.raises(BadParameters):
        extraspecial(2, 8, "?")


def reference_extraspecial(p, order, sign):
    """The extraspecial group as a chain of central products of the basic
    types (D_8 and Q_8, or heisenberg(p) and modular(p, p^3)), each the
    quotient of the full direct product by the glued centers."""
    r = (prime_power(order)[1] - 1) // 2
    if p == 2:
        plus, minus = dihedral(8), quaternion(8)
    else:
        plus, minus = heisenberg(p, 1), modular(p, p**3)
    factors = [plus] * r if sign == "+" else [minus] + [plus] * (r - 1)
    G = factors[0]
    for F in factors[1:]:
        D = direct_product(G, F)
        g = center(G).elements[1] * F.order + F.inverse[center(F).elements[1]]
        glue = Subgroup(D, np.flatnonzero(oracles.ref_closure_mask(D.table, [g])))
        G, _ = quotient(D, glue)
    return G


# every extraspecial group of order at most the default cap
EXTRASPECIAL = [
    (p, p**k, sign)
    for p in (2, 3, 5, 7, 11, 13)
    for k in range(3, 13, 2)
    if p**k <= 4096
    for sign in "+-"
]


@pytest.mark.parametrize("p,order,sign", EXTRASPECIAL)
def test_extraspecial_type(p, order, sign):
    """The invariants that fix the type, read off the table: Z = G' of
    order p and x^p in Z for every x; at p = 2, 2^(2r) + e 2^r - 1
    involutions for sign e; at odd p, exponent p for "+" and p^2 for "-".
    Up to order 729 the structure report, the element orders and the
    central automorphism count match the central-product reference."""
    G = extraspecial(p, order, sign)
    z = center(G)
    assert z.order == p and derived_subgroup(G).elements == z.elements
    assert z.mask[powers(G.table, np.arange(order), p)].all()
    e = 1 if sign == "+" else -1
    if p == 2:
        r = prime_power(order)[1] // 2
        assert int((G.element_orders == 2).sum()) == 4**r + e * 2**r - 1
    else:
        assert G.element_orders.max() == (p if sign == "+" else p**2)
    if order <= 729:
        R = reference_extraspecial(p, order, sign)
        assert structure_report(G) == structure_report(R)
        assert np.array_equal(np.bincount(G.element_orders), np.bincount(R.element_orders))
        got, want = central_automorphism_count(G), central_automorphism_count(R)
        assert (got.hom_candidates, got.aut_count) == (want.hom_candidates, want.aut_count)


def test_extraspecial_beyond_direct_product_cap():
    """Order 3^7 builds under the default cap, though the direct product of
    three order-27 factors (3^9) exceeds it; a cap below the order fails
    from the parameters."""
    G = parse_group_spec("extraspecial(3,2187,+)")
    assert G.order == 2187
    with pytest.raises(ClosureExceedsCap):
        extraspecial(3, 2187, "+", cap=2186)


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


@pytest.mark.parametrize(
    "spec,message",
    [
        ("wreath(0)", "0 is not prime"),
        ("wreath(-3)", "-3 is not prime"),
        ("cwreath(2,0)", "need m >= 1, got 0"),
        ("cwreath(2,-1)", "need m >= 1, got -1"),
        ("cwreath(2,-1" + "0" * 400 + ")", "need m >= 1, got -1" + "0" * 400),
    ],
)
def test_wreath_names_a_bad_prime_before_a_bad_m(spec, message):
    """wreath(p) passes p as both parameters, so a bad p is named as p."""
    with pytest.raises(BadParameters, match=f"^{message}$"):
        parse_group_spec(spec)


# every C_p wr C_m of order p^m * m <= 729
WREATH_729 = [
    (p, m)
    for p in range(2, 730)
    if prime_power(p) == (p, 1)
    for m in range(1, 10)
    if p**m * m <= 729
]


@pytest.mark.parametrize("p,m", WREATH_729)
def test_wreath_matches_the_permutation_group(p, m):
    """cyclic_wreath against C_p wr C_m closed from permutations: the
    order, element-order histogram and |Z|, and for a p-group (m a power
    of p) the structure report and the central automorphism count."""
    G, R = cyclic_wreath(p, m), oracles.ref_wreath(p, m)
    assert G.order == R.order == p**m * m
    assert np.array_equal(np.bincount(G.element_orders), np.bincount(R.element_orders))
    assert center(G).order == center(R).order
    if G.prime == p:
        assert structure_report(G) == structure_report(R)
        got, want = central_automorphism_count(G), central_automorphism_count(R)
        assert (got.hom_candidates, got.aut_count) == (want.hom_candidates, want.aut_count)


# oracles.table_sha of two wreath tables beyond the corpus's order 81, taken
# from the semidirect-product builder that the spanning-tree one replaced
WREATH_TABLE_SHA = {(2, 8): "1a0fcac1586aeab3", (5, 4): "7b52d75d6422835b"}


def test_large_wreath_tables_are_unchanged():
    for (p, m), sha in WREATH_TABLE_SHA.items():
        assert oracles.table_sha(cyclic_wreath(p, m).table) == sha, (p, m)


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
        ("extraspecial(2, 8, -)", 8),
        ("heisenberg(3 1)", 27),
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
    for spec, k in [
        ("dihedral(,16)", 1),
        ("metacyclic(4,2,3,,)", 4),
        ("modular(2,,16)", 2),
        ("modular:2::16", 2),
    ]:
        with pytest.raises(BadParameters, match=f"parameter {k} of .* is empty"):
            parse_group_spec(spec)


def _built(parse, spec):
    try:
        return parse(spec, cap=64).table.tolist()
    except CentautError as e:
        return type(e).__name__, str(e)


@example(["dihedral", "(", "8", ")", " ", "x", "\t", "cyclic", ":", "2"])
@example(["quaternion", "  ", "(", "8", ")", " ", "x", " ", "x", " ", "cyclic"])
@given(
    st.lists(
        st.sampled_from(
            ["cyclic", "dihedral", "quaternion", "x", "(", ")", ":", ",", "2", "8", "!"]
            + [" ", "  ", "\t"]
        ),
        max_size=12,
    )
)
def test_parse_group_spec_matches_reference(tokens):
    """The same table, or the same error class and message, as the parser
    whose whitespace runs backtracked."""
    spec = "".join(tokens)
    assert _built(parse_group_spec, spec) == _built(oracles.ref_parse_group_spec, spec)


@pytest.mark.parametrize("spec", ["cyclic" + " " * 64000 + "!", "cyclic(2)" + " " * 64000 + "y"])
def test_long_whitespace_in_a_term_fails_fast(spec):
    """The former patterns rescanned the run from each of its spaces:
    about 30 s for each of these specs."""
    start = time.perf_counter()
    with pytest.raises(BadParameters, match="cannot parse group term"):
        parse_group_spec(spec)
    assert time.perf_counter() - start < 1.0


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


# oracles.table_sha of each default-corpus table, taken from the builders
# before they were moved to int32 (they broadcast int64 index arrays); the
# es entries from the coordinate formula that replaced the central products.
CORPUS_TABLE_SHA = {
    "q8": "a5c0ca9a9cf989f9",
    "d8": "52d5c178e7240384",
    "heis2": "3fddda68f47064ad",
    "es8+": "0f53c2aca6aa508d",
    "es8-": "daa219219272adda",
    "d16": "7905b2db8c7accb2",
    "q16": "b1a09ea40e46e407",
    "sd16": "3c2b344ea264b14a",
    "m16": "33a0908bc067276e",
    "d32": "d7e808ff86b3ccbb",
    "q32": "230e17e74d6c05a1",
    "sd32": "f5695182430bd405",
    "m32": "dfacb6fbeaea6649",
    "d64": "8a34417d756b81d6",
    "q64": "c0dbab5385b8b93c",
    "sd64": "14a13ae0b4d738df",
    "d128": "5963b517b6618f80",
    "q128": "23c5d18417797a43",
    "sd128": "d8c4eb1a34e484d8",
    "es32+": "38fdcbc42c46f026",
    "es32-": "f77059cfea6e157f",
    "heis4": "0eb5ac2bcf81af21",
    "ut4_2": "b79066057f1d1415",
    "wr2": "37d313e4773af0e2",
    "cwr2_4": "fa7000dcdd92d9fe",
    "mc16_4": "2f1d2eb3284d1e9c",
    "mc32_4": "3436c47bd7058bb2",
    "mc64_4": "90acde14ac8ac404",
    "mc32_8a": "d0bb6651726d0bd3",
    "mc32_8b": "ef1d57121464a694",
    "d128xc2": "1d47c06b2701ba2c",
    "d64xe4": "09696466791e315a",
    "mc16_4xe4": "810c793d12648925",
    "d16xc2": "4ef517f6e9be3e54",
    "d16xc4": "a2b508599b0affd5",
    "d32xc2": "dc44eb754b7bf8b5",
    "d64xc2": "7e9342c7714eb40c",
    "q16xc2": "b59f0c63ccf6a1f0",
    "ut4_2xc2": "2306cc03bfeed337",
    "es32+xc2": "edfe56fced87b814",
    "heis3": "5a006f1ce2a029a0",
    "m27": "d7288575a1ab57e3",
    "m81": "cece48adff170147",
    "es243+": "8c8195c68066ad6a",
    "es243-": "ff63dd4585e12430",
    "heis9": "28607de6c76200bb",
    "ut4_3": "f8d64abefb128530",
    "wr3": "1ae96e99308bd7a0",
    "mc27_9": "0e4f46f72962a377",
    "heis3xc3": "c2fbffafa69f42cb",
    "es125+": "f9098ff730e5c4b4",
    "es125-": "7fd74e7b4c75c558",
    "m625": "06cad5ffd051b266",
    "heis5xc5": "1c19b7017af4eb59",
}


def test_corpus_tables_are_int32_and_unchanged(corpus, corpus_groups):
    assert set(CORPUS_TABLE_SHA) == set(corpus)
    for name, G in corpus_groups.items():
        assert G.table.dtype == np.int32, name
        assert oracles.table_sha(G.table) == CORPUS_TABLE_SHA[name], name


def _build_peak_mib(spec: str) -> float:
    tracemalloc.start()
    try:
        parse_group_spec(spec)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "spec,mib",
    [
        # 2 MiB tables; the int64 broadcasts peaked at 26.4 and 37.6 MiB
        ("heisenberg(3,2)", 12),
        ("unitriangular4(3)", 20),
        # the 64 MiB table and validation measure 65.0 MiB (81.0 with the
        # former Latin mask); the broadcast int64 index arrays of metacyclic
        # took 544 MiB
        ("dihedral(4096)", 96),
        ("heisenberg(2,4)", 96),
        ("metacyclic(64,64,3)", 96),
    ],
)
def test_builds_hold_one_table(spec, mib):
    assert _build_peak_mib(spec) < mib


def _heisenberg_ref(p, k):
    return oracles.ref_unitriangular_table(p**k, 3, [(), (), [(0, 1)]])


def _unitriangular4_ref(p):
    carries = [(), [(0, 3)], [(0, 4), (1, 5)], (), [(3, 5)], ()]
    return oracles.ref_unitriangular_table(p, 6, carries)


def _extraspecial_ref(p, order, sign):
    r = (prime_power(order)[1] - 1) // 2
    carries = [[(1 + i, 1 + r + i) for i in range(r)]] + [()] * (2 * r)
    overflows = [] if sign == "+" else [(1, 0)] + [(1 + r, 0)] * (p == 2)
    return oracles.ref_unitriangular_table(p, 2 * r + 1, carries, overflows)


# every valid metacyclic(m, s, t, w) of order m*s <= 32, 945 in all, by m
METACYCLIC_32 = {
    m: [
        (m, s, t, w)
        for s in range(1, 32 // m + 1)
        for t in range(m)
        for w in range(m)
        if pow(t, s, m) == 1 % m and w * (t - 1) % m == 0
    ]
    for m in range(1, 33)
}


@pytest.mark.parametrize(
    "build,ref,cases",
    [
        *(
            pytest.param(metacyclic, oracles.ref_metacyclic_table, cases, id=f"metacyclic(m={m})")
            for m, cases in METACYCLIC_32.items()
        ),
        *(
            pytest.param(heisenberg, _heisenberg_ref, [(p, k)], id=f"heisenberg({p},{k})")
            for p, k in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4)]
        ),
        *(
            pytest.param(unitriangular4, _unitriangular4_ref, [(p,)], id=f"unitriangular4({p})")
            for p in (2, 3)
        ),
        *(
            pytest.param(extraspecial, _extraspecial_ref, [case], id=f"extraspecial{case}")
            for case in EXTRASPECIAL
            if case[1] <= 243
        ),
    ],
)
def test_tree_tables_match_the_formula_tables(build, ref, cases):
    """Tables filled along a spanning tree equal the closed-formula tables."""
    for args in cases:
        table = build(*args).table
        assert table.dtype == np.int32, args
        assert table.tobytes() == ref(*args).tobytes(), args
