"""Invariants, bases and Hom counts."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centaut import central, structure
from centaut.abelian import (
    AbelianInvariants,
    _allowed_images,
    hom_invariants,
    iter_hom_positions,
    section_basis,
    section_invariants,
    target_array,
)
from centaut.errors import NotPrimePower, PrimeMismatch
from centaut.families import (
    abelian_group,
    cyclic,
    dihedral,
    elementary,
    parse_group_spec,
)
from centaut.groups import powers, subset_table
from centaut.structure import center, derived_subgroup

import oracles


def test_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(4, (1,))  # not prime
    with pytest.raises(ValueError):
        AbelianInvariants(2, (1, 2))  # not descending
    with pytest.raises(ValueError):
        AbelianInvariants(2, (1, 0))  # zero entry
    inv = AbelianInvariants(2, (3, 1))
    assert inv.rank == 2 and inv.order == 16
    assert AbelianInvariants(5, ()).order == 1


@pytest.mark.parametrize(
    "G,expect",
    [
        (cyclic(8), (3,)),
        (elementary(2, 3), (1, 1, 1)),
        (abelian_group(2, [3, 1]), (3, 1)),
        (abelian_group(3, [2, 2, 1]), (2, 2, 1)),
        (cyclic(625), (4,)),
    ],
)
def test_abelian_invariants(G, expect):
    assert _invariants(G).exponents == expect


def test_abelian_invariants_rejections():
    """The layer count of a nonabelian group is off the layers; a group of
    order 6 has no prime; Hom of two primes has no invariants."""
    with pytest.raises(RuntimeError, match="layer of 6 elements"):
        _invariants(dihedral(8))
    with pytest.raises(NotPrimePower):
        _invariants(cyclic(6))
    with pytest.raises(PrimeMismatch):
        hom_invariants(_invariants(cyclic(4)), _invariants(cyclic(3)))


@pytest.mark.parametrize(
    "G",
    [
        abelian_group(2, [3, 1]),
        abelian_group(2, [2, 2]),
        abelian_group(2, [2, 1, 1]),
        elementary(3, 2),
        abelian_group(3, [2, 1]),
        cyclic(16),
    ],
)
def test_abelian_basis_spans_freely(G):
    """section_basis over N = 1: every element factors uniquely over the
    basis, members[k] = prod_i elements[i] ** coordinates[k, i]; orders
    match."""
    basis, members = _basis(G)
    inv = basis.invariants
    assert inv == oracles.ref_abelian_invariants(G.table, G.prime)
    assert len(basis.elements) == inv.rank
    for g, e in zip(basis.elements, inv.exponents):
        assert G.element_orders[g] == inv.prime**e
    # coordinates are a bijection onto the full exponent box
    coords = {tuple(row) for row in basis.coordinates.tolist()}
    assert len(coords) == G.order
    # and they reconstruct each element, each element once
    assert sorted(members[:, 0].tolist()) == list(range(G.order))
    t = G.table.tolist()
    for x, row in zip(members[:, 0].tolist(), basis.coordinates.tolist()):
        acc = 0
        for g, c in zip(basis.elements, row):
            acc = t[acc][powers(G.table, np.array([g]), c)[0]]
        assert acc == x


def test_abelian_basis_trivial_group():
    basis, members = section_basis(cyclic(1), np.ones(1, dtype=bool), AbelianInvariants(2, ()))
    assert basis.elements == () and basis.invariants.rank == 0
    assert members.tolist() == [[0]]


def test_section_basis_raises_on_invariants_the_group_lacks():
    """Too large: no element of the first order.  Too small: the cosets
    listed miss part of G, which the partition check catches."""
    G, one = cyclic(8), np.arange(8) == 0
    with pytest.raises(RuntimeError, match="basis search failed"):
        section_basis(G, one, AbelianInvariants(2, (4,)))
    with pytest.raises(RuntimeError, match="do not partition"):
        section_basis(G, one, AbelianInvariants(2, (2,)))


def _invariants(A):
    """The invariants of a whole group, over N = 1."""
    return section_invariants(A, np.ones(A.order, dtype=bool), np.arange(A.order) == 0)


def _basis(A):
    """(basis, members) of a whole abelian group: section_basis over N =
    1, coordinates[k] the exponent tuple of element members[k, 0]."""
    return section_basis(A, np.arange(A.order) == 0, _invariants(A))


def _homs(basis, B, targets):
    """Hom(A, <targets>) from the enumerator, on the ambient indices of B:
    f[k] the image of the k-th basis coset."""
    tgt = target_array(targets)
    images = _allowed_images(basis.invariants, B, tgt)
    for f in oracles.hom_positions(basis, subset_table(B.table, tgt), images, 256):
        yield from tgt[f]


SMALL_ABELIAN = [
    cyclic(2),
    cyclic(4),
    cyclic(8),
    elementary(2, 2),
    abelian_group(2, [2, 1]),
    cyclic(3),
    elementary(3, 2),
]


def test_hom_count_matches_exhaustive_search():
    """Arithmetic |Hom| formula vs raw function-space enumeration."""
    for A, B in itertools.product(SMALL_ABELIAN, SMALL_ABELIAN):
        if A.prime != B.prime or B.order > 4:
            continue  # the raw search scans |B|^(|A|-1) functions
        basis, _ = _basis(A)
        got = sum(1 for _ in _homs(basis, B, range(B.order)))
        assert got == oracles.ref_hom_count(A.table.tolist(), B.table.tolist())


def test_iter_homomorphisms_yields_each_hom_once():
    """Each map, read back onto A's elements, once and a homomorphism."""
    A = abelian_group(2, [2, 1])
    B = abelian_group(2, [1, 1])
    basis, members = _basis(A)
    homs = []
    for f in _homs(basis, B, range(4)):
        g = np.empty(A.order, dtype=np.int64)
        g[members[:, 0]] = f
        homs.append(tuple(g.tolist()))
    assert len(homs) == len(set(homs))
    assert len(homs) == oracles.ref_hom_count(A.table.tolist(), B.table.tolist())
    for f in homs:
        assert oracles.ref_is_hom(A.table.tolist(), B.table.tolist(), f)


def test_iter_homomorphisms_into_subgroup_targets():
    # maps land in the designated subgroup, not the whole ambient group
    A = cyclic(2)
    B = cyclic(4)
    basis, _ = _basis(A)
    sub = [0, int(B.table[1, 1])]  # the order-2 subgroup
    homs = list(_homs(basis, B, sub))
    assert len(homs) == 2
    assert {int(f[1]) for f in homs} == set(sub)


def test_iter_homomorphisms_counts_each_target_once():
    """Repeated targets name one subgroup: [2, 0, 0, 2] and [0, 2, 2] give
    the maps of [0, 2], in the same order, not one map per repeat."""
    (basis, _), B = _basis(cyclic(2)), cyclic(4)
    want = [f.tolist() for f in _homs(basis, B, [0, 2])]
    assert want == [[0, 0], [0, 2]]
    for targets in ([2, 0, 0, 2], [0, 2, 2], np.array([2, 2, 0], dtype=np.uint8)):
        assert target_array(targets).tolist() == [0, 2]
        assert [f.tolist() for f in _homs(basis, B, targets)] == want


# Abelianization -> center, as the central-map enumeration asks: six
# `homs` benchmark products and six corpus groups with basis elements of
# order p^2 and p^3, p = 2, 3, 5.
CENTER_SPECS = [
    "dihedral(8) x elementary(2,2)",
    "quaternion(8) x elementary(2,2)",
    "heisenberg(2,2) x cyclic(4)",
    "heisenberg(3,1) x cyclic(9)",
    "modular(3,81) x cyclic(3)",
    "extraspecial(2,32,-) x cyclic(4)",
    "modular(2,32)",
    "metacyclic(32,8,5)",
    "dihedral(16) x cyclic(4)",
    "heisenberg(3,1) x cyclic(3)",
    "modular(5,625)",
    "heisenberg(3,2)",
    "modular(2,2048)",  # a C_512 target: the longest cycles listed
]

# Sections of the stability maps: (G/X)^ab -> Y for X the Frattini subgroup or the
# second center, Y the central part of X.
STABILITY_SPECS = [
    "dihedral(16)",
    "heisenberg(2,2)",
    "dihedral(16) x cyclic(2)",
    "modular(3,81)",
    "extraspecial(2,32,+)",
]


SMALL_PAIRS = [
    (A, B)
    for A, B in itertools.product(SMALL_ABELIAN, SMALL_ABELIAN)
    if A.prime == B.prime
]


def _section_mask(G, kind):
    """The Frattini subgroup (by its full-table reference) or Z_2(G)."""
    if kind == "frattini":
        return oracles.ref_frattini_mask(G.table, G.prime)
    return structure._upper_masks(G)[2]


def _hom_case(kind, arg):
    """(basis, ambient, targets) for one enumeration case: Hom(A, B) for a
    small pair, Hom(G/G', Z(G)) for "center", and Hom(G/XG', Z(G) n X)
    for X the Frattini subgroup or the second center, each based by
    section_basis."""
    if kind == "small":
        A, B = SMALL_PAIRS[arg]
        return _basis(A)[0], B, list(range(B.order))
    G = parse_group_spec(arg)
    if kind == "center":
        N, Y = derived_subgroup(G).mask, center(G).elements
    else:
        X = _section_mask(G, kind)
        N = oracles.ref_closure_mask(G.table, np.flatnonzero(X | derived_subgroup(G).mask))
        Y = np.flatnonzero(X & center(G).mask)
    inv = section_invariants(G, np.ones(G.order, dtype=bool), N)
    return section_basis(G, N, inv)[0], G, Y


HOM_CASES = (
    [("small", i) for i in range(len(SMALL_PAIRS))]
    + [("center", s) for s in CENTER_SPECS]
    + [(kind, s) for s in STABILITY_SPECS for kind in ("frattini", "z2")]
)


@pytest.mark.parametrize("kind,arg", HOM_CASES)
def test_hom_blocks_match_reference_loop(kind, arg):
    """Blocks of every size concatenate to the per-map loop's maps, in order."""
    basis, ambient, targets = _hom_case(kind, arg)
    want = list(
        oracles.ref_iter_homomorphisms(
            basis.coordinates.tolist(),
            basis.invariants.prime,
            basis.invariants.exponents,
            ambient.table.tolist(),
            [int(t) for t in targets],
        )
    )
    total = len(want)
    non_divisor = next(r for r in range(2, total + 2) if total % r)
    tgt = target_array(targets)
    T = subset_table(ambient.table, tgt)
    images = _allowed_images(basis.invariants, ambient, tgt)
    for rows in sorted({1, 7, 256, non_divisor, total + 1}):
        blocks = list(oracles.hom_positions(basis, T, images, rows))
        assert all(b.dtype == np.int32 for b in blocks)
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= rows
        got = [tuple(f) for f in np.concatenate([tgt[b] for b in blocks]).tolist()]
        assert got == want, rows


# (kind, spec): the sections of _label_case, as the enumeration walks them
LABEL_CASES = (
    [("center", s) for s in CENTER_SPECS]
    + [(kind, s) for s in STABILITY_SPECS for kind in ("frattini", "z2", "whole")]
)


@functools.lru_cache(maxsize=None)
def _label_case(kind, spec):
    """(basis, T, images, label) for Hom(G/N, Y): N = G' and Y = Z(G) for
    "center", N = XG' and Y the central part of X for X the Frattini
    subgroup or the second center, and N = G for "whole"; label is the
    checked coset-label table of central._coset_labels."""
    G = parse_group_spec(spec)
    if kind == "center":
        N, Y = derived_subgroup(G).mask, center(G).elements
    elif kind == "whole":
        N, Y = np.ones(G.order, dtype=bool), center(G).elements
    else:
        X = _section_mask(G, kind)
        N = oracles.ref_closure_mask(G.table, np.flatnonzero(X | derived_subgroup(G).mask))
        Y = np.flatnonzero(X & center(G).mask)
    inv = section_invariants(G, np.ones(G.order, dtype=bool), N)
    basis, members = section_basis(G, N, inv)
    tgt = target_array(Y)
    T = subset_table(G.table, tgt)
    return basis, T, _allowed_images(inv, G, tgt), central._coset_labels(G, members, tgt)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(LABEL_CASES), rows=st.integers(1, 300))
def test_label_fold_matches_position_blocks(case, rows):
    """With act a checked coset-label table, each block is act[c, f[c]]
    of the position block beside it (oracles.hom_positions, T's regular
    action), in the same blocks."""
    basis, T, images, act = _label_case(*case)
    a, t = act.shape
    if a * t * t <= 10**6:  # the action law the fold rests on
        assert np.array_equal(act[act], act[:, T])
    c = np.arange(a)
    pairs = itertools.zip_longest(
        oracles.hom_positions(basis, T, images, rows),
        iter_hom_positions(basis, T, images, rows, act),
    )
    for f, state in pairs:
        assert state.dtype == np.int32 and np.array_equal(state, act[c, f])


def test_hom_positions_read_a_bare_table():
    """The enumerator takes B's own int32 table, positions = elements, and
    no ambient group: its maps are the per-map loop's for each source."""
    B = abelian_group(2, [2, 1])
    T = B.table.astype(np.int32)
    for A in SMALL_ABELIAN:
        if A.prime != B.prime:
            continue
        basis, _ = _basis(A)
        images = _allowed_images(basis.invariants, B, np.arange(B.order))
        blocks = list(oracles.hom_positions(basis, T, images, 5))
        got = [tuple(f) for f in np.concatenate(blocks).tolist()]
        want = oracles.ref_iter_homomorphisms(
            basis.coordinates.tolist(),
            basis.invariants.prime,
            basis.invariants.exponents,
            B.table.tolist(),
            list(range(B.order)),
        )
        assert got == list(want)


def test_hom_invariants_formula():
    a = AbelianInvariants(2, (2, 1))
    b = AbelianInvariants(2, (1,))
    assert hom_invariants(a, b).exponents == (1, 1)
    c = AbelianInvariants(2, (3, 2))
    assert hom_invariants(c, c).exponents == (3, 2, 2, 2)
    assert hom_invariants(c, c).order == 2 ** (3 + 2 + 2 + 2)
    with pytest.raises(PrimeMismatch):
        hom_invariants(a, AbelianInvariants(3, (1,)))


def test_hom_invariants_order_matches_hom_count():
    for A, B in itertools.product(SMALL_ABELIAN, SMALL_ABELIAN):
        if A.prime != B.prime:
            continue
        h = hom_invariants(_invariants(A), _invariants(B))
        basis, _ = _basis(A)
        assert h.order == sum(1 for _ in _homs(basis, B, range(B.order)))


INVARIANT_LISTS = [
    (),
    (1,),
    (2,),
    (3,),
    (1, 1),
    (2, 1),
    (2, 2),
    (1, 1, 1),
    (3, 1),
]


def test_hom_invariants_symmetric():
    invs = [AbelianInvariants(3, e) for e in INVARIANT_LISTS if e]
    for a, b in itertools.product(invs, invs):
        assert hom_invariants(a, b) == hom_invariants(b, a)


def test_invariants_roundtrip_through_cyclic_products():
    from centaut.groups import direct_product

    for exps in [(3, 1), (2, 2, 1), (1, 1)]:
        G = cyclic(2 ** exps[0])
        for e in exps[1:]:
            G = direct_product(G, cyclic(2**e))
        assert _invariants(G).exponents == exps
