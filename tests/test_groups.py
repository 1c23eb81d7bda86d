"""Cayley table validation, permutation closure, products."""

import tracemalloc

import numpy as np
import pytest

from centaut import groups
from centaut.errors import (
    ClosureExceedsCap,
    InvalidPermutation,
    NoIdentityAtZero,
    NotAssociative,
    NotLatinSquare,
)
from centaut.families import (
    cyclic,
    cyclic_wreath,
    dihedral,
    elementary,
    extraspecial,
    quaternion,
    unitriangular4,
    wreath,
)
from centaut.groups import (
    Group,
    Permutation,
    direct_product,
    group_from_cayley_table,
    group_from_permutations,
)
from centaut.structure import center, derived_subgroup, quotient

import oracles

# order-5 Latin square with identity row/column but a broken triple
NONASSOC5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_validating_a_large_table_holds_no_square_temporary():
    """The accept path reads row minima and gathers row blocks, so no n x n
    array sits beside the table (the Latin mask alone was 16 MiB here)."""
    table = dihedral(4096).table.copy()
    tracemalloc.start()
    try:
        group_from_cayley_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_read_only_table_is_not_copied_for_its_inverses():
    """Group reads inverses off row minima one row block at a time: numpy's
    argmin over a whole read-only table works on a copy (64 MiB here)."""
    table = dihedral(4096).table
    assert not table.flags.writeable
    tracemalloc.start()
    try:
        group_from_cayley_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_rejecting_a_large_table_holds_one_latin_mask():
    """A Latin table with its identity moved passes both Latin checks
    before the identity row names it.  The checks scatter into one reused
    16 MiB mask by row blocks, so no n x n index array sits beside it."""
    swap = np.arange(4096, dtype=np.int32)  # an int32 table is not copied
    swap[[0, 5]] = swap[[5, 0]]
    table = swap[dihedral(4096).table[np.ix_(swap, swap)]]
    tracemalloc.start()
    try:
        with pytest.raises(NoIdentityAtZero) as exc:
            group_from_cayley_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"{type(exc.value).__name__}: {exc.value}" == "NoIdentityAtZero: 0*0 == 5, expected 0"
    assert peak < 20 * 2**20


def test_rejects_missing_identity():
    with pytest.raises(NoIdentityAtZero):
        group_from_cayley_table([[1, 0], [0, 1]])


def test_rejects_non_latin_rows():
    with pytest.raises(NotLatinSquare):
        group_from_cayley_table([[0, 1, 2], [1, 1, 0], [2, 0, 1]])


@pytest.mark.parametrize("cells", [1 << 16, 16 * 4])  # one block; blocks of 4 rows
def test_non_latin_rows_in_two_blocks_name_the_first(monkeypatch, cells):
    """Rows 5 and 13 repeat a value: row 5 is named, whether the row check
    sees both in one block or stops at the block holding row 5."""
    monkeypatch.setattr(groups, "_BLOCK_CELLS", cells)
    table = dihedral(16).table.copy()
    table[13, 2] = table[13, 3]
    table[5, 7] = table[5, 8]
    with pytest.raises(NotLatinSquare, match=r"^row 5 is not a permutation of range\(16\)$"):
        group_from_cayley_table(table)
    table[5] = dihedral(16).table[5]  # row 5 valid again: row 13 is named
    with pytest.raises(NotLatinSquare, match=r"^row 13 is not"):
        group_from_cayley_table(table)


def test_rejects_non_square_and_non_integer():
    with pytest.raises(NotLatinSquare):
        group_from_cayley_table([[0, 1], [1, 0], [0, 1]])
    with pytest.raises(NotLatinSquare):
        group_from_cayley_table([[0, "x"], ["x", 0]])
    with pytest.raises(NotLatinSquare):
        group_from_cayley_table([[0, 1], [1]])  # ragged
    # non-integer cells are rejected, not cast to C2
    with pytest.raises(NotLatinSquare, match=r"^entry at \(0, 1\) is not an integer: 1\.7$"):
        group_from_cayley_table([[0, 1.7], [1, 0]])
    with pytest.raises(NotLatinSquare, match=r"^entry at \(0, 1\) is not an integer: True$"):
        group_from_cayley_table([[0, True], [True, 0]])
    with pytest.raises(NotLatinSquare, match=r"^table dtype float64 is not integral$"):
        group_from_cayley_table(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_rejects_non_associative_naming_first_triple():
    """The error message pins the lexicographically first bad triple."""
    with pytest.raises(NotAssociative, match=r"\(\(1\*1\)\*2\)"):
        group_from_cayley_table(NONASSOC5)


def test_accepts_klein_four():
    G = group_from_cayley_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    assert G.order == 4 and G.is_abelian and G.element_orders.max() == 2


def test_table_is_read_only():
    G = cyclic(4)
    assert not G.table.flags.writeable
    with pytest.raises(ValueError):
        G.table[0, 0] = 1


def test_prime_power_detection():
    assert (cyclic(8).prime, cyclic(8).order_exp) == (2, 3)
    assert (cyclic(27).prime, cyclic(27).order_exp) == (3, 3)
    assert cyclic(6).prime is None and cyclic(6).order_exp is None
    assert cyclic(1).prime is None


def test_arithmetic_matches_reference_oracle():
    G = quaternion(8)
    t = G.table.tolist()
    for a in range(8):
        assert G.inverse[a] == oracles.ref_inverse(t, a)
        assert G.element_orders[a] == oracles.ref_element_order(t, a)
        acc = 0
        for k in range(8):
            assert groups.powers(G.table, np.array([a]), k)[0] == acc
            acc = t[acc][a]


def test_element_orders_and_exponent():
    G = dihedral(8)
    counts = np.bincount(G.element_orders, minlength=5)
    assert counts[1] == 1 and counts[2] == 5 and counts[4] == 2
    assert G.element_orders.max() == 4
    assert not G.is_abelian


def test_permutation_is_a_checked_image_tuple():
    a = Permutation([1, 2, 0])
    assert (a.images, a.degree) == ((1, 2, 0), 3)
    with pytest.raises(InvalidPermutation):
        Permutation([0, 0, 1])


def test_group_from_permutations_dihedral():
    rot = [1, 2, 3, 0]
    flip = [0, 3, 2, 1]
    G = group_from_permutations(4, [rot, flip])
    assert G.order == 8
    assert not G.is_abelian
    assert sorted(np.bincount(G.element_orders).tolist()) == sorted([0, 1, 5, 0, 2])


def test_group_from_permutations_identity_first():
    G = group_from_permutations(3, [[1, 2, 0]])
    assert G.order == 3
    assert (G.table[0] == np.arange(3)).all()


def test_group_from_permutations_cap():
    with pytest.raises(ClosureExceedsCap):
        group_from_permutations(4, [[1, 2, 3, 0], [0, 3, 2, 1]], cap=4)


def test_group_from_permutations_degree_mismatch():
    with pytest.raises(InvalidPermutation):
        group_from_permutations(4, [[1, 0]])


def test_direct_product_orders_multiply():
    G = direct_product(dihedral(8), cyclic(2))
    assert G.order == 16 and G.prime == 2 and not G.is_abelian
    H = direct_product(cyclic(2), cyclic(3))
    assert H.order == 6 and H.is_abelian and H.prime is None
    with pytest.raises(ClosureExceedsCap):
        direct_product(dihedral(8), cyclic(2), cap=8)


def test_direct_product_hands_over_the_greedy_generators():
    """H's generators, then G's times |H|: the set a span of the product
    table picks, read off the factors instead, when the factors' sets are
    greedy; a cyclic group hands over its generator 1."""
    factors = [
        cyclic(1),
        cyclic(2),
        cyclic(9),
        elementary(2, 3),
        dihedral(8),
        quaternion(16),
        extraspecial(3, 27),
        unitriangular4(2),
        wreath(2),
    ]
    greedy = [np.array_equal(G.generators, Group(G.table).generators) for G in factors]
    assert greedy == [True] * 9
    for G in factors:
        assert not G.generators.flags.writeable
        for H in factors:
            if G.order * H.order <= 512:
                P = direct_product(G, H)
                assert not P.generators.flags.writeable
                assert np.array_equal(P.generators, Group(P.table).generators)


def test_groups_keep_spanning_generators_and_reference_inverses(corpus_groups, homs_groups):
    """Every group's generators span it, the ones products read off their
    factors among them, and every inverse, a direct product's read off its
    factors', is the reference's, as a read-only int32 array."""
    for name, G in [*corpus_groups.items(), *homs_groups.items()]:
        assert oracles.ref_closure_mask(G.table, G.generators).all(), name
        t = G.table.tolist()
        assert G.inverse.tolist() == [oracles.ref_inverse(t, g) for g in range(G.order)], name
        assert G.inverse.dtype == np.int32 and not G.inverse.flags.writeable, name


def test_is_abelian_matches_the_whole_table(corpus_groups, homs_groups):
    """The generators' pairwise test against the whole table against its
    transpose, on the groups as built and fresh from their tables."""
    built = [
        cyclic(1),
        cyclic(8),
        elementary(3, 2),
        direct_product(cyclic(4), cyclic(2)),
        direct_product(dihedral(8), cyclic(3)),
    ]
    for G in [*corpus_groups.values(), *homs_groups.values(), *built]:
        want = oracles.ref_is_abelian(G.table, np.arange(G.order))
        assert G.is_abelian == want
        assert Group(G.table).is_abelian == want


def test_is_abelian_holds_no_square_table():
    """Comparing the table with its transpose held a 16 MiB mask here."""
    G = dihedral(4096)
    tracemalloc.start()
    try:
        assert not G.is_abelian
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def scan_group_axioms(G):
    """Direct scan of the four table axioms on a built group."""
    n, t = G.order, G.table
    rng = np.arange(n)
    assert t.shape == (n, n) and t.min() >= 0 and t.max() < n
    assert (t[0] == rng).all() and (t[:, 0] == rng).all()
    for rows in (t, t.T):
        assert all(sorted(r.tolist()) == rng.tolist() for r in rows)
    for a in range(n):
        assert (t[t[a], :] == t[a, t]).all()
    assert (t[rng, G.inverse] == 0).all()


def test_constructed_groups_satisfy_axioms():
    D16, U = dihedral(16), unitriangular4(2)
    pool = [
        D16,
        quaternion(8),
        group_from_permutations(4, [[1, 2, 3, 0], [0, 3, 2, 1]]),
        direct_product(dihedral(8), cyclic(3)),
        extraspecial(2, 32, "-"),
        extraspecial(3, 243, "+"),
        cyclic_wreath(2, 3),
        wreath(3),
        # groups by construction, which no validator re-checks
        quotient(D16, center(D16))[0],
        quotient(U, derived_subgroup(U))[0],
        Group(oracles.ref_as_group_table(D16.table, center(D16).elements)),
    ]
    for G in pool:
        scan_group_axioms(G)


def test_permutation_closure_is_deterministic():
    gens = [[1, 2, 3, 0], [0, 3, 2, 1]]
    A = group_from_permutations(4, gens)
    B = group_from_permutations(4, gens)
    assert (A.table == B.table).all()


def test_element_orders_divide_group_order():
    for G in (dihedral(16), quaternion(32), elementary(3, 2)):
        assert all(G.order % int(k) == 0 for k in G.element_orders)


@pytest.mark.parametrize("cell", [2**31, 2**32 + 1, -(2**31) - 1])
def test_cell_beyond_int32_is_named_not_wrapped(cell):
    """Cast to int32, 2**32 + 1 would wrap to 1, the right value of the
    cell, so the range is checked before the cast, in the input's dtype."""
    table = cyclic(4).table.tolist()
    assert table[2][3] == (2**32 + 1) % 2**32
    table[2][3] = cell
    for t in (table, np.array(table, dtype=np.int64)):
        with pytest.raises(NotLatinSquare, match=r"^entry at \(2, 3\) outside range\(4\)$"):
            group_from_cayley_table(t)


@pytest.mark.parametrize("cell", [2**32 + 1, 2**63, 2**64 - 1])
def test_uint64_cell_is_named_not_wrapped(cell):
    table = np.array(cyclic(4).table, dtype=np.uint64)
    table[2, 3] = cell
    with pytest.raises(NotLatinSquare, match=r"^entry at \(2, 3\) outside range\(4\)$"):
        group_from_cayley_table(table)


@pytest.mark.parametrize(
    "cell", [np.int64(2**32), np.int64(2**32 + 1), np.int64(-(2**31) - 1),
             np.uint64(2**32 + 1), np.uint64(2**64 - 1)]
)
def test_numpy_scalar_cell_beyond_int32_is_named_not_wrapped(cell):
    """Nested lists of numpy integer scalars: a C cast to int32 would wrap
    np.int64(2**32) to 0 and accept the table as a group."""
    table = [[np.int64(v) for v in row] for row in cyclic(4).table.tolist()]
    table[2][3] = cell
    with pytest.raises(NotLatinSquare, match=r"^entry at \(2, 3\) outside range\(4\)$"):
        group_from_cayley_table(table)


def test_array_rows_are_not_wrapped():
    """Rows that are int64 arrays convert to int64, not by a wrapping cast."""
    rows = [np.array(r, dtype=np.int64) for r in cyclic(4).table.tolist()]
    rows[2][3] = 2**32 + 1
    with pytest.raises(NotLatinSquare, match=r"^entry at \(2, 3\) outside range\(4\)$"):
        group_from_cayley_table(rows)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint16])
def test_narrow_integer_arrays_give_the_int64_table(dtype):
    want = group_from_cayley_table(dihedral(64).table.astype(np.int64)).table
    G = group_from_cayley_table(dihedral(64).table.astype(dtype))
    assert G.table.dtype == np.int32 and (G.table == want).all()


def test_int32_array_is_kept_without_a_copy():
    table = dihedral(16).table.copy()
    G = group_from_cayley_table(table)
    assert G.table is table and not table.flags.writeable
