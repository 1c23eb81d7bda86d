"""Subgroup masks, the upper series, quotients and the structure report."""

import functools
import gc
import re
import tracemalloc
import weakref
from typing import Callable

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centaut import structure
from centaut.abelian import target_array
from centaut.central import central_automorphism_count
from centaut.errors import (
    CentautError,
    IndexOutOfRange,
    InvalidPermutation,
    NotClosed,
    NotNilpotent,
    NotNormal,
    NotPrimePower,
)
from centaut.families import (
    cyclic,
    dihedral,
    elementary,
    heisenberg,
    modular,
    parse_group_spec,
    quaternion,
)
from centaut.groups import (
    Group,
    Permutation,
    greedy_generators,
    group_from_permutations,
    subset_table,
)
from centaut.structure import (
    center,
    commutator_table,
    derived_subgroup,
    quotient,
    structure_report,
    upper_central_orders,
)

import oracles


def test_center_matches_reference():
    for G in (quaternion(8), dihedral(16), heisenberg(3, 1)):
        assert np.flatnonzero(center(G)).tolist() == oracles.ref_center(G.table.tolist())


def _greedy_span(G, seed):
    """The elements greedy_generators reaches from {0} over the seed."""
    reached = np.arange(G.order) == 0
    for _ in greedy_generators(G.table, seed, reached):
        pass
    return np.flatnonzero(reached).tolist()


def test_closure_matches_reference():
    G = dihedral(16)
    t = G.table.tolist()
    for seed in ([], [1], [2], [3, 8], [9], [2, 9]):
        assert _greedy_span(G, seed) == oracles.ref_closure(t, seed)


CLOSURE_GROUPS = {
    "dihedral(16)": dihedral(16),
    "quaternion(16)": quaternion(16),
    "heisenberg(3,1)": heisenberg(3, 1),
    "S4": group_from_permutations(4, [[1, 2, 3, 0], [1, 0, 2, 3]]),
}


@given(st.sampled_from(sorted(CLOSURE_GROUPS)), st.data())
def test_closure_of_drawn_seeds_matches_reference(name, data):
    G = CLOSURE_GROUPS[name]
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    assert _greedy_span(G, seed) == oracles.ref_closure(G.table.tolist(), seed)


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_generators_are_greedy_and_generate(name):
    G = CLOSURE_GROUPS[name]
    gens = G.generators.tolist()
    assert gens == Group(G.table).generators.tolist()  # as validation handed it over
    t = G.table.tolist()
    for i, g in enumerate(gens):
        span = oracles.ref_closure(t, gens[:i])
        assert g == min(set(range(G.order)) - set(span))
    assert oracles.ref_closure(t, gens) == list(range(G.order))
    assert 2 ** len(gens) <= G.order


def _index_entry_points(G: Group) -> list[tuple[type, Callable]]:
    """(named error, call) for every entry point that reads a sequence of
    element indices or image arrays of G.  Each sequence is read as |G|
    images where it must be."""
    return [
        (InvalidPermutation, lambda vs: Permutation(vs).images),
        (InvalidPermutation, lambda vs: group_from_permutations(len(vs), [vs]).order),
        (IndexOutOfRange, lambda vs: commutator_table(G, vs).tolist()),
    ]


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _named(v) -> str:
    """How the index reader names v: an integer by its value, else by repr."""
    return re.escape(str(int(v)) if _is_int(v) else repr(v)) + r" (is not an integer|outside range)"


U64_MAX = np.uint64(2**64 - 1)


@pytest.mark.parametrize(
    "bad", [1.5, "1", True, np.float64(2.0), np.True_, -1, 4, 2**70, U64_MAX]
)
def test_non_integer_indices_are_named_not_truncated(bad):
    """int() would read 1.5 and True as 1, and np.asarray("1", int64) as 1;
    a table read at -1 wraps to the last element, 2**70 overflows int64,
    and a uint64 array holding 2**64 - 1 wraps in a cast to int64.  Every
    index entry point refuses each of them, 4 being |G|, by its named class."""
    G = cyclic(4)
    seq = np.array([0, bad, 2, 3], dtype=np.uint64) if bad is U64_MAX else [0, bad, 2, 3]
    for error, call in _index_entry_points(G):
        with pytest.raises(error, match=_named(bad)):
            call(seq)
    if not _is_int(bad):  # an array of them has a non-integer dtype
        with pytest.raises(IndexOutOfRange, match="is not an integer"):
            commutator_table(G, np.array([bad]))
    assert (commutator_table(G, np.array([2], dtype=np.uint8)) == commutator_table(G, [2])).all()


def _outcome(call, arg):
    """What call(arg) returns, or its exception's class and message."""
    try:
        return call(arg)
    except Exception as e:  # compared, not hidden
        return type(e), str(e)


_INDEX_VALUES = st.one_of(
    st.integers(-2, 9),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.booleans(),
    st.builds(lambda v, t: t(v), st.integers(-2, 127), st.sampled_from([np.int8, np.int64])),
    st.builds(np.uint64, st.sampled_from([0, 7, 8, 2**64 - 1])),
)


@given(
    values=st.lists(_INDEX_VALUES, min_size=8, max_size=8)
    | st.lists(st.integers(0, 7), min_size=8, max_size=8),
    as_array=st.booleans(),
)
def test_index_entry_points_read_drawn_values_as_python_ints(values, as_array):
    """On integers in range(8), numpy or Python, in a list or an array, each
    entry point returns or raises exactly as on the same Python ints; given
    any other value it raises its named CentautError naming the first such
    value, and never another exception."""
    G = dihedral(8)
    bad = next((v for v in values if not (_is_int(v) and 0 <= v < G.order)), None)
    arg = np.array(values, dtype=np.uint16) if as_array and bad is None else values
    for error, call in _index_entry_points(G):
        if bad is None:
            assert _outcome(call, arg) == _outcome(call, [int(v) for v in values])
        else:
            with pytest.raises(error, match=_named(bad)):
                call(arg)


def _mask(n, elements):
    return np.isin(np.arange(n), elements)


def test_quotient_checks_the_mask():
    """quotient and check_normal take a bool mask of shape (|G|,) holding
    0, else IndexOutOfRange; quotient refuses one not closed or not normal
    by class."""
    G = dihedral(8)  # Z = {0, 4}, and 1 is a reflection
    shape = r"^a subgroup mask is a bool array of shape \(8,\) holding 0$"
    bad = [
        (IndexOutOfRange, shape, _mask(4, [0])),  # wrong shape
        (IndexOutOfRange, shape, _mask(8, [0]).reshape(1, 8)),
        (IndexOutOfRange, shape, _mask(8, [0]).astype(np.int64)),  # wrong dtype
        (IndexOutOfRange, shape, [True] + [False] * 7),
        (IndexOutOfRange, shape, _mask(8, [4])),  # no identity
        (NotClosed, r"1\*4 escapes", _mask(8, [0, 1, 4])),
        (NotNormal, "conjugate of 1 by 2 escapes", _mask(8, [0, 1])),
    ]
    for error, match, N in bad:
        with pytest.raises(error, match=match):
            quotient(G, N)
        if error is IndexOutOfRange:  # check_normal read an int mask as not normal
            with pytest.raises(error, match=match):
                structure.check_normal(G, N)
    assert quotient(G, _mask(8, [0, 4]))[0].order == 4


def test_open_sets_raise_one_named_error():
    """A subgroup mask and a set of hom targets that are not closed raise
    the same NotClosed, a CentautError and a ValueError, naming the product."""
    G = cyclic(8)
    calls = [
        lambda: quotient(G, _mask(8, [0, 1])),
        lambda: subset_table(G.table, target_array([0, 1])),
        lambda: quotient(G, _mask(8, [0, 2, 4, 5])),
    ]
    for call, product in zip(calls, ["1*1", "1*1", "2*4"]):
        with pytest.raises(NotClosed, match=re.escape(f"set not closed: {product} escapes")):
            call()
    assert issubclass(NotClosed, CentautError) and issubclass(NotClosed, ValueError)


def test_commutator_table_matches_reference():
    G = quaternion(16)
    t = G.table.tolist()
    comm = commutator_table(G, range(16))
    for a in range(0, 16, 3):
        for b in range(16):
            assert comm[a, b] == oracles.ref_commutator(t, a, b)


def test_derived_subgroups():
    assert derived_subgroup(quaternion(8)).sum() == 2
    assert derived_subgroup(dihedral(16)).sum() == 4
    assert derived_subgroup(cyclic(8)).sum() == 1
    # Q8: derived subgroup equals the center
    G = quaternion(8)
    assert (derived_subgroup(G) == center(G)).all()


def test_central_series_dihedral16():
    G = dihedral(16)
    assert upper_central_orders(G) == [1, 2, 4, 16]
    # consecutive terms nest
    masks = structure._upper_masks(G)
    for a, b in zip(masks, masks[1:]):
        assert not (a & ~b).any()


def test_central_series_rejects_non_nilpotent():
    """The upper series of S3 stalls at Z(S3) = 1, and the report's reader
    of it refuses the group."""
    S3 = group_from_permutations(3, [[1, 2, 0], [1, 0, 2]])
    assert S3.order == 6
    assert upper_central_orders(S3) == [1]
    with pytest.raises(NotNilpotent, match="stalls at order 1 < 6"):
        structure._nilpotent_masks(S3)


def test_derived_data_is_computed_once_and_read_only():
    G = dihedral(16)
    assert G.generators is G.generators
    structure_report(G)
    central_automorphism_count(G)
    for value in vars(G).values():
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                assert not part.flags.writeable
    for mask in (center(G), derived_subgroup(G)):
        assert mask.dtype == bool and mask.shape == (16,) and not mask.flags.writeable


def test_analysed_group_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        G = dihedral(16)
        structure_report(G)
        central_automorphism_count(G)
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()


def test_frattini_and_generator_count():
    """d(G) from the report, and |Phi(G)| = |G| / p^d against the
    Frattini subgroup's full-table reference."""
    for G, d in ((dihedral(8), 2), (cyclic(8), 1), (elementary(2, 3), 3), (heisenberg(3, 1), 2)):
        rep = structure_report(G)
        assert rep.d == d == oracles.ref_generator_count(G.table, G.prime)
        assert oracles.ref_frattini_mask(G.table, G.prime).sum() == G.order // G.prime**d
    with pytest.raises(NotPrimePower):
        structure_report(group_from_permutations(3, [[1, 2, 0], [1, 0, 2]]))


def test_no_generating_set_beats_frattini_count():
    # d = 2 groups: no single element generates
    for G in (dihedral(8), heisenberg(3, 1)):
        assert structure_report(G).d == 2
        assert all(oracles.ref_closure_mask(G.table, [g]).sum() < G.order for g in range(G.order))
    # d = 1: some single element does
    G = cyclic(9)
    assert structure_report(G).d == 1
    assert any(oracles.ref_closure_mask(G.table, [g]).all() for g in range(9))


def test_quotient_projection_is_homomorphism():
    G = dihedral(16)
    Q, proj = quotient(G, center(G))
    assert Q.order == 8 and not Q.is_abelian
    # proj(x*y) == proj(x)*proj(y) for all pairs
    assert (proj[G.table] == Q.table[proj[:, None], proj[None, :]]).all()


def test_quotient_rejects_non_normal():
    G = dihedral(8)
    refl = next(
        x for x in range(1, 8) if G.element_orders[x] == 2 and not center(G)[x]
    )
    with pytest.raises(NotNormal, match=r"^conjugate of 1 by 2 escapes the subgroup$"):
        quotient(G, _mask(8, [0, refl]))


def test_quotient_matches_reference_loop():
    """Every cyclic subgroup: the same NotNormal pair, or the same Q and projection."""
    for G in (dihedral(16), quaternion(16), modular(2, 16), heisenberg(3, 1)):
        t = G.table.tolist()
        for x in range(G.order):
            members = oracles.ref_closure(t, [x])
            N = _mask(G.order, members)
            escape = oracles.ref_first_escape(t, members)
            if escape is None:
                Q, proj = quotient(G, N)
                assert (Q.table.tolist(), proj.tolist()) == oracles.ref_quotient(t, members)
            else:
                g, y = escape
                with pytest.raises(NotNormal, match=rf"^conjugate of {y} by {g} escapes"):
                    quotient(G, N)


def test_abelianization_invariants():
    """The kept invariants of G/G', and those of the quotient Group's
    walked orders."""
    for G, exps in ((dihedral(16), (1, 1)), (modular(2, 16), (2, 1))):
        assert structure.abelianization_invariants(G).exponents == exps
        Q, _ = quotient(G, derived_subgroup(G))
        assert oracles.ref_abelian_invariants(Q.table, G.prime).exponents == exps


def test_structure_report_dihedral16():
    rep = structure_report(dihedral(16))
    assert rep.order == 16 and rep.prime == 2 and rep.order_exp == 4
    assert rep.nilpotency_class == 3 and rep.coclass == 1
    assert rep.d == 2 and rep.d_center == 1 and rep.d_inner_center == 1
    assert rep.abelianization.exponents == (1, 1)
    assert rep.center.exponents == (1,)
    assert rep.inner_center.exponents == (1,)
    assert rep.center_in_derived
    assert rep.second_center_abelian


def test_structure_report_heisenberg():
    rep = structure_report(heisenberg(2, 1))
    assert rep.nilpotency_class == 2 and rep.coclass == 1
    assert rep.abelianization.exponents == (1, 1)
    assert rep.inner_center.exponents == (1, 1)
    assert rep.center_in_derived
    rep = structure_report(heisenberg(2, 2))  # over Z/4, order 64
    assert rep.order == 64 and rep.nilpotency_class == 2
    assert rep.center.exponents == (2,)
    assert rep.center_in_derived


@pytest.fixture(scope="module")
def large():
    """parse_group_spec once per spec: an order-4096 build validates for seconds."""
    return functools.cache(parse_group_spec)


# class, d, Z, Z_2/Z and G/G'
LARGE = {
    "dihedral(4096)": (11, 2, (1,), (1,), (1, 1)),
    "metacyclic(64,64,3)": (6, 2, (2, 1), (1, 1), (6, 1)),
    "extraspecial(2,2048,+)": (2, 10, (1,), (1,) * 10, (1,) * 10),
    "extraspecial(3,2187,+)": (2, 6, (1,), (1,) * 6, (1,) * 6),
}


def _upper_term(G, i):
    """The elements of Z_i(G), from the report's upper series masks."""
    return np.flatnonzero(structure._upper_masks(G)[i])


@pytest.mark.parametrize("spec", list(LARGE))
def test_large_order_structure(large, spec):
    G = large(spec)
    rep = structure_report(G)
    assert (
        rep.nilpotency_class,
        rep.d,
        rep.center.exponents,
        rep.inner_center.exponents,
        rep.abelianization.exponents,
    ) == LARGE[spec]
    assert len(upper_central_orders(G)) == rep.nilpotency_class + 1
    for sub in (_upper_term(G, 1), _upper_term(G, 2), np.flatnonzero(derived_subgroup(G))):
        assert structure._commutes(G, sub) == oracles.ref_is_abelian(G.table, sub)


# oracles.table_sha of each LARGE table, taken from the builders before they
# were moved to int32; the extraspecial ones from the coordinate formula that
# replaced the central products.
LARGE_TABLE_SHA = {
    "dihedral(4096)": "e2a46d143f39bcb6",
    "metacyclic(64,64,3)": "dd4217d8b59f0035",
    "extraspecial(2,2048,+)": "47755b21b1367d3a",
    "extraspecial(3,2187,+)": "f601e134cd70db57",
}


@pytest.mark.parametrize("spec", list(LARGE))
def test_large_order_tables_are_int32_and_unchanged(large, spec):
    table = large(spec).table
    assert table.dtype == np.int32 and oracles.table_sha(table) == LARGE_TABLE_SHA[spec]


def test_structure_report_holds_no_square_table(large):
    """An n x n int32 array at order 4096 is 64 MiB; the report stays far below."""
    G = Group(large("metacyclic(64,64,3)").table)  # nothing derived yet
    tracemalloc.start()
    try:
        structure_report(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_is_abelian_holds_no_square_table(large):
    """At class 2, Z_2 = G: the |H| x |H| block check took 20 MiB here."""
    G = large("extraspecial(2,2048,+)")
    z2 = _upper_term(G, 2)
    assert len(z2) == G.order
    tracemalloc.start()
    try:
        assert not structure._commutes(G, z2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_quotient_table_is_born_int32(large):
    """An |Q| x |Q| int64 temporary and Group's int32 copy of it peaked at
    48.1 MiB here; gathering through an int32 projection peaks at 32.1."""
    G = large("dihedral(4096)")
    Z = center(G)
    tracemalloc.start()
    try:
        Q, proj = quotient(G, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Q.order == 2048 and proj.dtype == np.int32
    assert peak < 40 * 2**20


def test_structure_report_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        structure_report(group_from_permutations(3, [[1, 2, 0], [1, 0, 2]]))
