"""Central automorphism enumeration against independent searches."""

import functools
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from centaut import abelian, central, groups, structure
from centaut.central import central_automorphism_count
from centaut.errors import EnumerationCapExceeded, NotPrimePower
from centaut.families import (
    cyclic,
    dihedral,
    elementary,
    extraspecial,
    heisenberg,
    modular,
    parse_group_spec,
    quaternion,
)
from centaut.groupio import default_corpus, read_manifest, resolve_source
from centaut.groups import group_from_permutations
from centaut.harness import analyze_source
from centaut.structure import center, derived_subgroup, quotient, structure_report

import oracles
from oracles import all_automorphisms


@pytest.mark.parametrize(
    "G,hom,aut,zinn,minimal",
    [
        (quaternion(8), 4, 4, 4, True),
        (dihedral(8), 4, 4, 4, True),
        (dihedral(16), 4, 4, 2, False),
        (cyclic(4), 4, 2, 1, False),
    ],
)
def test_known_counts(G, hom, aut, zinn, minimal):
    rep = central_automorphism_count(G)
    assert rep.hom_candidates == hom
    assert rep.aut_count == aut
    assert rep.z_inn_order == zinn
    assert rep.minimal is minimal
    assert central_automorphism_count(G).minimal is minimal


def test_cap_checked_before_enumeration():
    G = extraspecial(2, 32, "+")  # Hom(C2^4, C2): 16 candidate maps
    with pytest.raises(EnumerationCapExceeded):
        central_automorphism_count(G, hom_cap=15)
    rep = central_automorphism_count(G, hom_cap=16)
    assert rep.hom_candidates == 16


def test_cap_checked_before_any_power_table(monkeypatch):
    """A cap failure builds neither a hom block nor the coset labels."""
    calls = []
    tables = []
    real_homs = abelian.iter_hom_positions
    real_labels = central._coset_labels

    def spy_homs(*args):
        calls.append(args)
        return real_homs(*args)

    def spy_labels(*args):
        tables.append(args)
        return real_labels(*args)

    monkeypatch.setattr(abelian, "iter_hom_positions", spy_homs)
    monkeypatch.setattr(central, "_coset_labels", spy_labels)
    G = extraspecial(2, 32, "+")
    with pytest.raises(EnumerationCapExceeded):
        central_automorphism_count(G, hom_cap=15)
    assert calls == [] and tables == []
    assert central_automorphism_count(G, hom_cap=16).hom_candidates == 16
    assert len(calls) == len(tables) == 1


def _quotient_basis(G):
    """G/G' as a quotient Group Q, based by the reference basis search:
    (basis, row), basis.coordinates[k] the exponent tuple of the k-th
    element listed and row[x] the k of x's coset."""
    Q, proj = quotient(G, derived_subgroup(G))
    inv = oracles.ref_abelian_invariants(Q.table, G.prime)
    elements, members = oracles.ref_section_basis(Q, np.arange(Q.order) == 0, inv)
    coords = np.array(oracles.ref_c_order_tuples(inv), dtype=np.int32).reshape(Q.order, -1)
    row = np.empty(Q.order, dtype=np.int64)
    row[members[:, 0]] = np.arange(Q.order)
    return abelian.AbelianBasis(inv, elements, coords), row[proj]


def _ref_central_counts(G):
    """The numbers of candidate and of bijective maps x -> x*f(xG'), f
    from the per-map reference loop."""
    basis, row = _quotient_basis(G)
    t = G.table.tolist()
    homs = oracles.ref_iter_homomorphisms(
        basis.coordinates.tolist(),
        G.prime,
        basis.invariants.exponents,
        t,
        [int(z) for z in center(G).elements],
    )
    maps = [[t[x][f[q]] for x, q in enumerate(row.tolist())] for f in homs]
    return len(maps), sum(len(set(m)) == G.order for m in maps)


@pytest.mark.parametrize(
    "spec",
    [
        "dihedral(16)",
        "modular(2,32)",
        "dihedral(16) x cyclic(4)",
        "heisenberg(3,1) x cyclic(3)",
        "extraspecial(2,32,+) x cyclic(2)",
        "modular(5,625)",
        "modular(2,64)",  # |G'| = 2: cosets of two elements
        "cyclic(4) x cyclic(2)",  # abelian: cosets of one element
        "heisenberg(5,1)",
    ],
)
def test_block_size_changes_no_count_and_no_order(spec, monkeypatch):
    """Counts whatever the block size."""
    G = parse_group_spec(spec)
    want = _ref_central_counts(G)
    for cells in (1, 10**6, groups._BLOCK_CELLS):
        monkeypatch.setattr(groups, "_BLOCK_CELLS", cells)
        rep = central_automorphism_count(G)
        assert (rep.hom_candidates, rep.aut_count) == want, cells


def _match_quotient_route(G):
    """Counts against the enumeration through the quotient Group G/G'
    (_quotient_basis): each map's images scattered back to x, 256 maps a
    block, and checked by a full scan."""
    rep = central_automorphism_count(G)
    basis, row = _quotient_basis(G)
    tgt = abelian.target_array(center(G).elements)
    images = abelian._allowed_images(basis.invariants, G, tgt)
    T = groups.subset_table(G.table, tgt)
    x = np.arange(G.order)
    total = count = 0
    for f in oracles.hom_positions(basis, T, images, 256):
        sigma = G.table[x, tgt[f[:, row]]]
        total += len(f)
        count += int(oracles.ref_bijective_rows(sigma).sum())
    assert (rep.hom_candidates, rep.aut_count) == (total, count)


def test_central_maps_match_quotient_route(corpus_groups, homs_groups):
    groups = [*corpus_groups.items(), *homs_groups.items()]
    assert len(groups) == 54 + 14
    for name, G in groups:
        try:
            _match_quotient_route(G)
        except AssertionError as e:
            raise AssertionError(name) from e


@pytest.mark.parametrize("spec", ["dihedral(4096)", "extraspecial(2,2048,+)"])
def test_central_maps_match_quotient_route_at_large_orders(spec):
    _match_quotient_route(parse_group_spec(spec))


TESTS = Path(__file__).resolve().parent

# entries whose |Z|^k * |G| exceeds the table-only oracle's bound of 5e7
# cells: heis5xc5 (in the corpus and in homs) 25^4 * 625, heis3xheis3
# 9^6 * 729 and heis3xc9 27^4 * 243
ORACLE_SKIPS = {"heis5xc5", "heis3xheis3", "heis3xc9"}


def _entries():
    """(name, source) of the corpus, the homs workload and the witnesses."""
    paths = (TESTS.parent / "perfbench" / "homs.json", TESTS / "witnesses.json")
    manifests = (default_corpus(), *map(read_manifest, paths))
    return [(e.name, e.source) for m in manifests for e in m.entries]


@functools.cache
def _oracle_counts():
    """name -> the number of maps oracles.ref_central_automorphisms finds,
    on groups resolved here, or None where it is over its bound."""
    counts = {}
    for name, source in _entries():
        try:
            counts[name] = len(oracles.ref_central_automorphisms(resolve_source(source)))
        except ValueError:
            counts[name] = None
    return counts


def _oracle_mismatches():
    """name -> (oracle count, aut_count or the error raised) for each entry
    where the count, on a freshly resolved group, is not the oracle's."""
    out = {}
    for name, source in _entries():
        want = _oracle_counts()[name]
        if want is None:
            continue
        try:
            got = central_automorphism_count(resolve_source(source)).aut_count
        except RuntimeError as e:
            got = str(e)
        if got != want:
            out[name] = (want, got)
    return out


def test_table_only_oracle_matches_every_count():
    """The maps that G's table and generators alone give (no structure
    mask, basis or label) number aut_count on every corpus, homs and
    witness entry within the oracle's bound."""
    assert len(_entries()) == 54 + 14 + 3
    assert {name for name, n in _oracle_counts().items() if n is None} == ORACLE_SKIPS
    assert _oracle_mismatches() == {}


def test_table_only_oracle_sees_a_wrong_derived_subgroup(monkeypatch):
    """With G' read as Phi(G) = G'G^p, the rules and the count, which
    read the same mask, agree on a wrong answer for m16, m32, m81 and
    m625; the oracle's count differs there and on two homs groups, and
    three more counts fall below |Z_2/Z| and raise."""
    monkeypatch.setattr(structure, "_derived_mask", lambda G: oracles.ref_frattini_mask(G.table, G.prime))
    got = _oracle_mismatches()
    assert set(got) == {"m16", "m32", "heis4", "mc32_8b", "m81", "heis9", "m625", "heis4xc4", "m81xc3"}
    assert {name for name, (_, count) in got.items() if isinstance(count, str)} == {"heis4", "mc32_8b", "heis9"}


def test_a_count_below_the_inner_automorphisms_raises(monkeypatch):
    """Conjugation by each element of Z_2 is a central automorphism, so a
    count below |Z_2/Z| is a fault: with one bijective label row dropped,
    quaternion(8) (4 == 4, one label row) raises, never reports 0 maps or
    a verdict.  The coset labels are read before the patch."""
    G = quaternion(8)
    label = central._central_candidates(G, central.DEFAULT_HOM_CAP)[1]
    real = central._bijective_rows

    def drop_one(sigma):
        rows = real(sigma)
        rows[np.argmax(rows)] = False
        return rows

    monkeypatch.setattr(central, "_coset_labels", lambda *args: label)
    monkeypatch.setattr(central, "_bijective_rows", drop_one)
    with pytest.raises(RuntimeError, match=r"^0 central automorphisms, below \|Z_2/Z\| = 4$"):
        central_automorphism_count(G)


def test_pipeline_takes_no_quotient(monkeypatch):
    """The enumeration walks G's own cosets: no caller on the analyze path
    builds a quotient Group, which the spy would see."""
    calls = []
    real = structure.quotient

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, "quotient", spy)
    spec = "dihedral(16) x cyclic(4)"
    G = parse_group_spec(spec)
    central_automorphism_count(G)
    assert analyze_source(spec, f"builtin:{spec}").status == "ok"
    assert calls == []
    structure.quotient(G, derived_subgroup(G))  # the spy sees calls
    assert len(calls) == 1


def test_enumeration_memory_at_large_derived_subgroup():
    """dihedral(4096): |G'| = 1024 and 4 cosets.  Walking G's cosets holds
    the 4 x 1024 members and the 4 x 2 coset labels; building G/G' as a
    Group took two 4096 x 1024 gathers and peaked at 36 MiB."""
    G = dihedral(4096)
    structure_report(G)
    tracemalloc.start()
    try:
        rep = central_automorphism_count(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.hom_candidates, rep.aut_count) == (4, 4)
    assert peak < 4 * 2**20, peak


def test_enumeration_memory_is_bounded_by_the_block():
    G = parse_group_spec("heisenberg(5,1) x cyclic(5)")  # 15,625 candidates
    central_automorphism_count(G)  # fill the group's structure memo
    tracemalloc.start()
    try:
        rep = central_automorphism_count(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.hom_candidates == 15625
    assert peak < 4 * 2**20


def test_coset_table_memory_at_small_derived_subgroup():
    """|G'| = 2, |Z| = 512: the n x |Z| products, 4 MiB as int32, are
    checked as they are read and never kept, so the enumeration stays
    under twice that; keeping them took it to 10 MiB."""
    G = modular(2, 2048)
    central_automorphism_count(G)  # fill the group's structure memo
    tracemalloc.start()
    try:
        rep = central_automorphism_count(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.hom_candidates, rep.aut_count) == (1024, 1024)
    assert peak < 8 * 2**20


def test_enumeration_memory_at_order_4096():
    """|Z| = 1024, a = 2048: the labels are 8 MiB as int32, and the first
    hom table 4 MiB, built for the 512 classes of Z mod G' n Z rather than
    all 1024 images (8 MiB, 24.1 MiB peak).  The fold acts on each block's
    states, never on that table, so it adds no table beside it."""
    G = modular(2, 4096)
    central_automorphism_count(G)  # fill the group's structure memo
    tracemalloc.start()
    try:
        rep = central_automorphism_count(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.hom_candidates, rep.aut_count) == (2048, 2048)
    assert peak <= 18.17 * 2**20, peak


def _label_fold_matches_positions(G):
    """Each block of the label fold against label[c, f[c]] read from the
    position fold's block (oracles.position_action, offset by a), on every
    allowed image and on the class representatives the count takes;
    returns the two map counts."""
    members, label, images, homs = central._central_candidates(G, central.DEFAULT_HOM_CAP)
    reps, _ = central._label_classes(label, images)
    c = np.arange(len(members))
    tgt = abelian.target_array(center(G).elements)
    act = oracles.position_action(groups.subset_table(G.table, tgt), len(members))
    totals = []
    for allowed in (images, reps):
        total = 0
        for f, state in itertools.zip_longest(homs(allowed, act), homs(allowed, label)):
            f = f - np.int32(len(members))
            assert state.dtype == np.int32
            assert np.array_equal(state, label[c, f])
            total += len(f)
        totals.append(total)
    return totals


def test_label_fold_matches_positions(corpus_groups, homs_groups):
    groups = [*corpus_groups.items(), *homs_groups.items()]
    assert len(groups) == 54 + 14
    for name, G in groups:
        rep = central_automorphism_count(G)
        assert _label_fold_matches_positions(G) == [rep.hom_candidates, rep.label_rows], name


def _candidates_read_their_class_rows(G):
    """Every candidate's label row against the row of its class
    representatives, the one row the count tests for it, and each
    representative row's multiplicity against the candidates that read
    it; returns the candidate count."""
    _, label, images, homs = central._central_candidates(G, central.DEFAULT_HOM_CAP)
    reps, sizes = central._label_classes(label, images)
    shown = np.concatenate(list(homs(reps, label)))
    # digit j of basis element i -> the digit of its image's class
    # representative, matched by coset 0's label
    to_rep = [
        np.searchsorted(label[0, r], label[0, y], sorter=np.argsort(label[0, r]))
        for y, r in zip(images, reps)
    ]
    for y, r, d in zip(images, reps, to_rep):
        assert np.array_equal(label[:, r[d]], label[:, y])
    read = np.zeros(len(shown), dtype=np.int64)
    start = 0
    for state in homs(images, label):
        digits = np.unravel_index(np.arange(start, start + len(state)), [len(y) for y in images])
        at = np.ravel_multi_index([d[k] for d, k in zip(to_rep, digits)], [len(r) for r in reps])
        assert np.array_equal(state, shown[at])
        read += np.bincount(at, minlength=len(shown))
        start += len(state)
    weight = np.ones(len(shown), dtype=np.int64)
    for size, d in zip(sizes, np.unravel_index(np.arange(len(shown)), [len(r) for r in reps])):
        weight *= size[d]
    assert np.array_equal(read, weight)
    return start


def test_candidates_read_their_class_rows(corpus_groups, homs_groups):
    groups = [*corpus_groups.items(), *homs_groups.items()]
    for name, G in groups:
        total = _candidates_read_their_class_rows(G)
        assert total == central_automorphism_count(G).hom_candidates, name


@pytest.mark.parametrize("cells", [1, groups._BLOCK_CELLS])
@pytest.mark.parametrize("row", [1, -1])
def test_unequal_label_columns_of_one_coset_raise_never_count(monkeypatch, row, cells):
    """Two label columns that agree at coset 0 but not in one other row,
    row 1 or the last, fail the class check, in one row block or in one
    block per row: the count raises RuntimeError rather than count one
    row for maps whose rows differ."""
    real = central._coset_labels

    def patched(G, members, tgt):
        label = real(G, members, tgt)
        v = np.flatnonzero(label[0] == label[0, 0])[1]  # a second z_v in G'
        label[row, v] = (label[row, v] + 1) % len(label)
        return label

    monkeypatch.setattr(central, "_coset_labels", patched)
    monkeypatch.setattr(groups, "_BLOCK_CELLS", cells)
    G = parse_group_spec("heisenberg(3,1) x cyclic(3)")
    with pytest.raises(RuntimeError, match="label columns of one coset differ"):
        central_automorphism_count(G)


# label rows the count tests, per homs group: 125 each for
# heisenberg(5,1) x cyclic(5) and extraspecial(5,125,-) x cyclic(5),
# 1 for heisenberg(3,1) x heisenberg(3,1), 256 for dihedral(8) x elementary(2,2)
LABEL_ROWS = {"heis5xc5": 125, "es125-xc5": 125, "heis3xheis3": 1, "d8xe4": 256}


def test_count_tests_one_label_row_per_class(corpus_groups, homs_groups):
    """The label rows each count tests against the product over G/G''s
    invariants p^e of the classes of Z mod Z n G' with an element of order
    dividing p^e (oracles.ref_class_rows), pinned on four homs groups and
    summed over each workload: a count of the work, where a time would
    drift with the host."""
    sums = []
    for named in (corpus_groups, homs_groups):
        rows = {name: central_automorphism_count(G).label_rows for name, G in named.items()}
        for name, G in named.items():
            assert rows[name] == oracles.ref_class_rows(G), name
        sums.append(sum(rows.values()))
    assert {name: rows[name] for name in LABEL_ROWS} == LABEL_ROWS
    assert sums == [820, 2141]


def _label_masks_match_scatter(G):
    """Every candidate's label verdict against the n-wide scatter of its
    images, built here from G's table; returns the candidate count."""
    members, label, images, homs = central._central_candidates(G, central.DEFAULT_HOM_CAP)
    tgt = abelian.target_array(center(G).elements)
    coset = np.empty(G.order, dtype=np.int64)  # the row of members holding x
    coset[members] = np.arange(len(members))[:, None]
    x = np.arange(G.order)
    act = oracles.position_action(groups.subset_table(G.table, tgt), len(members))
    total = 0
    for f, state in itertools.zip_longest(homs(images, act), homs(images, label)):
        f = f - np.int32(len(members))
        sigma = G.table[x, tgt[f[:, coset]]]
        assert np.array_equal(central._bijective_rows(state), oracles.ref_bijective_rows(sigma))
        total += len(f)
    return total


def test_label_test_matches_scatter_on_corpus(corpus_groups):
    for name, G in corpus_groups.items():
        total = _label_masks_match_scatter(G)
        assert total == central_automorphism_count(G).hom_candidates, name


@pytest.mark.parametrize(
    "spec",
    [
        "heisenberg(5,1) x cyclic(5)",
        "heisenberg(3,1) x heisenberg(3,1)",
        "dihedral(16) x elementary(2,2)",
        "modular(3,81) x cyclic(3)",
    ],
)
def test_label_test_matches_scatter_on_hom_workload(spec):
    G = parse_group_spec(spec)
    assert _label_masks_match_scatter(G) == central_automorphism_count(G).hom_candidates


def _move_to_another_coset(table, members, tgt):
    """One product x * z, x in coset 1, becomes a member of a coset that
    x * z is not in."""
    x, z = members[1, 1], tgt[1]
    table[x, z] = next(c[0] for c in members if table[x, z] not in c)


def _repeat_in_coset(table, members, tgt):
    """Coset 1 times z gets one of its products twice, losing another."""
    z = tgt[1]
    table[members[1, 1], z] = table[members[1, 0], z]


def _identity_onto_coset_2(table, members, tgt):
    """Coset 1 times the identity is coset 2."""
    table[members[1], 0] = members[2]


def _last_member_onto_first(table, members, tgt):
    """Coset 1 times the last target: its last member's product becomes
    the first member's, the last cell the checks read in that row."""
    z = tgt[-1]
    table[members[1, -1], z] = table[members[1, 0], z]


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_move_to_another_coset, "row leaves"),
        (_repeat_in_coset, "repeats an element"),
        (_identity_onto_coset_2, "is not coset c"),
        (_last_member_onto_first, "repeats an element"),
    ],
)
def test_bad_coset_table_raises_never_counts(monkeypatch, corrupt, message):
    """Each check of the label test on its own: products read from a
    table that breaks it raise RuntimeError from the count, on a group
    with 27 cosets of |G'| = 3 and |Z| = 9 and on dihedral(16) (4 cosets,
    |G'| = 4, |Z| = 2).  The cosets and targets are the true group's."""
    real = central._coset_labels

    def corrupted(G, members, tgt):
        table = G.table.copy()
        corrupt(table, members, tgt)
        return real(groups.Group(table), members, tgt)

    monkeypatch.setattr(central, "_coset_labels", corrupted)
    for spec in ("heisenberg(3,1) x cyclic(3)", "dihedral(16)"):
        with pytest.raises(RuntimeError, match=message):
            central_automorphism_count(parse_group_spec(spec))


def test_rejects_non_prime_power_order():
    S3 = group_from_permutations(3, [[1, 2, 0], [1, 0, 2]])
    with pytest.raises(NotPrimePower):
        central_automorphism_count(S3)


@pytest.mark.parametrize(
    "G,count",
    [
        (quaternion(8), 24),
        (dihedral(8), 8),
        (cyclic(8), 4),
        (elementary(2, 2), 6),
        (elementary(2, 3), 168),
    ],
)
def test_all_automorphisms_counts(G, count):
    auts = all_automorphisms(G)
    assert len(auts) == count
    seen = {tuple(int(v) for v in a) for a in auts}
    assert len(seen) == count
    # sorted lexicographically, identity first
    assert [a.tolist() for a in auts] == sorted(a.tolist() for a in auts)
    assert auts[0].tolist() == list(range(G.order))


def test_all_automorphisms_matches_permutation_scan():
    for G in (quaternion(8), dihedral(8), cyclic(8), elementary(2, 2)):
        got = {tuple(int(v) for v in a) for a in all_automorphisms(G)}
        assert got == set(oracles.ref_automorphisms(G.table.tolist()))


def test_all_automorphisms_order_limit():
    with pytest.raises(ValueError):
        all_automorphisms(dihedral(32), order_limit=16)


def test_extraspecial32_types_are_distinct_and_both_minimal():
    # involution census tells the two order-32 types apart
    plus, minus = extraspecial(2, 32, "+"), extraspecial(2, 32, "-")
    assert int((plus.element_orders == 2).sum()) == 19
    assert int((minus.element_orders == 2).sum()) == 11
    assert plus.element_orders.max() == minus.element_orders.max() == 4
    assert central_automorphism_count(plus).minimal and central_automorphism_count(minus).minimal


def test_extraspecial_odd_types_differ_by_exponent():
    assert extraspecial(3, 27, "+").element_orders.max() == 3
    assert extraspecial(3, 27, "-").element_orders.max() == 9
    assert central_automorphism_count(extraspecial(3, 27, "+")).minimal
    assert central_automorphism_count(modular(3, 27)).minimal


def test_heisenberg_mod4_minimal():
    G = heisenberg(2, 2)
    rep = central_automorphism_count(G)
    assert rep.minimal
    assert rep.z_inn_order == rep.aut_count
