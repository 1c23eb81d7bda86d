"""Light's associativity test against the full triple loop of the oracle.

group_from_cayley_table checks a generating set and names a violation only
after one is found; the oracle scans every triple.  On loops with identity 0
both must reach the same verdict and, for a non-group, name the same first
triple.  The validator accepts a table by the group axioms without a Latin
check, and reruns the ordered checks on a table it refuses; on any in-range
table its verdict and message must be those of the ordered checks.
"""

import functools
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centaut import groups
from centaut.errors import CentautError, NotAssociative, NotLatinSquare
from centaut.families import (
    cyclic,
    dihedral,
    elementary,
    parse_group_spec,
    quaternion,
    semidihedral,
)
from centaut.groups import direct_product, greedy_generators, group_from_cayley_table, row_blocks

import oracles


def validator_verdict(table):
    try:
        group_from_cayley_table(table)
    except CentautError as e:
        return type(e), str(e)
    return None


def oracle_verdict(table):
    triple = oracles.ref_first_nonassociative_triple(table)
    if triple is None:
        return None
    a, b, c = triple
    return NotAssociative, f"(({a}*{b})*{c}) != ({a}*({b}*{c}))"


def _random_row(rows: list[list[int]], first: int, rnd: random.Random) -> list[int]:
    """A row starting with `first` that repeats no symbol in any column.

    The symbols still free in each column form a regular bipartite graph
    with the columns, so every partial choice here extends to a full row.
    """
    n = len(rows[0])
    used = [{r[c] for r in rows} for c in range(n)]
    row = [first]

    def fill(c: int) -> bool:
        if c == n:
            return True
        choices = [s for s in range(n) if s not in used[c] and s not in row]
        rnd.shuffle(choices)
        for s in choices:
            row.append(s)
            if fill(c + 1):
                return True
            row.pop()
        return False

    fill(1)
    return row


@st.composite
def loops(draw, max_order: int = 8) -> list[list[int]]:
    """Latin squares with identity row and column 0, built row by row."""
    n = draw(st.integers(1, max_order))
    rnd = draw(st.randoms(use_true_random=False))
    rows = [list(range(n))]
    for i in range(1, n):
        rows.append(_random_row(rows, i, rnd))
    return rows


SWITCH_BASES = [
    cyclic(4),
    elementary(2, 2),
    cyclic(6),
    dihedral(8),
    quaternion(8),
    elementary(2, 3),
    dihedral(16),
    semidihedral(16),
    parse_group_spec("quaternion(8) x cyclic(2)"),
    parse_group_spec("dihedral(8) x cyclic(4)"),
]


@functools.cache
def intercalates(k: int) -> list[tuple[int, int, int, int]]:
    """(r1, r2, c1, c2) of SWITCH_BASES[k] with rows and columns >= 1 and
    t[r1][c1] == t[r2][c2], t[r1][c2] == t[r2][c1]."""
    t = SWITCH_BASES[k].table.tolist()
    n = len(t)
    col_of = [{v: c for c, v in enumerate(row)} for row in t]
    out = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                c2 = col_of[r2][t[r1][c1]]
                if c2 > c1 and t[r1][c2] == t[r2][c1]:
                    out.append((r1, r2, c1, c2))
    return out


@st.composite
def switched_group_tables(draw) -> list[list[int]]:
    """A group table with one intercalate switched away from row and column 0."""
    k = draw(st.integers(0, len(SWITCH_BASES) - 1))
    r1, r2, c1, c2 = draw(st.sampled_from(intercalates(k)))
    t = SWITCH_BASES[k].table.tolist()
    for r in (r1, r2):
        t[r][c1], t[r][c2] = t[r][c2], t[r][c1]
    return t


@given(loops())
def test_random_loops_match_oracle(table):
    assert validator_verdict(table) == oracle_verdict(table)


@given(switched_group_tables())
def test_switched_group_tables_match_oracle(table):
    assert validator_verdict(table) == oracle_verdict(table)


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic(1)",
        "cyclic(7)",
        "quaternion(16)",
        "heisenberg(3,1)",
        "modular(3,27)",
        "metacyclic(16,4,3)",
        "extraspecial(2,32,-)",
        "unitriangular4(2)",
        "dihedral(8) x cyclic(2)",
        "heisenberg(2,1) x elementary(2,2)",
    ],
)
def test_group_tables_match_oracle(spec):
    table = parse_group_spec(spec).table.tolist()
    assert oracle_verdict(table) is None
    assert validator_verdict(table) is None


# order-5 loop whose first bad triple is (1, 1, 2)
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def loop_times_group(loop: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    """L x G numbered l*|G| + g: the elements below |G| form the group
    {0} x G, which lies in the nucleus, so a first bad a is at least |G|."""
    k, m = len(loop), len(g)
    return [
        [loop[l1][l2] * m + g[g1][g2] for l2 in range(k) for g2 in range(m)]
        for l1 in range(k)
        for g1 in range(m)
    ]


@given(loops(max_order=6), st.sampled_from(SWITCH_BASES[:6]))
def test_loop_times_group_matches_oracle(loop, G):
    table = loop_times_group(loop, G.table.tolist())
    assert validator_verdict(table) == oracle_verdict(table)


def test_first_bad_triple_with_a_large_first_element():
    m = 16
    table = loop_times_group(LOOP5, dihedral(m).table.tolist())
    a, _, _ = oracles.ref_first_nonassociative_triple(table)
    assert a >= m
    assert validator_verdict(table) == oracle_verdict(table)


def test_failure_only_in_the_last_partial_row_block():
    """Light's check gathers rows in blocks; here every failing row of the
    failing check lies in the last block, which is shorter than the rest.

    C150 x C2 is numbered 2a + b, so the involution 1 pairs rows 2k and
    2k + 1; switching the intercalate on rows 298, 299 and columns 2, 3
    keeps a Latin square with identity 0.
    """
    table = direct_product(cyclic(150), cyclic(2)).table.copy()
    n = len(table)
    for r in (298, 299):
        table[r, [2, 3]] = table[r, [3, 2]]
    assert row_blocks(256, 256) == [slice(0, 256)]  # small groups take one block
    first, last = row_blocks(n, n)
    assert last.stop - last.start < first.stop - first.start
    reached = np.arange(n) == 0
    for g in greedy_generators(table, range(n), reached):
        bad = np.flatnonzero((table[table[:, g]] != table[:, table[g]]).any(axis=1))
        if bad.size:
            break
    assert bad.size and bad.min() >= last.start
    want = oracle_verdict(table.tolist())
    assert want is not None and validator_verdict(table) == want


@st.composite
def magmas_with_right_inverses(draw, max_order: int = 6) -> list[list[int]]:
    """Identity row and column 0 and a 0 in every row, other cells free:
    the tables that reach Light's test on the accept path."""
    n = draw(st.integers(1, max_order))
    cells = st.integers(0, n - 1)
    rows = [list(range(n))]
    for i in range(1, n):
        row = [i] + [draw(cells) for _ in range(n - 1)]
        if 0 not in row:
            row[draw(st.integers(1, n - 1))] = 0
        rows.append(row)
    return rows


EDIT_BASES = [
    parse_group_spec(spec)
    for spec in (
        "dihedral(8)",
        "quaternion(8)",
        "elementary(3,2)",
        "dihedral(16)",
        "quaternion(8) x cyclic(2)",
        "heisenberg(3,1)",
        "modular(3,27)",
    )
]


@st.composite
def edited_group_tables(draw) -> list[list[int]]:
    """A group table of order 8-27 with 1-3 cells set to drawn values (one
    may keep its value, so some draws are still groups)."""
    t = draw(st.sampled_from(EDIT_BASES)).table.tolist()
    n = len(t)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t[i][j] = draw(st.integers(0, n - 1))
    return t


@st.composite
def relabelled_group_tables(draw) -> list[list[int]]:
    """A group table with its identity swapped to a drawn index k > 0: a
    Latin square that fails the identity check."""
    t = draw(st.sampled_from(EDIT_BASES)).table
    perm = np.arange(len(t))
    k = draw(st.integers(1, len(t) - 1))
    perm[0], perm[k] = k, 0
    return perm[t[np.ix_(perm, perm)]].tolist()


@given(
    st.one_of(
        magmas_with_right_inverses(),
        edited_group_tables(),
        relabelled_group_tables(),
    )
)
def test_accept_path_keeps_the_ordered_verdict(table):
    assert validator_verdict(table) == oracles.ref_validation_error(table)


def test_monoid_without_right_inverses_is_not_latin():
    """An associative monoid with identity 0 that is no group: Light's test
    passes, so only the 0-in-every-row check sends it to the Latin check."""
    table = [[0, 1], [1, 1]]
    assert oracles.ref_first_nonassociative_triple(table) is None
    assert validator_verdict(table) == (
        NotLatinSquare,
        "row 1 is not a permutation of range(2)",
    )


# The messages the ordered checks gave the `assoc` copies of the `tables`
# benchmark, seeds 0-4, when a Latin table that failed Light's test on the
# accept path ran that test again before its row scan.
TABLES_ASSOC_ERRORS = {
    (0, "d256xc2.assoc1"): "((1*242)*49) != (1*(242*49))",
    (0, "sd256xc2.assoc2"): "((1*32)*159) != (1*(32*159))",
    (0, "q128xc2.assoc1"): "((1*84)*96) != (1*(84*96))",
    (1, "d256xc2.assoc2"): "((1*12)*14) != (1*(12*14))",
    (1, "sd256xc2.assoc1"): "((1*272)*115) != (1*(272*115))",
    (1, "q128xc2.assoc2"): "((1*116)*75) != (1*(116*75))",
    (2, "d256xc2.assoc2"): "((1*8)*164) != (1*(8*164))",
    (2, "sd256xc2.assoc2"): "((1*92)*168) != (1*(92*168))",
    (2, "q128xc2.assoc0"): "((1*46)*16) != (1*(46*16))",
    (3, "d256xc2.assoc2"): "((1*292)*190) != (1*(292*190))",
    (3, "sd256xc2.assoc2"): "((1*156)*146) != (1*(156*146))",
    (3, "q128xc2.assoc0"): "((1*58)*108) != (1*(58*108))",
    (4, "d256xc2.assoc2"): "((1*400)*208) != (1*(400*208))",
    (4, "sd256xc2.assoc2"): "((1*44)*434) != (1*(44*434))",
    (4, "q128xc2.assoc2"): "((1*22)*115) != (1*(22*115))",
}


def test_tables_benchmark_assoc_copies_keep_their_messages(monkeypatch, tmp_path):
    """The benchmark's seeded copies, replayed without writing the files;
    each runs Light's test once."""
    light = []
    real = groups._light_generators
    monkeypatch.setattr(groups, "_light_generators", lambda t: light.append(t) or real(t))
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    copies = {}
    monkeypatch.setattr(workloads, "_write_table", lambda _, t, name: copies.__setitem__(name, t))
    ct = SimpleNamespace(
        parse_group_spec=functools.cache(parse_group_spec), write_group=lambda *_, **__: None
    )
    got = {}
    for seed in range(5):
        copies.clear()
        workloads.table_entries(ct, seed, tmp_path, {})
        for name, table in copies.items():
            if ".assoc" in name:
                light.clear()
                got[seed, name] = validator_verdict(table), len(light)
    assert got == {k: ((NotAssociative, m), 1) for k, m in TABLES_ASSOC_ERRORS.items()}
