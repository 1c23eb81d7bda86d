"""Group-file parsing, the Latin check and permutation closures against
their pure-list references in oracles.py.

The library checks a parsed table's types in two C-level passes, marks
rows and columns in one bool mask, and fills a closure's table with one
gather per row.  Each must name the same error, or build the same table, as
the per-row scan, the sort-based check and the per-cell product loop.
"""

import json
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centaut.errors import ClosureExceedsCap, NotLatinSquare, ParseError
from centaut.families import dihedral, heisenberg, parse_group_spec
from centaut.groupio import parse_cycles, read_group_file, resolve_source, write_group
from centaut.groups import group_from_cayley_table, group_from_permutations

import oracles

# A value of each kind json yields that is not an int, and a nested list.
NOT_INTS = (True, False, 1.0, 2.5, "3", None, [1], {"a": 1})

SMALL_GROUPS = (
    "dihedral(8)",
    "quaternion(16)",
    "heisenberg(3,1)",
    "modular(3,27) x cyclic(3)",
    "dihedral(16) x cyclic(4)",
)

# D32 x D32 on 32 points: order 1024.
D32XD32 = (
    "perm:32:(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);"
    "(1 15)(2 14)(3 13)(4 12)(5 11)(6 10)(7 9);"
    "(16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31);"
    "(17 31)(18 30)(19 29)(20 28)(21 27)(22 26)(23 25)"
)


def _parse_error(tmp_path, data) -> str:
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError) as exc:
        read_group_file(path)
    return str(exc.value).removeprefix(f"{path}: ")


@st.composite
def malformed_tables(draw):
    """dihedral(8)'s rows with one cell or row made not-an-int, or ragged."""
    rows = dihedral(8).table.tolist()
    i, j = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["cell", "row", "short", "long"]))
    if kind == "cell":
        rows[i][j] = draw(st.sampled_from(NOT_INTS))
    elif kind == "row":
        rows[i] = draw(st.sampled_from(NOT_INTS[:-2] + (7, {"row": [0]})))
    elif kind == "short":
        rows[i].pop()
    else:
        rows[i].append(j)
    return rows


@given(rows=malformed_tables())
def test_malformed_table_names_the_reference_row(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("bad")
    want = oracles.ref_int_matrix_error(rows, "table")
    if want is None:  # the old shape check
        assert len(rows) != 8 or any(len(r) != 8 for r in rows)
        want = "table is not 8x8"
    got = _parse_error(tmp_path, {"format": "cayley", "order": 8, "table": rows})
    assert got == want


@given(rows=malformed_tables())
def test_malformed_generators_name_the_reference_row(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("bad")
    want = oracles.ref_int_matrix_error(rows, "generators")
    data = {"format": "perm-group", "degree": 8, "generators": rows}
    if want is None:
        return  # well-typed: a generator of the wrong length is another error
    assert _parse_error(tmp_path, data) == want


@given(spec=st.sampled_from(SMALL_GROUPS), swap=st.booleans(), data=st.data())
def test_non_latin_table_names_the_reference_line(spec, swap, data):
    """One cell overwritten by another in-range value breaks its row and
    column; two cells of a row swapped break only their columns."""
    table = parse_group_spec(spec).table.tolist()
    n = len(table)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if swap:
        k = data.draw(st.sampled_from([k for k in range(n) if k != j]))
        table[i][j], table[i][k] = table[i][k], table[i][j]
    else:
        table[i][j] = data.draw(st.sampled_from([v for v in range(n) if v != table[i][j]]))
    want = oracles.ref_latin_error(table)
    assert want is not None
    with pytest.raises(NotLatinSquare) as exc:
        group_from_cayley_table(table)
    assert str(exc.value) == want


def test_builtin_tables_pass_the_reference_latin_check():
    for spec in SMALL_GROUPS:
        table = parse_group_spec(spec).table.tolist()
        assert oracles.ref_latin_error(table) is None
        assert (group_from_cayley_table(table).table.tolist()) == table


@pytest.mark.parametrize(
    "table,cell",
    [
        ([[0, 1], [1, 10**29]], (1, 1)),
        ([[0, 10**40], [1, 0]], (0, 1)),
        ([[0, -1], [1, 10**29]], (0, 1)),  # the first cell outside, not the huge one
        ([[0, -(10**30)], [1, 0]], (0, 1)),
        ([[0, 1], [1, float("inf")]], (1, 1)),
    ],
)
def test_cell_beyond_int64_is_named(table, cell):
    with pytest.raises(NotLatinSquare) as exc:
        group_from_cayley_table(table)
    assert str(exc.value) == f"entry at {cell} outside range(2)"


def test_file_cell_beyond_int64_is_named(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"format":"cayley","order":2,"table":[[0,1],[1,100000000000000000000]]}'
    )
    with pytest.raises(NotLatinSquare) as exc:
        read_group_file(path)
    assert str(exc.value) == "entry at (1, 1) outside range(2)"


def test_cap_is_checked_before_the_table(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"format": "cayley", "order": 9, "table": [[True]]}))
    with pytest.raises(ParseError, match="order 9 exceeds cap 8"):
        read_group_file(path, cap=8)


@given(
    degree=st.integers(1, 10),
    data=st.data(),
    cap=st.integers(1, 150),
)
def test_closure_matches_reference(degree, data, cap):
    gens = data.draw(
        st.lists(st.permutations(range(degree)), max_size=3), label="generators"
    )
    try:
        want = oracles.ref_permutation_closure(degree, gens, cap)
    except ClosureExceedsCap as e:
        with pytest.raises(ClosureExceedsCap) as exc:
            group_from_permutations(degree, gens, cap=cap)
        assert str(exc.value) == str(e)
        return
    assert group_from_permutations(degree, gens, cap=cap).table.tolist() == want


def test_order_1024_closure_matches_reference():
    degree = 32
    gens = [parse_cycles(degree, c) for c in D32XD32.split(":", 2)[2].split(";")]
    want = oracles.ref_permutation_closure(degree, gens, 4096)
    G = resolve_source(D32XD32)
    assert G.order == 1024
    assert G.table.tolist() == want
    with pytest.raises(ClosureExceedsCap) as exc:
        resolve_source(D32XD32, cap=1023)
    assert str(exc.value) == "closure exceeds cap 1023 (degree 32)"


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_order_1024_closure_is_fast_and_holds_one_table():
    """The 4 MiB table is the peak; a per-cell Python copy would double it.

    The per-cell product loop took 6.6 s and peaked at 5.4 MiB.
    """
    start = time.perf_counter()
    resolve_source(D32XD32)
    assert time.perf_counter() - start < 1.0
    assert _peak_mib(lambda: resolve_source(D32XD32)) < 4.5


def test_reading_order_729_file_frees_the_parsed_lists(tmp_path):
    """The parsed lists are dropped before validation.

    json's lists take about 15 MiB here and the int64 table 4 MiB; the
    per-row scan, with the lists alive through validation, peaked at 30 MiB.
    """
    path = tmp_path / "heis9.json"
    write_group(heisenberg(3, 2), path)
    assert _peak_mib(lambda: read_group_file(path)) < 20
