"""Group-file parsing, the Latin check and permutation closures against
their pure-list references in oracles.py.

The library checks a parsed table's types in two C-level passes, marks
rows and columns in one bool mask, and fills a closure's table with one
gather per row.  Each must name the same error, or build the same table, as
the per-row scan, the sort-based check and the per-cell product loop.  The
byte scanner that reads well-formed Cayley files must give what the json
path gives, on every layout and malformation drawn, and what its former
block check (oracles.ref_scan_table) gives on byte edits, at any block size.
"""

import json
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centaut import groupio
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


def _parsed(parse, degree, text):
    try:
        return parse(degree, text)
    except ParseError as e:
        return str(e)


@given(
    degree=st.integers(1, 6),
    text=st.text(alphabet="0123456789 ,()x\t", max_size=24),
)
def test_parse_cycles_matches_reference(degree, text):
    """Same images, or the same error message, as the reference parser."""
    assert _parsed(parse_cycles, degree, text) == _parsed(oracles.ref_parse_cycles, degree, text)


def test_parse_cycles_rejects_junk_after_many_cycles_fast():
    """The reference pattern's adjacent whitespace runs backtrack about 4x
    per two more cycles: 4 s at 24 cycles."""
    start = time.perf_counter()
    with pytest.raises(ParseError, match="bad cycle notation"):
        parse_cycles(4, "(0 1) " * 40 + "x")
    assert time.perf_counter() - start < 1.0


def test_parse_cycles_composes_many_cycles_fast():
    """20,000 transpositions at degree 4096 (about 200 KB); the reference's
    full pass per cycle takes about 4 s."""
    rng = np.random.default_rng(4096)
    a = rng.integers(0, 4096, 20000)
    b = (a + rng.integers(1, 4096, 20000)) % 4096
    text = "".join(f"({x} {y}) " for x, y in zip(a.tolist(), b.tolist()))
    start = time.perf_counter()
    got = parse_cycles(4096, text)
    assert time.perf_counter() - start < 1.0
    assert got == oracles.ref_parse_cycles(4096, text)


def test_reading_order_729_file_frees_the_parsed_lists(tmp_path):
    """The parsed lists are dropped before validation.

    json's lists take about 15 MiB here and the int32 table 2 MiB; the
    per-row scan, with the lists alive through validation, peaked at 30 MiB.
    """
    path = tmp_path / "heis9.json"
    write_group(heisenberg(3, 2), path)
    assert _peak_mib(lambda: read_group_file(path)) < 20



def test_reading_order_1024_file_holds_no_python_cells(tmp_path):
    """The scanner builds the 4 MiB int32 table without a Python int per
    cell, beside the 4 MiB file; validation adds its 1 MiB Latin mask and
    row blocks.  The peak is about 12.8 MiB; with an int64 table and two
    n x n temporaries in Light's check it was 26.0 MiB, and the json path
    peaked at 37.7 MiB.
    """
    path = tmp_path / "d1024.json"
    write_group(dihedral(1024), path)
    assert _peak_mib(lambda: read_group_file(path)) < 16


def test_order_729_dumps_file_takes_the_scanner(tmp_path):
    G = heisenberg(3, 2)
    path = tmp_path / "heis9.json"
    path.write_text(
        json.dumps({"format": "cayley", "name": "h", "order": 729, "table": G.table.tolist()})
    )
    data, table = groupio._scan_cayley(path.read_bytes(), 4096)
    assert data == {"format": "cayley", "name": "h", "order": 729}
    assert table.dtype == "int32" and (table == G.table).all()


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"])
def test_json_error_line_counts_every_line_end(tmp_path, newline):
    """Line ends are read as a text-mode read reads them: CRLF is one."""
    path = tmp_path / "g.json"
    lines = ['{"format": "cayley",', '"order": 2,', '"table": [[0, 1], [1, 0]] x}']
    path.write_bytes(newline.join(lines).encode())
    with pytest.raises(ParseError) as exc:
        read_group_file(path)
    assert str(exc.value).endswith("invalid JSON at line 3: Expecting ',' delimiter")

# (separator between cells, between rows, inside each bracket, after ":"
# and "," of the object, line end): layouts a Cayley file may come in.
LAYOUTS = {
    "compact": (",", ",", "", "", "\n"),
    "dumps": (", ", ", ", "", " ", ""),
    "lines": (",", ",\n", "", "", "\n"),
    "crlf": (",", ",\r\n", "\r\n", " ", "\r\n"),
    "tabs": (",\t", ",\t", "\t", "\t", "\t"),
    "spaced": (" , ", " ,\n ", " \n ", "  ", " \n"),
}

# Mutations of one cell, of one row, or of the whole file; None keeps the
# file well formed.
CELL_MUTATIONS = {
    "float": lambda tok: tok + ".0",
    "true": lambda tok: "true",
    "string": lambda tok: f'"{tok}"',
    "null": lambda tok: "null",
    "minus zero": lambda tok: "-0",
    "leading zero": lambda tok: "0" + tok,
    "exponent": lambda tok: "1e2",
    "20 digits": lambda tok: "9" * 20,
    "10 digits": lambda tok: "1" * 10,
    "split digits": lambda tok: tok + " 1",
    "split by newline": lambda tok: tok + "\n0",
}
FILE_MUTATIONS = (
    None,
    "short row",
    "long row",
    "no rows",
    "empty row",
    "extra row",
    "table first",
    "duplicate table after",
    "duplicate table before",
    "nested table",
    "NaN name",
    "NaN field",
    "Infinity order",
    "bom",
    "order mismatch",
    "name with brackets",
    "table first, name with brackets",
    "trailing data",
    "duplicate table NaN after",
    "bracket for comma",
    "number outside row",
    "wide number",
    *CELL_MUTATIONS,
)


def _render(rows, layout, outside=None) -> str:
    """The table's text; row `outside` has its last number after its "]"."""
    cell, row_sep, pad, gap, end = LAYOUTS[layout]
    texts = [f"[{pad}{cell.join(r)}{pad}]" for r in rows]
    if outside is not None:
        r = rows[outside]
        texts[outside] = f"[{pad}{cell.join(r[:-1])}{cell}{pad}]{r[-1]}"
    body = row_sep.join(texts)
    return f"[{pad}{body}{pad}]"


@st.composite
def cayley_files(draw):
    """(layout, mutation, file text) for a small builtin's table."""
    table = parse_group_spec(draw(st.sampled_from(SMALL_GROUPS))).table
    n = len(table)
    rows = [[str(v) for v in r] for r in table.tolist()]
    layout = draw(st.sampled_from(sorted(LAYOUTS)))
    kind = draw(st.sampled_from(FILE_MUTATIONS))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    fields = {"format": '"cayley"', "name": '"g"', "order": str(n)}
    if kind in CELL_MUTATIONS:
        rows[i][j] = CELL_MUTATIONS[kind](rows[i][j])
    elif kind == "short row":
        rows[i].pop()
    elif kind == "long row":
        rows[i].append(rows[i][j])
    elif kind == "no rows":
        rows = []
    elif kind == "empty row":
        rows[i] = []
    elif kind == "extra row":
        rows.append(rows[i])
    elif kind == "wide number":  # one digit more than n - 1 has: outside range(n)
        rows[i][j] = "9" * (len(str(n - 1)) + 1)
    elif kind == "bracket for comma":  # a row's j-th separator becomes "]"
        j = min(j, n - 2)
        rows[i][j : j + 2] = [rows[i][j] + "]" + rows[i][j + 1]]
    elif kind == "NaN name":
        fields["name"] = "NaN"
    elif kind == "NaN field":
        fields["extra"] = "NaN"
    elif kind == "Infinity order":
        fields["order"] = "Infinity"
    elif kind == "order mismatch":
        fields["order"] = str(n + 1)
    elif kind in ("name with brackets", "table first, name with brackets"):
        fields["name"] = '"]] [[\\"table\\": [[0]]"'
    elif kind == "nested table":
        fields = {"extra": '{"table": ' + _render(rows, layout) + "}", **fields}
    _, _, _, gap, end = LAYOUTS[layout]
    items = [f'"{k}":{gap}{v}' for k, v in fields.items()]
    table_item = f'"table":{gap}{_render(rows, layout, i if kind == "number outside row" else None)}'
    if kind in ("table first", "table first, name with brackets"):
        items.insert(0, table_item)
    elif kind == "duplicate table before":
        items += ['"table":' + gap + "[[0]]", table_item]
    elif kind == "duplicate table after":
        items += [table_item, '"table":' + gap + "[[0]]"]
    elif kind == "duplicate table NaN after":
        items += [table_item, '"table":' + gap + "NaN"]
    else:
        items.append(table_item)
    text = "{" + ("," + gap).join(items) + "}" + end
    if kind == "bom":
        text = "\ufeff" + text
    elif kind == "trailing data":
        text += "]"
    return layout, kind, text


def _outcome(path):
    try:
        name, G = read_group_file(path)
    except Exception as e:  # the class and message are what is compared
        return type(e).__name__, str(e)
    return name, G.table.tolist()


def _check_scanner_matches_json_path(tmp_path_factory, case):
    layout, kind, text = case
    path = tmp_path_factory.mktemp("scan") / "g.json"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(path)
    with mock.patch.object(groupio, "_scan_cayley", return_value=None):
        want = _outcome(path)
    assert got == want
    if kind is None:  # every well-formed layout takes the scanner
        scanned = groupio._scan_cayley(path.read_bytes(), 4096)
        assert scanned is not None
        assert scanned[1].tolist() == got[1]


@settings(max_examples=300)
@given(case=cayley_files())
def test_scanner_matches_json_path(tmp_path_factory, case):
    _check_scanner_matches_json_path(tmp_path_factory, case)


@settings(max_examples=100)
@given(case=cayley_files(), block=st.integers(8, 256))
def test_scanner_matches_json_path_in_small_blocks(tmp_path_factory, case, block):
    """Blocks of a row or a few: a block ends after any "]" but the final
    one, and a well-formed file still takes the scanner."""
    with mock.patch.object(groupio, "_SCAN_BLOCK_BYTES", block):
        _check_scanner_matches_json_path(tmp_path_factory, case)


# Bytes a mutation writes: every kind of byte the scanner tells apart.
MUTATION_BYTES = b"0123456789,[] \t\n\rx-"


@st.composite
def mutated_spans(draw):
    """(table text, n): a small builtin's table in a drawn layout, with up
    to three bytes replaced, inserted or deleted, at any index or at one
    that is not a digit."""
    table = parse_group_spec(draw(st.sampled_from(SMALL_GROUPS))).table
    rows = [[str(v) for v in r] for r in table.tolist()]
    text = bytearray(_render(rows, draw(st.sampled_from(sorted(LAYOUTS)))).encode())
    for _ in range(draw(st.integers(0, 3))):
        punctuation = [k for k, b in enumerate(text) if not chr(b).isdigit()]
        i = draw(st.sampled_from(punctuation) | st.integers(0, len(text)))
        byte = draw(st.sampled_from(MUTATION_BYTES))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            text.insert(i, byte)
        elif edit == "replace":
            text[min(i, len(text) - 1)] = byte
        else:
            del text[min(i, len(text) - 1)]
    return bytes(text), len(table)


@settings(max_examples=500)
@given(case=mutated_spans(), block=st.integers(8, 1 << 18))
@example(case=(b"x[0,1],[1,0]]", 2), block=1 << 18)  # no head
@example(case=(b"[[0,1]x[1,0]]", 2), block=1 << 18)  # no "," between rows
@example(case=(b"[[0,1],[1,0]x", 2), block=1 << 18)  # no final "]"
@example(case=(b"[[0,1],[1,0]]1", 2), block=1 << 18)  # a digit after it
@example(case=(b"[[0,1],[1,0]]", 2), block=8)
def test_scanner_matches_reference_scanner(case, block):
    """At any block size the scanner reads what the former block check
    reads in one block, when every number has at most the digits of n - 1,
    and declines everything else."""
    text, n = case
    want = oracles.ref_scan_table(text, 0, len(text), n)
    wide = any(len(run) > len(str(n - 1)) for run in re.findall(rb"[0-9]+", text))
    with mock.patch.object(groupio, "_SCAN_BLOCK_BYTES", block):
        got = groupio._scan_table(text, 0, len(text), n)
    if want is None or wide:
        assert got is None
    else:
        assert got is not None and got.dtype == np.int32
        assert got.tolist() == want.tolist()
