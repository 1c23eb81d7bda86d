"""Group files, manifests and the default verification corpus.

All files are UTF-8 JSON with an explicit "format" tag.  Group files carry
either a Cayley table ("cayley") or permutation generators ("perm-group");
unknown fields are rejected so typos fail loudly.  Manifest entries name a
group, a source expression, and an optional expected decision.

A Cayley table of n rows of n unsigned JSON integers, each of no more
digits than n - 1 has, is read by a byte scanner (_scan_cayley).  It checks
the grammar with numpy in row blocks, by a few gathers per number (the byte
after it, the two after each row's "]", one per digit place) and a count of
the block's bytes (_scan_table), and builds the int32 table that the Group
keeps without a Python object per cell; the fields around it go through
json.loads with the table replaced by one placeholder.  Any other file, and
every malformed one, takes the json path (_load_json, _int_matrix,
cayley_array), which names every reader error and converts the table to
int64, so the validator range-checks it before its one cast to int32.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ParseError
from .families import parse_group_spec
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    cayley_array,
    group_from_cayley_table,
    group_from_permutations,
)

GROUP_FORMATS = ("cayley", "perm-group")
DECISIONS = ("Minimal", "NotMinimal", "Undecided")


def _read_bytes(path: str | Path) -> bytes:
    """The file's bytes, checked once to be UTF-8 for every reader."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise ParseError(f"cannot read: {e}", path=str(path)) from None
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 at byte {e.start}", path=str(path)) from None
    return raw


def _load_json(raw: bytes, path: str) -> dict:
    # Newlines are translated as a text-mode read translates them, so a JSON
    # error names the same line in a file with CR or CRLF line ends.
    text = raw.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}: {e.msg}", path=path) from None
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", path=path)
    return data


def _check_fields(data: dict, required: dict, optional: dict, path: str) -> None:
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", path=path)
    for field, kind in required.items():
        if field not in data:
            raise ParseError(f"missing field {field!r}", path=path)
        if type(data[field]) is not kind:
            raise ParseError(f"field {field!r} must be {kind.__name__}", path=path)
    for field, kind in optional.items():
        if field in data and type(data[field]) is not kind:
            raise ParseError(f"field {field!r} must be {kind.__name__}", path=path)


def _int_matrix(rows: list, path: str, field: str) -> list[list[int]]:
    """rows, checked to be a list of lists of ints.

    json yields only int, bool, float, str, None, list and dict, and bool
    is a type of its own, so two C-level passes over the type sets are
    exact.  Only a failing matrix is scanned row by row, to name its row.
    """
    if set(map(type, rows)) <= {list} and set(
        map(type, chain.from_iterable(rows))
    ) <= {int}:
        return rows
    i = next(
        i
        for i, row in enumerate(rows)
        if type(row) is not list or set(map(type, row)) - {int}
    )
    raise ParseError(f"{field}[{i}] must be a list of integers", path=path)


def _check_degree(degree: int, cap: int, path: Optional[str] = None) -> None:
    """Reject a permutation degree outside 1..cap before any list is built.

    By Cayley's theorem a group of order <= cap acts faithfully on <= cap
    points, so the bound loses no group.
    """
    if not 1 <= degree <= cap:
        raise ParseError(
            f"degree {degree} outside 1..{cap}: every group of order <= {cap} "
            f"acts faithfully on at most {cap} points (Cayley's theorem)",
            path,
        )


_WHITESPACE = b" \t\n\r"  # JSON's four whitespace bytes
# The scanner reads a table in blocks of about this many bytes (some 2^16
# cells), each cut just after a "]" so that it holds whole rows.
_SCAN_BLOCK_BYTES = 1 << 18
_ROW_GAP = np.frombuffer(b",[", np.uint8)  # the two bytes after a row's "]"
_TABLE_KEY = re.compile(rb'"table"[ \t\n\r]*:[ \t\n\r]*\[')


def _scan_cayley(raw: bytes, cap: int) -> Optional[tuple[dict, np.ndarray]]:
    """(the fields but "table", the n x n int32 table) of a Cayley file, or None.

    The span from the first `"table": [` to the file's last "]" is replaced
    by NaN and the rest parsed by json.loads.  Exactly one NaN, parsed as
    the top-level "table" value, and the scanner's exact count of the
    span's bytes prove that the span is that value.  A file with a "]"
    after its table, as in a later field, is declined, and the json path
    gives it the same outcome.  The fields must pass the checks the json
    path makes before it reads the table, and the span must be n rows of n
    unsigned integers (_scan_table), n the declared order.  None declines
    the file, which then takes the json path; so does every malformed file.
    """
    key = _TABLE_KEY.search(raw)
    stop = raw.rfind(b"]", key.end()) + 1 if key else 0
    if not stop:
        return None
    start = key.end() - 1
    placeholder: list = []
    constants = []

    def constant(token: str) -> list:
        constants.append(token)
        return placeholder

    try:
        data = json.loads(
            (raw[:start] + b"NaN" + raw[stop:]).decode("utf-8"),
            parse_constant=constant,
        )
        if len(constants) != 1 or type(data) is not dict:
            return None
        if data.get("table") is not placeholder:
            return None
        if data.get("format") != "cayley":
            return None
        _check_fields(data, {"format": str, "order": int, "table": list}, {"name": str}, "")
    except (ValueError, ParseError):  # invalid JSON or a bad field
        return None
    del data["table"]
    order = data["order"]
    if not 1 <= order <= cap:
        return None
    array = _scan_table(raw, start, stop, order)
    return None if array is None else (data, array)


def _scan_table(raw: bytes, start: int, stop: int, n: int) -> Optional[np.ndarray]:
    """raw[start:stop] as an n x n int32 array, or None unless it is exactly
    n rows of n unsigned JSON integers of at most W = len(str(n - 1))
    digits, whitespace allowed between tokens.

    With whitespace deleted, a block of rows must read: its head ("[[" in
    the first block, ",[" after), numbers split by "," within a row and by
    "],[" between rows, and its tail ("]" or, in the last block, "]]").
    The numbers end at e, the index of each one's last digit, and must be
    rows * n.  The byte after each must be "," or, after a row's n-th, "]";
    the two after each "]" but the block's last must be ",[".  With the
    head, and the last block's final "]", these checked bytes are
    rows * (n + 2) (+ 1) non-digits, and no two of them can sit at one
    index, as each asks for another byte there or for a digit before it.
    So when the block's digits and they add up to its length, no other byte
    is in it, and every byte is in its place.  Whitespace between two
    digits would join two numbers, so the block must hold as many numbers
    before the deletion as after.

    A number's value is built place by place: the byte k places before its
    last digit adds its digit times 10^k while every byte from there to the
    last digit is a digit, one gather per place.  A number of more than W
    digits, which lies outside range(n), or with a leading zero declines
    the file, and the json path names the same cell or error.
    """
    width = len(str(n - 1))
    pad = b"\0" * width  # so x[e - k] is a gather from a view, for k <= W
    after = np.full(n, ord(","), dtype=np.uint8)
    after[-1] = ord("]")  # the byte after each number of a row
    array = np.empty((n, n), dtype=np.int32)
    cells = array.reshape(-1)
    done = 0
    lo = start
    while lo < stop:
        hi = stop
        if stop - lo > _SCAN_BLOCK_BYTES:
            cut = raw.rfind(b"]", lo, lo + _SCAN_BLOCK_BYTES) + 1 or (
                raw.find(b"]", lo + _SCAN_BLOCK_BYTES) + 1
            )
            if raw.find(b"]", cut, stop - 1) >= 0:  # else it strands the final "]"
                hi = cut
        block = raw[lo:hi]
        text = block.translate(None, _WHITESPACE)
        last = hi == stop
        head = b"[[" if lo == start else b",["
        if not (text.startswith(head) and text.endswith(b"]]" if last else b"]")):
            return None
        padded = np.frombuffer(pad + text, np.uint8)
        x = padded[width:]
        digit = (x - ord("0")) < 10
        e = np.flatnonzero(digit[:-1] > digit[1:])
        rows, extra = divmod(e.size, n)
        if extra or not rows or done + e.size > n * n:
            return None
        if np.count_nonzero(digit) + rows * (n + 2) + last != len(text):
            return None
        if len(text) < len(block):
            raw_digit = (np.frombuffer(block, np.uint8) - ord("0")) < 10
            if np.count_nonzero(raw_digit[:-1] > raw_digit[1:]) != e.size:
                return None
        if (x[1:].take(e).reshape(rows, n) != after).any():
            return None
        if (x.take(e[n - 1 : -1 : n, None] + (2, 3), mode="clip") != _ROW_GAP).any():
            return None
        value = x.take(e).astype(np.int32)
        value -= ord("0")
        inside = np.ones(e.size, dtype=bool)  # place k - 1 is a digit
        for k in range(1, width + 1):
            place = padded[width - k :].take(e)  # x[e - k]
            place -= ord("0")
            deeper = inside & (place < 10)  # place k is a digit too
            if k > 1 and ((inside > deeper) & (upper == 0)).any():
                return None  # a leading zero at place k - 1
            if k == width:
                if deeper.any():
                    return None  # more than W digits
                break
            place *= deeper
            value += place * np.int32(10**k)
            inside, upper = deeper, place
        cells[done : done + e.size] = value
        done += e.size
        lo = hi
    return array if done == n * n else None


def read_group_file(
    path: str | Path, cap: int = DEFAULT_ORDER_CAP
) -> tuple[Optional[str], Group]:
    """Parse a group file; returns (embedded name or None, validated Group)."""
    spath = str(path)
    raw = _read_bytes(spath)
    scanned = _scan_cayley(raw, cap)
    if scanned is not None:
        del raw  # the file's bytes are not needed past parsing
        data, table = scanned
        return data.get("name"), group_from_cayley_table(table)
    data = _load_json(raw, spath)
    del raw
    fmt = data.get("format")
    if fmt == "cayley":
        _check_fields(
            data,
            {"format": str, "order": int, "table": list},
            {"name": str},
            spath,
        )
        order = data["order"]
        if order > cap:
            raise ParseError(f"order {order} exceeds cap {cap}", spath)
        table = _int_matrix(data.pop("table"), spath, "table")
        if len(table) != order or set(map(len, table)) - {order}:
            raise ParseError(f"table is not {order}x{order}", spath)
        # One int64 conversion; the parsed lists are freed before validation.
        arr = cayley_array(table)
        del table
        return data.get("name"), group_from_cayley_table(arr)
    if fmt == "perm-group":
        _check_fields(
            data,
            {"format": str, "degree": int, "generators": list},
            {"name": str},
            spath,
        )
        _check_degree(data["degree"], cap, spath)
        gens = _int_matrix(data["generators"], spath, "generators")
        return data.get("name"), group_from_permutations(data["degree"], gens, cap=cap)
    raise ParseError(
        f"format must be one of {list(GROUP_FORMATS)}, got {fmt!r}", spath
    )


def read_group(path: str | Path, cap: int = DEFAULT_ORDER_CAP) -> Group:
    return read_group_file(path, cap=cap)[1]


def write_group(G: Group, path: str | Path, name: Optional[str] = None) -> None:
    """Write the Cayley-table form (canonical on disk).

    Keys are sorted and compact, with one table row per line.  Each row is
    joined from one shared string per element index, so no Python int or
    list per cell is built.
    """
    data: dict = {"format": "cayley", "order": G.order}
    if name is not None:
        data["name"] = name
    # "table" sorts after every other key, so it goes last, row by row.
    head = json.dumps(data, sort_keys=True, separators=(",", ":"))
    tokens = np.array([str(x) for x in range(G.order)], dtype=object)
    rows = ",\n".join("[" + ",".join(tokens[r]) + "]" for r in G.table)
    Path(path).write_text(f'{head[:-1]},"table":[\n{rows}\n]}}\n', encoding="utf-8")


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    source: str
    expected: Optional[str] = None  # one of DECISIONS

    def __post_init__(self):
        if self.expected is not None and self.expected not in DECISIONS:
            raise ParseError(
                f"entry {self.name!r}: expected must be one of {list(DECISIONS)}"
            )


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.name in seen:
                raise ParseError(f"duplicate entry name {e.name!r}")
            seen.add(e.name)

    def __len__(self) -> int:
        return len(self.entries)


def read_manifest(path: str | Path) -> Manifest:
    spath = str(path)
    data = _load_json(_read_bytes(spath), spath)
    _check_fields(data, {"format": str, "entries": list}, {}, spath)
    if data["format"] != "manifest":
        raise ParseError(f"format must be 'manifest', got {data['format']!r}", spath)
    entries = []
    for i, raw in enumerate(data["entries"]):
        if not isinstance(raw, dict):
            raise ParseError(f"entries[{i}] must be an object", spath)
        _check_fields(raw, {"name": str, "source": str}, {"expected": str}, spath)
        entries.append(
            ManifestEntry(raw["name"], raw["source"], raw.get("expected"))
        )
    return Manifest(tuple(entries))


def parse_cycles(degree: int, text: str) -> list[int]:
    """One generator in cycle notation, e.g. "(0 1 2)(3 4)", to images;
    cycles apply left to right, each composed through where[q] = the x
    with images[x] = q in time linear in its length."""
    images, where = list(range(degree)), list(range(degree))
    body = text.strip()
    if not re.fullmatch(r"(?:\([^()]*\)\s*)+", body):  # one way to match: no backtracking
        raise ParseError(f"bad cycle notation {text!r}")
    for cyc in re.findall(r"\(([^()]*)\)", body):
        tokens = [t.lstrip("0") or "0" for t in re.split(r"[\s,]+", cyc.strip()) if t]
        if not all(re.fullmatch(r"\d+", t) for t in tokens):
            raise ParseError(f"cycle points must be integers in ({cyc})")
        # a point longer than the degree stays a str, out of range: int() takes <= 4,300 digits
        points = [int(t) if len(t) <= len(str(degree)) else t for t in tokens]
        if len(points) != len(set(points)):
            raise ParseError(f"repeated point in cycle ({cyc})")
        if any(isinstance(q, str) or not 0 <= q < degree for q in points):
            raise ParseError(f"cycle point outside range({degree}) in ({cyc})")
        xs = [where[q] for q in points]
        for x, q in zip(xs, points[1:] + points[:1]):
            images[x] = q
            where[q] = x
    return images


def file_bytes(source: str) -> int:
    """The size of the group file that resolve_source reads for source: 0
    for a builtin: or perm: source, or a file that cannot be read."""
    if source.startswith(("builtin:", "perm:")):
        return 0
    try:
        return Path(source).stat().st_size
    except OSError:
        return 0


def resolve_source(source: str, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Build a group from "builtin:<expr>", "perm:<degree>:<cycles>[;...]" or a file path."""
    if source.startswith("builtin:"):
        return parse_group_spec(source[len("builtin:") :], cap=cap)
    if source.startswith("perm:"):
        parts = source.split(":", 2)
        if len(parts) != 3:
            raise ParseError("perm source must be perm:<degree>:<cycles>[;...]")
        try:
            degree = int(parts[1])
        except ValueError:
            raise ParseError(f"bad degree {parts[1]!r}") from None
        _check_degree(degree, cap)
        gens = [parse_cycles(degree, g) for g in parts[2].split(";") if g.strip()]
        return group_from_permutations(degree, gens, cap=cap)
    return read_group(source, cap=cap)


# Default corpus: nonabelian p-groups for p in {2, 3, 5} spanning classes
# 2..5 and coclasses 1..4, all with brute-force-enumerable candidate maps.
# Expected decisions are regression pins confirmed by the enumeration.
_CORPUS: tuple[tuple[str, str, str], ...] = (
    ("q8", "quaternion(8)", "Minimal"),
    ("d8", "dihedral(8)", "Minimal"),
    ("heis2", "heisenberg(2,1)", "Minimal"),
    ("es8+", "extraspecial(2,8,+)", "Minimal"),
    ("es8-", "extraspecial(2,8,-)", "Minimal"),
    ("d16", "dihedral(16)", "NotMinimal"),
    ("q16", "quaternion(16)", "NotMinimal"),
    ("sd16", "semidihedral(16)", "NotMinimal"),
    ("m16", "modular(2,16)", "NotMinimal"),
    ("d32", "dihedral(32)", "NotMinimal"),
    ("q32", "quaternion(32)", "NotMinimal"),
    ("sd32", "semidihedral(32)", "NotMinimal"),
    ("m32", "modular(2,32)", "NotMinimal"),
    ("d64", "dihedral(64)", "NotMinimal"),
    ("q64", "quaternion(64)", "NotMinimal"),
    ("sd64", "semidihedral(64)", "NotMinimal"),
    ("d128", "dihedral(128)", "NotMinimal"),
    ("q128", "quaternion(128)", "NotMinimal"),
    ("sd128", "semidihedral(128)", "NotMinimal"),
    ("es32+", "extraspecial(2,32,+)", "Minimal"),
    ("es32-", "extraspecial(2,32,-)", "Minimal"),
    ("heis4", "heisenberg(2,2)", "Minimal"),
    ("ut4_2", "unitriangular4(2)", "NotMinimal"),
    ("wr2", "wreath(2)", "Minimal"),
    ("cwr2_4", "cwreath(2,4)", "NotMinimal"),
    ("mc16_4", "metacyclic(16,4,3)", "Minimal"),
    ("mc32_4", "metacyclic(32,4,7)", "Minimal"),
    ("mc64_4", "metacyclic(64,4,15)", "Minimal"),
    ("mc32_8a", "metacyclic(32,8,3)", "Minimal"),
    ("mc32_8b", "metacyclic(32,8,5)", "Minimal"),
    ("d128xc2", "dihedral(128) x cyclic(2)", "NotMinimal"),
    ("d64xe4", "dihedral(64) x elementary(2,2)", "NotMinimal"),
    ("mc16_4xe4", "metacyclic(16,4,3) x elementary(2,2)", "NotMinimal"),
    ("d16xc2", "dihedral(16) x cyclic(2)", "NotMinimal"),
    ("d16xc4", "dihedral(16) x cyclic(4)", "NotMinimal"),
    ("d32xc2", "dihedral(32) x cyclic(2)", "NotMinimal"),
    ("d64xc2", "dihedral(64) x cyclic(2)", "NotMinimal"),
    ("q16xc2", "quaternion(16) x cyclic(2)", "NotMinimal"),
    ("ut4_2xc2", "unitriangular4(2) x cyclic(2)", "NotMinimal"),
    ("es32+xc2", "extraspecial(2,32,+) x cyclic(2)", "NotMinimal"),
    ("heis3", "heisenberg(3,1)", "Minimal"),
    ("m27", "modular(3,27)", "Minimal"),
    ("m81", "modular(3,81)", "NotMinimal"),
    ("es243+", "extraspecial(3,243,+)", "Minimal"),
    ("es243-", "extraspecial(3,243,-)", "Minimal"),
    ("heis9", "heisenberg(3,2)", "Minimal"),
    ("ut4_3", "unitriangular4(3)", "NotMinimal"),
    ("wr3", "wreath(3)", "NotMinimal"),
    ("mc27_9", "metacyclic(27,9,4)", "Minimal"),
    ("heis3xc3", "heisenberg(3,1) x cyclic(3)", "NotMinimal"),
    ("es125+", "extraspecial(5,125,+)", "Minimal"),
    ("es125-", "extraspecial(5,125,-)", "Minimal"),
    ("m625", "modular(5,625)", "NotMinimal"),
    ("heis5xc5", "heisenberg(5,1) x cyclic(5)", "NotMinimal"),
)


def default_corpus() -> Manifest:
    """The built-in verification corpus, generated in process."""
    return Manifest(
        tuple(
            ManifestEntry(name, f"builtin:{src}", expected)
            for name, src, expected in _CORPUS
        )
    )
