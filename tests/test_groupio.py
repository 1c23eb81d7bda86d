"""Group file and manifest round trips plus strict parsing."""

import json
import tracemalloc

import numpy as np
import pytest

from centaut.errors import ClosureExceedsCap, NotAssociative, ParseError
from centaut.families import dihedral, heisenberg, quaternion
from centaut.groupio import (
    Manifest,
    ManifestEntry,
    default_corpus,
    read_group,
    read_group_file,
    read_manifest,
    resolve_source,
    write_group,
)

from test_groups import NONASSOC5


def test_group_roundtrip(tmp_path):
    G = quaternion(16)
    path = tmp_path / "q16.json"
    write_group(G, path, name="q16")
    name, H = read_group_file(path)
    assert name == "q16"
    assert (H.table == G.table).all()


def test_group_file_is_compact_and_round_trips(tmp_path):
    G = heisenberg(3, 2)  # order 729
    path = tmp_path / "heis9.json"
    tracemalloc.start()
    try:
        write_group(G, path, name='heis "9"')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == '{"format":"cayley","name":"heis \\"9\\"","order":729,"table":['
    assert len(lines) == 729 + 2 and lines[-1] == "]}"
    name, H = read_group_file(path)
    assert name == 'heis "9"'
    assert (H.table == G.table).all()


def test_group_file_without_name(tmp_path):
    path = tmp_path / "g.json"
    write_group(dihedral(8), path)
    name, H = read_group_file(path)
    assert name is None and H.order == 8


def test_perm_group_file(tmp_path):
    path = tmp_path / "d8.json"
    path.write_text(
        json.dumps(
            {
                "format": "perm-group",
                "degree": 4,
                "generators": [[1, 2, 3, 0], [0, 3, 2, 1]],
            }
        )
    )
    assert read_group(path).order == 8


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("order"), "missing"),
        (lambda d: d.update(order="8"), "order"),
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d.update(format="sudoku"), "format"),
        (lambda d: d["table"].pop(), "8x8"),
        (lambda d: d["table"][0].__setitem__(0, True), "integer"),
        (lambda d: d.update(order=True), "field 'order' must be int"),
        (lambda d: d.update(order=False), "field 'order' must be int"),
        (
            lambda d: (
                d.clear(),
                d.update(format="perm-group", degree=True, generators=[[0]]),
            ),
            "field 'degree' must be int",
        ),
    ],
)
def test_group_file_rejects_malformed(tmp_path, mutate, message):
    data = {"format": "cayley", "order": 8, "table": dihedral(8).table.tolist()}
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=message) as exc:
        read_group(path)
    assert exc.value.path == str(path)


def test_group_file_table_still_validated(tmp_path):
    path = tmp_path / "latin.json"
    path.write_text(
        json.dumps({"format": "cayley", "order": 5, "table": NONASSOC5})
    )
    with pytest.raises(NotAssociative):
        read_group(path)


def test_group_file_cap(tmp_path):
    path = tmp_path / "d16.json"
    write_group(dihedral(16), path)
    with pytest.raises(ParseError, match="cap"):
        read_group(path, cap=8)


def test_not_json_and_not_object(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {")
    with pytest.raises(ParseError):
        read_group(path)
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="object"):
        read_group(path)


def test_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"format":"cayley","name":"\xc3(","order":1,"table":[[0]]}')
    with pytest.raises(ParseError) as exc:
        read_group(path)
    assert str(exc.value) == f"{path}: not UTF-8 at byte 27"
    path.write_bytes(b'{"format":"manifest","entries":[]}\xff')
    with pytest.raises(ParseError) as exc:
        read_manifest(path)
    assert str(exc.value) == f"{path}: not UTF-8 at byte 34"


def test_manifest_roundtrip(tmp_path):
    m = Manifest(
        (
            ManifestEntry("a", "builtin:dihedral(8)", "Minimal"),
            ManifestEntry("b", "builtin:dihedral(16)"),
        )
    )
    path = tmp_path / "m.json"
    entries = [{"name": "a", "source": "builtin:dihedral(8)", "expected": "Minimal"},
               {"name": "b", "source": "builtin:dihedral(16)"}]
    path.write_text(json.dumps({"format": "manifest", "entries": entries}), encoding="utf-8")
    back = read_manifest(path)
    assert back == m
    assert back.entries[1].expected is None


def test_manifest_validation():
    with pytest.raises(ParseError, match="duplicate"):
        Manifest(
            (
                ManifestEntry("a", "builtin:dihedral(8)"),
                ManifestEntry("a", "builtin:dihedral(16)"),
            )
        )
    with pytest.raises(ParseError, match="expected"):
        ManifestEntry("a", "builtin:dihedral(8)", "Perhaps")


def test_manifest_rejects_malformed(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": "manifest", "entries": [["a"]]}))
    with pytest.raises(ParseError, match="object"):
        read_manifest(path)
    path.write_text(json.dumps({"format": "other", "entries": []}))
    with pytest.raises(ParseError, match="manifest"):
        read_manifest(path)


def test_resolve_source_builtin_and_file(tmp_path):
    assert resolve_source("builtin:quaternion(8)").order == 8
    path = tmp_path / "g.json"
    write_group(dihedral(8), path)
    assert resolve_source(str(path)).order == 8
    with pytest.raises(ClosureExceedsCap):
        resolve_source("builtin:dihedral(64)", cap=32)


def test_default_corpus_shape():
    corpus = default_corpus()
    assert len(corpus) >= 40
    names = [e.name for e in corpus.entries]
    assert len(names) == len(set(names))
    assert all(e.source.startswith("builtin:") for e in corpus.entries)
    assert all(e.expected in ("Minimal", "NotMinimal") for e in corpus.entries)
