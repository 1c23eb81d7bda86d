"""Exercise the command line through main() with captured output."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from centaut.cli import ENV_CAP, ENV_HOM_CAP, main
from centaut.errors import ParseError
from centaut.families import dihedral
from centaut.groupio import parse_cycles, read_group, resolve_source, write_group


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_cycles_basics():
    assert parse_cycles(4, "(0 1 2 3)") == [1, 2, 3, 0]
    assert parse_cycles(4, "(1 3)") == [0, 3, 2, 1]
    assert parse_cycles(3, "(0)") == [0, 1, 2]
    assert parse_cycles(5, "(0 1)(2 3 4)") == [1, 0, 3, 4, 2]
    # cycles compose left to right: 0 -> 1 by the first, 1 -> 2 by the second
    assert parse_cycles(3, "(0 1)(1 2)")[0] == 2


def test_parse_cycles_rejections():
    for bad in ("0 1 2", "(0 1", "(0 0)", "(0 9)", "(x)"):
        with pytest.raises(ParseError):
            parse_cycles(4, bad)
    with pytest.raises(ParseError):
        resolve_source("perm:x:(0 1)")  # bad degree


@pytest.mark.parametrize("degree", [2**20, 0])
def test_perm_degree_outside_cap_exits_2(capsys, degree):
    """The degree is checked against the order cap before any list is built.

    A degree of 2**20 under cap 16 is large enough that building its image
    list would pass the memory bound, and small enough to be harmless if it
    were built.
    """
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "analyze", f"perm:{degree}:(0 1)", "--cap", "16")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "ParseError" in err and "Cayley's theorem" in err
    assert peak < 2**20


def test_cell_beyond_int64_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"format":"cayley","order":2,"table":[[0,1],[1,100000000000000000000000000000]]}'
    )
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "NotLatinSquare: entry at (1, 1) outside range(2)" in err
    assert "Traceback" not in err


def test_cycle_point_past_the_int_digit_limit_exits_2(capsys):
    """int() refuses a string of more than 4,300 digits with a bare
    ValueError; the point is refused by its length before any conversion."""
    code, _, err = run_cli(capsys, "analyze", "perm:4:(" + "1" * 5000 + " 0)")
    assert code == 2
    assert "ParseError: cycle point outside range(4)" in err
    assert "Traceback" not in err


NOT_UTF8 = b'{"format":"cayley","name":"q\xff","order":1,"table":[[0]]}'


def test_group_file_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert f"ParseError: {path}: not UTF-8 at byte 28" in err
    assert json.loads(out)["status"] == "error"
    assert "Traceback" not in err


def test_manifest_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"format":"manifest","entries":[{"name":"\xe9","source":"x"}]}')
    code, _, err = run_cli(capsys, "verify", "--manifest", str(path))
    assert code == 2
    assert f"ParseError: {path}: not UTF-8 at byte 41" in err


def test_verify_records_a_non_utf8_entry_and_goes_on(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    manifest = {
        "format": "manifest",
        "entries": [
            {"name": "q8", "source": "builtin:quaternion(8)", "expected": "Minimal"},
            {"name": "bad", "source": str(bad)},
            {"name": "d16", "source": "builtin:dihedral(16)", "expected": "NotMinimal"},
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run_cli(capsys, "verify", "--manifest", str(path))
    assert code == 1
    data = json.loads(out)
    assert [r["status"] for r in data["records"]] == ["ok", "error", "ok"]
    assert data["records"][1]["error"] == f"ParseError: {bad}: not UTF-8 at byte 28"
    assert data["summary"]["errors"] == 1


def test_analyze_json(capsys):
    code, out, err = run_cli(capsys, "analyze", "builtin:quaternion(8)", "--name", "q8")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "q8"
    assert data["verdict"]["decision"] == "Minimal"
    assert data["agreement"] is True
    assert "seconds" not in out


def test_analyze_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "builtin:dihedral(16)", "--format", "table"
    )
    assert code == 0
    assert "NotMinimal" in out


def test_analyze_perm_source(capsys):
    code, out, _ = run_cli(capsys, "analyze", "perm:4:(0 1 2 3);(1 3)")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8
    assert data["verdict"]["decision"] == "Minimal"


def test_analyze_unknown_builtin_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "builtin:nosuch(1)")
    assert code == 2
    assert "UnknownBuiltin" in err


@pytest.mark.parametrize(
    "param,error",
    [("1" + "0" * 30, "ClosureExceedsCap"), ("7" * 5000, "BadParameters")],
    ids=["31-digits", "5000-digits"],
)
def test_oversized_builtin_parameter_exits_2(capsys, param, error):
    code, _, err = run_cli(capsys, "analyze", f"builtin:cyclic({param})")
    assert code == 2
    assert error in err


def test_analyze_abelian_is_reported_not_fatal(capsys):
    code, out, _ = run_cli(capsys, "analyze", "builtin:cyclic(8)")
    assert code == 0
    assert json.loads(out)["status"] == "skipped"


def test_verify_small_manifest(capsys, tmp_path):
    manifest = {
        "format": "manifest",
        "entries": [
            {"name": "q8", "source": "builtin:quaternion(8)", "expected": "Minimal"},
            {"name": "d16", "source": "builtin:dihedral(16)", "expected": "NotMinimal"},
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run_cli(capsys, "verify", "--manifest", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["entries"] == 2 and data["summary"]["mismatches"] == 0


def test_verify_expectation_failure_exits_1(capsys, tmp_path):
    manifest = {
        "format": "manifest",
        "entries": [
            {"name": "q8", "source": "builtin:quaternion(8)", "expected": "NotMinimal"}
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run_cli(capsys, "verify", "--manifest", str(path))
    assert code == 1
    assert json.loads(out)["summary"]["expectationFailures"] == 1


def test_verify_output_file_deterministic(capsys, tmp_path):
    manifest = {
        "format": "manifest",
        "entries": [
            {"name": "q8", "source": "builtin:quaternion(8)"},
            {"name": "d8", "source": "builtin:dihedral(8)"},
        ],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out_path, jobs in ((a, "1"), (b, "2")):
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--manifest",
            str(mpath),
            "--jobs",
            jobs,
            "--format",
            "csv",
            "-o",
            str(out_path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["analyze", "verify", "verify-jobs"])
def test_timings_go_to_stderr_and_leave_stdout_unchanged(capsys, tmp_path, command):
    manifest = {
        "format": "manifest",
        "entries": [
            {"name": "q8", "source": "builtin:quaternion(8)"},
            {"name": "d16", "source": "builtin:dihedral(16)"},
            {"name": "ab", "source": "builtin:cyclic(8)"},
        ],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    argv = {
        "analyze": ["analyze", "builtin:dihedral(16)"],
        "verify": ["verify", "--manifest", str(mpath), "--format", "table"],
        "verify-jobs": ["verify", "--manifest", str(mpath), "--jobs", "2"],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    timed_code, timed_out, timed_err = run_cli(capsys, *argv, "--timings")
    assert code == timed_code == 0
    assert timed_out == out and err == ""
    lines = timed_err.splitlines()
    assert [line.split()[0] for line in lines] == [
        "stage", "resolve", "structure", "classify", "enumerate", "total"
    ]
    seconds = [float(line.split()[1]) for line in lines[1:]]
    assert all(s >= 0 for s in seconds) and seconds[-1] >= max(seconds[:-1])


def test_timings_count_the_enumerated_candidates(capsys, tmp_path):
    """The enumerate row gives the candidates of every enumerated record
    (the abelian entry is skipped) and their rate."""
    manifest = {
        "format": "manifest",
        "entries": [
            {"name": "q8", "source": "builtin:quaternion(8)"},
            {"name": "es32", "source": "builtin:extraspecial(2,32,+)"},
            {"name": "ab", "source": "builtin:cyclic(8)"},
        ],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, "verify", "--manifest", str(mpath), "--timings")
    assert code == 0
    report = json.loads(out)
    maps = sum(r["central"]["homCandidates"] for r in report["records"] if r.get("central"))
    assert maps == 4 + 16
    row = next(line for line in err.splitlines() if line.startswith("enumerate"))
    _, seconds, count, word, rate, *_ = row.split()
    assert (int(count), word) == (maps, "candidates,")
    assert rate.endswith("/s,")
    if float(seconds) > 0:
        assert float(rate[:-3]) > 0


def test_timings_count_the_label_cells_on_the_corpus(capsys):
    """The enumerate row's label rows, one per class of candidates, and
    their label cells, each group's rows times its a = |G/G'| coset
    labels, summed over the corpus, with the cells' rate: 820 rows and
    31,866 cells test the 26,970 candidates, whose own rows would be
    2,251,534 cells."""
    code, out, err = run_cli(capsys, "verify", "--timings")
    assert code == 0
    records = [r for r in json.loads(out)["records"] if r.get("central")]
    assert len(records) == 54
    assert sum(r["central"]["homCandidates"] for r in records) == 26970
    row = next(line for line in err.splitlines() if line.startswith("enumerate"))
    _, seconds, *_, rows, label, word, cells, label2, word2, rate = row.split()
    assert (int(rows), label, word) == (820, "label", "rows,")
    assert (int(cells), label2, word2) == (31866, "label", "cells,")
    assert rate.endswith("/s")
    if float(seconds) > 0:
        assert float(rate[:-2]) > 0


def test_timings_count_the_group_file_bytes(capsys, tmp_path):
    """The resolve row gives the bytes of every group file read, a
    rejected one too, and their rate; builtin and perm sources add none."""
    write_group(dihedral(16), tmp_path / "d16.json")
    (tmp_path / "bad.json").write_text('{"format":"cayley","order":2,"table":[[1,0],[0,1]]}')
    manifest = {
        "format": "manifest",
        "entries": [
            {"name": "d16", "source": str(tmp_path / "d16.json")},
            {"name": "bad", "source": str(tmp_path / "bad.json")},
            {"name": "q8", "source": "builtin:quaternion(8)"},
            {"name": "c4", "source": "perm:4:(0 1 2 3)"},
        ],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, "verify", "--manifest", str(mpath), "--timings")
    _, plain = run_cli(capsys, "verify", "--manifest", str(mpath))[:2]
    assert code == 1 and out == plain  # the rejected file is an error entry
    row = next(line for line in err.splitlines() if line.startswith("resolve"))
    _, seconds, count, *words, rate, unit = row.split()
    size = sum(os.path.getsize(tmp_path / f) for f in ("d16.json", "bad.json"))
    assert (int(count), words, unit) == (size, ["bytes", "read,"], "MB/s")
    assert float(rate) > 0 if float(seconds) > 0 else rate == "-"


def test_hom_command(capsys):
    code, out, _ = run_cli(capsys, "hom", "--p", "2", "--a", "2,1", "--b", "1")
    assert code == 0
    data = json.loads(out)
    assert data["hom"] == [1, 1] and data["order"] == 4


def test_predicate_command(capsys):
    code, out, _ = run_cli(
        capsys, "predicate", "--p", "2", "--alpha", "2,1", "--beta", "1,1", "--gamma", "1"
    )
    assert code == 0 and json.loads(out)["minimal"] is True
    code, out, _ = run_cli(
        capsys, "predicate", "--p", "2", "--alpha", "2,1", "--beta", "2,2", "--gamma", "1"
    )
    assert code == 0 and json.loads(out)["minimal"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("hom", "--p", "4", "--a", "1", "--b", "1"),
        ("hom", "--p", "2", "--a", "x", "--b", "1"),
        ("predicate", "--p", "2", "--alpha", "1", "--beta", "1", "--gamma", "0"),
        ("hom", "--p", "1000000000000037", "--a", "1", "--b", "1"),  # slow prime test
        ("hom", "--p", "2", "--a", "20000", "--b", "20000"),  # order past str()'s limit
        ("hom", "--p", "2", "--a", "1000000000000", "--b", "1000000000000"),  # 2^(10^12)
    ],
)
def test_bad_invariants_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "InvalidInvariants" in err


def test_build_then_analyze_roundtrip(capsys, tmp_path):
    gpath = tmp_path / "d8.json"
    code, _, err = run_cli(capsys, "build", "builtin:dihedral(8)", "-o", str(gpath))
    assert code == 0 and "order-8" in err
    assert read_group(gpath).order == 8
    code, out, _ = run_cli(capsys, "analyze", str(gpath))
    assert code == 0
    assert json.loads(out)["verdict"]["decision"] == "Minimal"


def test_list_builtins(capsys):
    code, out, _ = run_cli(capsys, "list-builtins")
    assert code == 0
    assert "dihedral(2^k)" in out and "metacyclic(m,s,t[,w])" in out


def test_env_cap_applies(capsys, monkeypatch):
    monkeypatch.setenv(ENV_CAP, "16")
    code, _, err = run_cli(capsys, "analyze", "builtin:dihedral(64)")
    assert code == 2
    assert "ClosureExceedsCap" in err


def test_env_hom_cap_applies(capsys, monkeypatch):
    monkeypatch.setenv(ENV_HOM_CAP, "2")
    code, out, _ = run_cli(capsys, "analyze", "builtin:quaternion(8)")
    assert code == 0
    assert json.loads(out)["centralSkipped"] is not None


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "builtin:cyclic(1048576)", "--cap", "2097152"],  # a 4 TiB table
        ["build", "builtin:dihedral(65536)", "--cap", "65536", "-o", "out.json"],  # 16 GiB
    ],
)
def test_cap_above_8192_exits_2_before_any_build(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert "is above 8192" in capsys.readouterr().err
    assert peak < 2**20 and not (tmp_path / "out.json").exists()


def test_env_cap_above_8192_exits_2(capsys, monkeypatch):
    monkeypatch.setenv(ENV_CAP, "2097152")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "builtin:cyclic(1048576)"])
    assert exc.value.code == 2
    assert "is above 8192" in capsys.readouterr().err


def test_cap_of_8192_is_taken(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, "analyze", "builtin:dihedral(16)", "--cap", "8192")
    assert code == 0
    monkeypatch.setenv(ENV_CAP, "8192")
    code, _, _ = run_cli(capsys, "analyze", "builtin:dihedral(16)")
    assert code == 0


def test_env_cap_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv(ENV_CAP, "lots")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "builtin:quaternion(8)"])
    assert exc.value.code == 2


def test_importing_the_cli_does_not_import_the_process_pool():
    """Only a run with more than one worker starts a pool, so a serial one
    never loads concurrent.futures.process."""
    code = "import sys, centaut.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "centaut.cli", "list-builtins"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert "dihedral" in proc.stdout
