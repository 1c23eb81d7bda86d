"""End-to-end verification runs: agreement, determinism, summaries."""

import hashlib
import json
import os

import pytest

import oracles
from centaut import cli, structure
from centaut.groupio import Manifest, ManifestEntry, default_corpus, read_manifest
from centaut.harness import (
    REPORT_FORMATS,
    STAGES,
    VerificationReport,
    _worker_count,
    analyze_source,
    format_report,
    record_dict,
    run_verification,
)

SMALL = Manifest(
    (
        ManifestEntry("q8", "builtin:quaternion(8)", "Minimal"),
        ManifestEntry("d16", "builtin:dihedral(16)", "NotMinimal"),
        ManifestEntry("bad", "builtin:nosuch(1)"),
        ManifestEntry("ab", "builtin:cyclic(8)"),
    )
)


@pytest.fixture(scope="module")
def small_report():
    return run_verification(SMALL)


def test_analyze_source_ok():
    rec = analyze_source("q8", "builtin:quaternion(8)", expected="Minimal")
    assert rec.status == "ok"
    assert rec.order == 8 and rec.prime == 2
    assert rec.verdict.decision == "Minimal"
    assert rec.agreement is True
    assert rec.expected_ok is True
    assert rec.verdict.brute_force_agrees is True
    assert rec.seconds > 0


def test_analyze_source_error_is_captured():
    rec = analyze_source("x", "builtin:nosuch(1)")
    assert rec.status == "error"
    assert "UnknownBuiltin" in rec.error
    assert rec.verdict is None


def test_a_failed_count_check_ends_one_entry_not_the_run(monkeypatch, tmp_path, capsys):
    """With G' read as Phi(G), the counts of heis4, mc32_8b and heis9
    fall below |Z_2/Z| and raise RuntimeError: those three entries become
    error records naming it, the other 51 still run, and `verify` exits 1
    with no traceback."""
    monkeypatch.setattr(structure, "derived_subgroup", lambda G: oracles.ref_frattini_mask(G.table, G.prime))
    report = run_verification(default_corpus())
    assert len(report.records) == 54
    errors = {r.name: r.error for r in report.records if r.status == "error"}
    assert set(errors) == {"heis4", "mc32_8b", "heis9"}
    assert all(e.startswith("RuntimeError: ") and "below |Z_2/Z|" in e for e in errors.values())
    assert {r.status for r in report.records if r.name not in errors} == {"ok"}
    assert not report.ok
    assert cli.main(["verify", "-o", str(tmp_path / "report.json")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_verdict_path_takes_no_quotient(monkeypatch, all_entries):
    """With quotient and check_normal made to raise, every corpus, homs
    and witness entry still analyses ok: neither is on the verdict path."""

    def refuse(*args):
        raise RuntimeError("quotient and check_normal are off the verdict path")

    monkeypatch.setattr(structure, "quotient", refuse)
    monkeypatch.setattr(structure, "check_normal", refuse)
    assert len(all_entries) == 54 + 14 + 3
    for e in all_entries:
        rec = analyze_source(e.name, e.source, e.expected)
        assert rec.status == "ok" and rec.expected_ok is not False, (e.name, rec.error)


def test_analyze_source_abelian_skips():
    rec = analyze_source("c8", "builtin:cyclic(8)")
    assert rec.status == "skipped"
    assert "abelian" in rec.error


def test_analyze_source_expectation_failure():
    rec = analyze_source("q8", "builtin:quaternion(8)", expected="NotMinimal")
    assert rec.status == "ok" and rec.expected_ok is False
    assert VerificationReport([rec]).summary["expectationFailures"] == 1
    assert not VerificationReport([rec]).ok


def test_analyze_source_hom_cap_skips_enumeration():
    rec = analyze_source("q8", "builtin:quaternion(8)", hom_cap=2)
    assert rec.status == "ok"
    assert rec.central is None and rec.central_skipped is not None
    assert rec.agreement is None  # no oracle, no agreement claim


def test_summary_counts(small_report):
    s = small_report.summary
    assert s["entries"] == 4
    assert s["minimal"] == 1 and s["notMinimal"] == 1
    assert s["errors"] == 1 and s["skipped"] == 1
    assert s["mismatches"] == 0 and s["expectationFailures"] == 0
    assert not small_report.ok  # the error entry poisons the run


def test_records_keep_manifest_order(small_report):
    assert [r.name for r in small_report.records] == ["q8", "d16", "bad", "ab"]
    parallel = run_verification(SMALL, jobs=3)
    assert [r.name for r in parallel.records] == ["q8", "d16", "bad", "ab"]


def test_serialized_records_exclude_timing(small_report):
    for rec in small_report.records:
        d = record_dict(rec)
        assert "seconds" not in json.dumps(d)
        assert "stages" not in json.dumps(d)
        assert d["name"] == rec.name


def test_stages_split_the_entry_time(small_report):
    q8, d16, bad, ab = small_report.records
    for rec in (q8, d16):
        assert list(rec.stages) == list(STAGES)
    assert list(bad.stages) == ["resolve"]  # the builtin does not exist
    assert list(ab.stages) == ["resolve", "structure", "classify"]  # abelian
    for rec in small_report.records:
        assert all(s >= 0 for s in rec.stages.values())
        assert sum(rec.stages.values()) <= rec.seconds


def test_format_report_shapes(small_report):
    js = json.loads(format_report(small_report, "json"))
    assert js["format"] == "verification-report"
    assert js["summary"]["entries"] == 4
    assert len(js["records"]) == 4
    csv_text = format_report(small_report, "csv")
    assert csv_text.count("\n") == 5  # header + 4 rows
    table = format_report(small_report, "table")
    assert "q8" in table and "Minimal" in table
    with pytest.raises(ValueError):
        format_report(small_report, "yaml")
    assert set(REPORT_FORMATS) == {"json", "csv", "table"}


def test_manifest_accepts_perm_sources():
    manifest = Manifest((ManifestEntry("d8", "perm:4:(0 1 2 3);(1 3)", "Minimal"),))
    report = run_verification(manifest)
    rec = report.records[0]
    assert rec.status == "ok" and rec.order == 8
    assert rec.verdict.decision == "Minimal" and rec.agreement is True
    assert report.ok


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _worker_count(10**9, 54) == 2
    assert _worker_count(4, 1) == 1
    assert _worker_count(0, 54) == 1
    assert _worker_count(-5, 54) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(8, 54) == 1


def test_parallel_output_is_byte_identical(small_report):
    parallel = run_verification(SMALL, jobs=3)
    for fmt in REPORT_FORMATS:
        assert format_report(small_report, fmt) == format_report(parallel, fmt)


# sha256 of each corpus report: any change to a verdict, a detail, a count
# or the layout of a format shows here.
CORPUS_REPORT_SHA256 = {
    "json": "c31bc251ebca18a82445bc0060e6e63c78c14f0a0469698bed50943afc7a7f04",
    "csv": "a7a0a12cde8a9dbc653fe0a95fb7a087c57fed76d9cf8a43ad2c14df2f2c4061",
    "table": "4e730c7642b66bb5784b77b7c261e5167ec4a46f6a26f660cbe45d076eb728a3",
}


@pytest.mark.parametrize("fmt", REPORT_FORMATS)
def test_corpus_reports_match_their_pinned_digests(corpus_run, fmt):
    text = format_report(corpus_run[0], fmt)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_REPORT_SHA256[fmt]


# Rule branches that no default-corpus group reaches, with the enumeration's
# count of central automorphisms against |Z_2/Z|.
WITNESSES = {
    "q8xq8": ("NotMinimal", "Class2", "center [1, 1] is not cyclic", 256, 16),
    "mc64_16": (
        "Minimal",
        "Coclass4",
        "center [1], d=d(Z2/Z)=2; cross-checks: Theorem21=Minimal",
        4,
        4,
    ),
    "mc81_27": (
        "Minimal",
        "OrderP7",
        "center [1], d=d(Z2/Z)=2; cross-checks: Coclass3=Minimal, Theorem21=Minimal",
        9,
        9,
    ),
}


def test_witness_manifest_pins_uncovered_branches():
    path = os.path.join(os.path.dirname(__file__), "witnesses.json")
    report = run_verification(read_manifest(path))
    assert report.ok
    got = {
        r.name: (
            r.verdict.decision,
            r.verdict.rule,
            r.verdict.details,
            r.central.aut_count,
            r.central.z_inn_order,
        )
        for r in report.records
    }
    assert got == WITNESSES
    assert [r.structure.nilpotency_class for r in report.records] == [2, 6, 4]
