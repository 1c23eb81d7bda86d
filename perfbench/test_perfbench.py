"""Self-tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil

import numpy as np
import pytest

import run
import spans
import workloads

SMALL_BASES = (
    ("d16xc2", "dihedral(16) x cyclic(2)"),
    ("heis3", "heisenberg(3,1)"),
)


@pytest.fixture(scope="module")
def ct():
    return run.import_centaut()


@pytest.fixture
def workdir():
    path = run.OUT / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _violations(t: np.ndarray) -> set[str]:
    """Which group axioms a table breaks, by a check independent of centaut."""
    n = len(t)
    idx = np.arange(n)
    out = set()
    if not ((np.sort(t, axis=0) == idx[:, None]).all() and (np.sort(t, axis=1) == idx).all()):
        out.add("latin")
    if not ((t[0] == idx).all() and (t[:, 0] == idx).all()):
        out.add("identity")
    if not (t[t] == t[idx[:, None, None], t[None, :, :]]).all():
        out.add("assoc")
    return out


def test_generation_is_deterministic_per_seed(ct, workdir):
    def files(seed, sub):
        entries = workloads.table_entries(ct, seed, workdir / sub, {}, bases=SMALL_BASES)
        return [(e.name, e.error, open(e.source, "rb").read()) for e in entries]

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")


@pytest.mark.parametrize("seed", range(12))
def test_each_corruption_breaks_exactly_its_axiom(ct, seed):
    table = ct.parse_group_spec("dihedral(16) x cyclic(2)").table
    assert _violations(table) == set()
    rng = random.Random(seed)
    broken = {kind: workloads.corrupt(table, kind, rng) for kind in workloads.CORRUPTIONS}
    assert _violations(broken["latin"]) >= {"latin"}
    assert _violations(broken["identity"]) == {"identity"}
    assert _violations(broken["assoc"]) == {"assoc"}


def test_tampered_report_fails_the_digest_check(ct):
    entries = [workloads.Entry("q8", "builtin:quaternion(8)", "Minimal", "Minimal")]
    _, records, report = run.run_pass(ct, entries, [])
    checker = run.Checker(entries, workloads.digest(report))
    checker.check(records, report)
    assert checker.correct
    checker.check(records, report.replace('"Minimal"', '"NotMinimal"', 1))
    assert checker.bad_digests == 1 and checker.failed == 0
    assert not checker.correct


def test_report_does_not_depend_on_the_visit_order(ct):
    entries = [
        workloads.Entry("q8", "builtin:quaternion(8)", "Minimal", "Minimal"),
        workloads.Entry("d16", "builtin:dihedral(16)", "NotMinimal", "NotMinimal"),
        workloads.Entry("heis3", "builtin:heisenberg(3,1)", "Minimal", "Minimal"),
    ]
    _, listed, report = run.run_pass(ct, entries, [])
    _, shuffled, shuffled_report = run.run_pass(ct, entries, [], order=[2, 0, 1])
    assert [r.name for r in shuffled] == [r.name for r in listed]
    assert shuffled_report == report


def test_accepted_corrupted_table_counts_as_failed(ct, workdir):
    workdir.mkdir(parents=True)
    path = workdir / "d16xc2.json"
    ct.write_group(ct.parse_group_spec("dihedral(16) x cyclic(2)"), path)
    entries = [
        workloads.Entry("claimed-corrupt", str(path), error="NotAssociative"),
        workloads.Entry("valid", str(path), "NotMinimal", "NotMinimal"),
    ]
    _, records, report = run.run_pass(ct, entries, [])
    assert records[0].status == "ok"
    checker = run.Checker(entries, None)
    checker.check(records, report)
    assert (checker.attempted, checker.failed, checker.missed) == (2, 1, ["claimed-corrupt"])
    assert not checker.correct


def test_wrong_error_class_counts_as_failed(ct, workdir):
    corrupted = workloads.table_entries(ct, 3, workdir, {}, bases=SMALL_BASES[:1])[1:]
    classes = list(workloads.CORRUPTIONS.values())
    wrong = [
        dataclasses.replace(e, error=classes[(classes.index(e.error) + 1) % len(classes)])
        for e in corrupted
    ]
    _, records, _ = run.run_pass(ct, wrong, [])
    assert all(r.status == "error" for r in records)
    assert not any(workloads.outcome_ok(e, r) for e, r in zip(wrong, records))


def test_children_never_exceed_their_parent(ct, workdir):
    entries = workloads.table_entries(ct, 5, workdir, {}, bases=SMALL_BASES)
    entries.append(workloads.Entry("es27", "builtin:extraspecial(3,27,-) x cyclic(3)"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_pass(ct, entries, [], tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    names = {s.name for s in tracer.spans}
    assert names == {f"{m}.{f}" for m, f in spans.TRACED}
    children = {}
    for s in tracer.spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    assert children
    for i, kids in children.items():
        parent = tracer.spans[i]
        assert sum(k.seconds for k in kids) <= parent.seconds
        assert all(parent.start <= k.start <= k.end <= parent.end for k in kids)
        assert all(k.entry == parent.entry for k in kids)
    assert min(spans.self_seconds(tracer.spans)) >= 0
    layers = spans.layer_metrics(tracer.spans)
    assert layers["groups.reject_s"] > 0 and layers["groupio.bytes"] > 0
    assert layers["structure.quotient_calls"] > 0


def test_tracer_reports_a_missing_function_as_absent(ct, monkeypatch):
    monkeypatch.delattr(ct.structure, "commutator_table")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["structure.commutator_table"]


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_percentile_interpolates_between_ranks():
    xs = list(range(101))
    assert run.percentile(xs, 0.5) == 50
    assert run.percentile(xs, 0.9) == 90
    assert run.percentile([1.0, 2.0], 0.5) == 1.5
