"""Properties that must hold across the whole default corpus.

These use the shared session fixtures, so the expensive enumeration runs
once for the file and once more never.
"""

import numpy as np

from centaut.groupio import resolve_source
from centaut.structure import center, derived_subgroup, upper_central_orders

import oracles


def test_corpus_spans_the_contracted_range(corpus_groups):
    primes = {G.prime for G in corpus_groups.values()}
    assert primes == {2, 3, 5}
    assert len(corpus_groups) >= 40
    assert all(G.order <= 2187 for G in corpus_groups.values())
    assert all(not G.is_abelian for G in corpus_groups.values())


def test_every_record_is_clean(corpus_run):
    report, _ = corpus_run
    for rec in report.records:
        assert rec.status == "ok", (rec.name, rec.error)
        assert rec.central is not None and rec.central_skipped is None
        assert rec.expected_ok is True, rec.name
    s = report.summary
    assert s["errors"] == s["mismatches"] == s["expectationFailures"] == 0
    assert report.ok


def test_rules_decide_every_corpus_group_and_agree(corpus_run):
    report, _ = corpus_run
    assert report.summary["undecided"] == 0
    for rec in report.records:
        assert rec.agreement is True, rec.name
        # every applicable cross-check rule reached the same decision
        assert "(CONFLICT)" not in rec.verdict.details, (
            rec.name,
            rec.verdict.details,
        )


def test_minimal_groups_of_class_three_plus_are_represented(corpus_run):
    report, _ = corpus_run
    assert report.summary["minimalClassGe3"] >= 3
    rules = {r.verdict.rule for r in report.records}
    # each structural rule family fires as the primary rule somewhere
    assert {
        "Class2",
        "MaximalClass",
        "OrderP5",
        "OrderP6",
        "OrderP7",
        "Coclass2",
        "Coclass3",
        "Coclass4",
        "Theorem21",
    } <= rules


def test_both_decisions_appear_for_late_rules(corpus_run):
    report, _ = corpus_run
    seen = {}
    for rec in report.records:
        seen.setdefault(rec.verdict.rule, set()).add(rec.verdict.decision)
    for rule in ("Class2", "OrderP5", "OrderP6", "OrderP7"):
        assert seen[rule] == {"Minimal", "NotMinimal"}, rule


def test_upper_and_lower_series_agree_on_class(corpus_groups, corpus_structures):
    for name, G in corpus_groups.items():
        rep = corpus_structures[name]
        upper = upper_central_orders(G)
        lower = oracles.ref_lower_masks(G.table)
        assert len(upper) == len(lower) == rep.nilpotency_class + 1, name
        assert rep.coclass == rep.order_exp - rep.nilpotency_class
        # coclass 1 exactly for maximal class
        assert (rep.coclass == 1) == (
            rep.nilpotency_class == rep.order_exp - 1
        ), name


def test_exponent_bound_on_inner_center(corpus_structures):
    for name, rep in corpus_structures.items():
        assert max(rep.inner_center.exponents, default=0) <= max(rep.center.exponents, default=0), name


def test_center_in_derived_forces_all_candidates_bijective(corpus_run):
    """When Z <= G', the candidate maps cannot degenerate."""
    report, _ = corpus_run
    checked = 0
    for rec in report.records:
        if rec.structure.center_in_derived:
            assert rec.central.aut_count == rec.central.hom_candidates, rec.name
            checked += 1
    assert checked >= 10


def test_inner_center_order_divides_aut_count(corpus_run):
    report, _ = corpus_run
    for rec in report.records:
        assert rec.central.aut_count % rec.central.z_inn_order == 0, rec.name


def test_z_inn_order_matches_structure_report(corpus_run):
    report, _ = corpus_run
    for rec in report.records:
        assert rec.central.z_inn_order == rec.structure.inner_center.order, rec.name


def test_sources_rebuild_identically(corpus):
    for name in ("q8", "es243-", "mc32_8b", "heis5xc5"):
        src, _ = corpus[name]
        A, B = resolve_source(src), resolve_source(src)
        assert A.table.tobytes() == B.table.tobytes()


def test_derived_contains_center_flag_is_accurate(corpus_groups, corpus_structures):
    for name, G in corpus_groups.items():
        der = derived_subgroup(G)
        z = center(G)
        assert corpus_structures[name].center_in_derived == (z.mask <= der.mask).all(), name
