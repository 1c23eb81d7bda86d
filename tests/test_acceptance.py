"""The ten gate checks for the whole package.

Each test evaluates one acceptance criterion end to end and prints a single
PASS/FAIL line straight to the real stdout (bypassing capture) so the gate
status is always visible in the pytest run.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from centaut.abelian import hom_invariants, section_invariants
from centaut.central import central_automorphism_count
from centaut.families import abelian_group, cyclic, elementary
from centaut.groupio import default_corpus
from centaut.harness import REPORT_FORMATS, format_report, run_verification
from centaut.structure import center, quotient

import oracles
from oracles import all_automorphisms


def gate(capsys, num: int, ok: bool, text: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_oracle_equivalence(capsys, corpus_run, corpus_groups):
    report, seconds = corpus_run
    n = len(report.records)
    primes = {G.prime for G in corpus_groups.values()}
    agree = sum(r.agreement is True for r in report.records)
    shape_ok = (
        n >= 40
        and primes == {2, 3, 5}
        and max(G.order for G in corpus_groups.values()) <= 2187
    )
    ok = (
        shape_ok
        and agree == n
        and report.summary["mismatches"] == 0
        and seconds <= 300.0
    )
    gate(
        capsys,
        1,
        ok,
        f"classifier vs enumeration oracle: {agree}/{n} agree, "
        f"0 mismatches required, primes {sorted(primes)}, {seconds:.1f}s",
    )


def test_criterion_02_stability_count_identity(capsys, corpus_groups):
    tried = failures = 0
    for name, G in corpus_groups.items():
        whole, one = np.ones(G.order, dtype=bool), np.arange(G.order) == 0
        derived = oracles.ref_derived_mask(G.table)
        frattini = oracles.ref_frattini_mask(G.table, G.prime)
        z2 = oracles.ref_upper_masks(G.table)[2]
        for X in (derived, frattini, z2):
            xg = oracles.ref_closure_mask(G.table, np.flatnonzero(X | derived))
            meet = center(G) & X
            for Y in (meet, meet & (G.element_orders <= G.prime)):  # and its socle
                count = oracles.ref_stability_count(G, X, Y)
                homs = hom_invariants(section_invariants(G, whole, xg), section_invariants(G, Y, one))
                tried += 1
                if count != homs.order:
                    failures += 1
    ok = failures == 0 and tried == 6 * len(corpus_groups)
    gate(capsys, 2, ok, f"stability maps == |Hom(G/XG', Y)| on {tried} (G, X, Y) triples, {failures} failures")


def test_criterion_03_adney_yen_identity(capsys, corpus_groups, corpus_structures):
    checked = failures = 0
    for name, G in corpus_groups.items():
        rep = corpus_structures[name]
        if rep.center.rank != 1:
            continue
        checked += 1
        homs = hom_invariants(rep.abelianization, rep.center)
        if central_automorphism_count(G).aut_count != homs.order:
            failures += 1
    ok = failures == 0 and checked >= 20
    gate(capsys, 3, ok, f"aut count == |Hom(G/G', Z)| on {checked} cyclic-center groups, {failures} failures")


def test_criterion_04_minimality_necessary_conditions(capsys, corpus_run):
    report, _ = corpus_run
    minimal = [r for r in report.records if r.central.minimal]
    bad = [
        r.name
        for r in minimal
        if not (
            r.structure.center_in_derived
            and r.structure.inner_center.rank >= 2
            and r.structure.d * r.structure.d_center == r.structure.d_inner_center
        )
    ]
    ok = not bad and len(minimal) >= 10
    gate(
        capsys,
        4,
        ok,
        f"all {len(minimal)} enumeration-minimal groups have Z<=G', "
        f"noncyclic Z2/Z and d*d(Z)==d(Z2/Z); exceptions: {bad or 'none'}",
    )


def test_criterion_05_central_section_embedding(capsys, corpus_groups):
    checked = failures = 0
    for name, G in corpus_groups.items():
        z = np.flatnonzero(center(G))
        z2 = oracles.ref_upper_masks(G.table)[2]
        gamma = oracles.ref_abelian_invariants(oracles.ref_as_group_table(G.table, z), G.prime)
        seen = set()
        for x in np.flatnonzero(z2):
            A = oracles.ref_closure_mask(G.table, [*z, x])
            if A.tobytes() in seen:
                continue
            seen.add(A.tobytes())
            Q, _ = quotient(G, A)
            qab, _ = quotient(Q, oracles.ref_derived_mask(Q.table))
            hom = hom_invariants(oracles.ref_abelian_invariants(qab.table, G.prime), gamma)
            # A/Z = <xZ> is cyclic, so it embeds iff Hom has an element of its order
            orders = oracles.ref_element_orders(abelian_group(G.prime, hom.exponents).table)
            checked += 1
            if int(A.sum()) // len(z) not in orders:
                failures += 1
    ok = failures == 0 and checked >= len(corpus_groups)
    gate(capsys, 5, ok, f"A/Z embeds in Hom(G/A, Z) for {checked} sections <Z, x>, {failures} failures")


def test_criterion_06_exponent_bound(capsys, corpus_structures):
    bad = [
        name
        for name, rep in corpus_structures.items()
        if max(rep.inner_center.exponents, default=0) > max(rep.center.exponents, default=0)
    ]
    gate(capsys, 6, not bad, f"exp(Z2/Z) <= exp(Z) across {len(corpus_structures)} groups; exceptions: {bad or 'none'}")


def test_criterion_07_named_values(capsys, corpus_run):
    recs = {r.name: r for r in corpus_run[0].records}
    q8, d16, heis4, d16xc2 = recs["q8"], recs["d16"], recs["heis4"], recs["d16xc2"]
    c4 = central_automorphism_count(cyclic(4))
    checks = {
        "Q8 4==4 minimal": q8.central.aut_count == 4 == q8.central.z_inn_order
        and q8.verdict.decision == "Minimal",
        "D16 4>2 not minimal": d16.central.aut_count == 4
        and d16.central.z_inn_order == 2
        and d16.verdict.decision == "NotMinimal",
        "heisenberg(2,2) minimal via class-2 rule": heis4.verdict.rule == "Class2"
        and heis4.verdict.decision == "Minimal"
        and heis4.central.minimal,
        "D16 x C2 not minimal": d16xc2.verdict.decision == "NotMinimal"
        and not d16xc2.central.minimal,
        "C4: 2 of 4 candidates bijective": (c4.hom_candidates, c4.aut_count) == (4, 2),
    }
    bad = [k for k, v in checks.items() if not v]
    gate(capsys, 7, not bad, f"named pinned values; failed: {bad or 'none'}")


def test_criterion_08_hom_oracle(capsys):
    small_a = [
        cyclic(2),
        cyclic(4),
        cyclic(8),
        elementary(2, 2),
        elementary(2, 3),
        abelian_group(2, [2, 1]),
        cyclic(3),
        cyclic(5),
        cyclic(7),
    ]
    small_b = [cyclic(2), cyclic(4), elementary(2, 2), cyclic(3)]
    checked = failures = 0
    for A, B in itertools.product(small_a, small_b):
        if A.prime != B.prime:
            continue
        inv = oracles.ref_abelian_invariants(A.table, A.prime)
        formula = hom_invariants(inv, oracles.ref_abelian_invariants(B.table, B.prime)).order
        # the maps on A's elements: coordinates in C order along the basis
        # give members[k, 0] the k-th tuple
        _, members = oracles.ref_section_basis(A, np.arange(A.order) == 0, inv)
        coords = oracles.ref_c_order_tuples(inv)
        ta, tb = A.table.tolist(), B.table.tolist()
        maps = set()
        for f in oracles.ref_iter_homomorphisms(coords, inv.prime, inv.exponents, tb, range(B.order)):
            g = np.empty(A.order, dtype=np.int64)
            g[members[:, 0]] = f
            maps.add(tuple(g.tolist()))
        counted = sum(oracles.ref_is_hom(ta, tb, g) for g in maps)
        raw = oracles.ref_hom_count(ta, tb)
        checked += 1
        if not (formula == counted == raw):
            failures += 1
    ok = failures == 0 and checked >= 15
    gate(capsys, 8, ok, f"|Hom| formula == enumeration == raw function scan on {checked} pairs, {failures} failures")


def test_criterion_09_small_scale_completeness(capsys, corpus_groups, corpus_run):
    recs = {r.name: r for r in corpus_run[0].records}
    checked = failures = 0
    for name, G in corpus_groups.items():
        if G.order > 16:
            continue
        full = all_automorphisms(G)
        z = center(G)
        central_subset = {
            a.tobytes() for a in full if z[G.table[G.inverse, a]].all()
        }
        sigma_f = {
            s.astype(full[0].dtype).tobytes() for s in oracles.ref_central_automorphisms(G)
        }
        checked += 1
        if central_subset != sigma_f or len(sigma_f) != recs[name].central.aut_count:
            failures += 1
    ok = failures == 0 and checked >= 8
    gate(
        capsys,
        9,
        ok,
        f"sigma_f enumeration == filtered full automorphism search on "
        f"{checked} groups of order <= 16, {failures} failures",
    )


def test_criterion_10_deterministic_reports(capsys, corpus_run):
    report2, _ = corpus_run  # jobs=2
    report4 = run_verification(default_corpus(), jobs=4)
    diffs = [
        fmt
        for fmt in REPORT_FORMATS
        if format_report(report2, fmt) != format_report(report4, fmt)
    ]
    gate(capsys, 10, not diffs, f"byte-identical reports across jobs settings; differing formats: {diffs or 'none'}")
