"""What one corpus pass computes for each group before it enumerates.

The enumeration's set-up reads G' and Z as the structure masks, the allowed
images by powering the |Z| targets, and the coset labels from the basis
search's cosets; a validated group arrives with the greedy generators its
Light's test spanned.  The references are the routines these replaced.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from centaut import abelian, central, families, groups, structure
from centaut.families import parse_group_spec
from centaut.groupio import default_corpus
from centaut.groups import Group
from centaut.harness import analyze_source

import oracles


def test_corpus_pass_spans_each_group_once_and_reads_no_orders(monkeypatch):
    """No Group.element_orders, at most one greedy span over range(n) from
    {0} per group table, 54 in all and each one Light's test (a direct
    product reads its generators off its factors'), three section
    invariants (G/G', Z, Z_2/Z) per group, one commutator table per group
    and the allowed images powered once per enumeration."""
    spans, orders, products, sections, images = [], [], [], [], []
    comms, callers = [], Counter()
    real_span = groups.greedy_generators

    def span(table, seed, reached):
        seed = np.asarray(seed)
        if reached.sum() == 1 and np.array_equal(seed, np.arange(len(table))):
            spans.append(table)
            callers[sys._getframe(1).f_code.co_name] += 1
        return real_span(table, seed, reached)

    real_orders = Group.__dict__["element_orders"].func

    def element_orders(G):
        orders.append(G)
        return real_orders(G)

    real_product = families.direct_product

    def direct_product(*args, **kwargs):
        products.append(real_product(*args, **kwargs))
        return products[-1]

    real_sections, real_images = abelian.section_invariants, abelian._allowed_images

    def section_invariants(G, H, N):
        sections.append(G)
        return real_sections(G, H, N)

    real_comm = structure.commutator_table

    def commutator_table(G, xs):
        comms.append(G)
        return real_comm(G, xs)

    def allowed_images(inv, ambient, tgt):
        images.append(ambient)
        return real_images(inv, ambient, tgt)

    monkeypatch.setattr(groups, "greedy_generators", span)
    monkeypatch.setattr(structure, "greedy_generators", span)
    monkeypatch.setattr(Group, "element_orders", property(element_orders))
    monkeypatch.setattr(families, "direct_product", direct_product)
    monkeypatch.setattr(abelian, "section_invariants", section_invariants)
    monkeypatch.setattr(abelian, "_allowed_images", allowed_images)
    monkeypatch.setattr(structure, "commutator_table", commutator_table)
    entries = default_corpus().entries
    analysed = []
    for e in entries:
        rec = analyze_source(e.name, e.source, e.expected)
        assert rec.status == "ok", e.name
        analysed.append(rec)
    assert orders == []
    # each list keeps what it holds alive, so no id is reused
    counts = Counter(map(id, spans))
    assert len(counts) == 54 and max(counts.values()) == 1
    assert callers == {"_light_generators": 54}
    assert products and not {id(P.table) for P in products} & set(counts)
    sections = Counter(map(id, sections))
    assert len(sections) == len(entries) and set(sections.values()) == {3}
    comms = Counter(map(id, comms))
    assert len(comms) == len(entries) and set(comms.values()) == {1}
    images = Counter(map(id, images))
    assert len(images) == sum(rec.central is not None for rec in analysed)
    assert set(images.values()) == {1}


def test_section_basis_matches_the_former_search(corpus_groups, homs_groups):
    """The same basis elements and cosets as the search that regrew each
    span from N and powered all of G at every position."""
    for name, G in [*corpus_groups.items(), *homs_groups.items()]:
        N = structure.derived_subgroup(G)
        inv = structure.abelianization_invariants(G)
        basis, members = abelian.section_basis(G, N, inv)
        elements, ref_members = oracles.ref_section_basis(G, N, inv)
        assert basis.elements == elements, name
        assert np.array_equal(members, ref_members), name


def test_coset_labels_match_the_row_minima(corpus_groups, homs_groups):
    """Rows share a label exactly when they share a row minimum, the label
    the enumeration read before."""
    for name, G in [*corpus_groups.items(), *homs_groups.items()]:
        if G.is_abelian:
            continue
        N = structure.derived_subgroup(G)
        _, members = abelian.section_basis(G, N, structure.abelianization_invariants(G))
        z = np.flatnonzero(structure.center(G))
        label = central._coset_labels(G, members, z)
        assert label.shape == (len(members), len(z)), name
        ref = oracles.ref_row_labels(oracles.ref_coset_table(G, members, z), len(members))
        pairs = set(zip(label.ravel().tolist(), ref.tolist()))
        assert len(pairs) == len(set(label.ravel().tolist())) == len(set(ref.tolist())), name
        assert np.array_equal(label[:, 0], np.arange(len(members))), name


@pytest.mark.parametrize("spec", ["dihedral(64)", "heisenberg(3,1) x cyclic(3)"])
def test_allowed_images_match_element_orders(spec):
    G = parse_group_spec(spec)
    inv = structure.abelianization_invariants(G)
    tgt = abelian.target_array(np.flatnonzero(structure.center(G)))
    orders = oracles.ref_element_orders(G.table)[tgt]
    got = abelian._allowed_images(inv, G, tgt)
    assert [y.tolist() for y in got] == [
        np.flatnonzero(orders <= inv.prime**e).tolist() for e in inv.exponents
    ]
