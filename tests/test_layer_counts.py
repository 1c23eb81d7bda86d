"""Element orders and section invariants read from G's own table.

Element orders come from powers by the divisors of |G|, and the invariants
of G/G', Z(G) and Z_2(G)/Z(G) from one layer count per section on G's
table.  The references walk the orders one power at a time and rebuild each
section as a Group to take its quotient, as the library once did.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from centaut import structure
from centaut.abelian import section_invariants
from centaut.families import cyclic, parse_group_spec
from centaut.groups import group_from_permutations
from centaut.structure import derived_subgroup, structure_report

import oracles


def _sections(G):
    """(name, H, N) for G/G', Z(G) and Z_2(G)/Z(G) as bool masks."""
    upper = structure._upper_masks(G)
    z, z2 = upper[1], upper[min(2, len(upper) - 1)]
    return [
        ("G/G'", np.ones(G.order, dtype=bool), derived_subgroup(G).mask),
        ("Z", z, np.arange(G.order) == 0),
        ("Z2/Z", z2, z),
    ]


def test_element_orders_match_walk(corpus_groups, homs_groups):
    s3 = group_from_permutations(3, [[1, 2, 0], [1, 0, 2]])
    extra = {"S3": s3, "cyclic(6)": cyclic(6), "cyclic(12)": cyclic(12)}
    groups = [*corpus_groups.items(), *homs_groups.items(), *extra.items()]
    assert len(groups) == 54 + 14 + 3
    for name, G in groups:
        want = oracles.ref_element_orders(G.table)
        assert G.element_orders.tolist() == want.tolist(), name
    assert sorted(s3.element_orders.tolist()) == [1, 2, 2, 2, 3, 3]


def test_section_invariants_match_quotient_route(corpus_groups, homs_groups):
    for name, G in [*corpus_groups.items(), *homs_groups.items()]:
        for section, H, N in _sections(G):
            want = oracles.ref_section_invariants(G, H, N)
            assert section_invariants(G, H, N) == want, (name, section)


@pytest.mark.parametrize(
    "n,H,N",
    [
        (9, [0, 1, 2, 3], [0]),  # layer of 2 elements in a 3-group
        (4, range(4), [0, 1]),  # layer of 3 elements over |N| = 2
        (4, [0, 2, 3], [2]),  # a valid count, then no layer grows: 0^2 stays outside N
    ],
)
def test_section_invariants_reject_a_count_off_the_layers(n, H, N):
    """Masks that are no section give a count that is not |N| times a
    power of p, or a layer that stalls: an error, never a list."""
    with pytest.raises(RuntimeError):
        section_invariants(cyclic(n), np.isin(np.arange(n), H), np.isin(np.arange(n), N))


@pytest.mark.parametrize(
    "spec",
    ["dihedral(4096)", "modular(2,4096)", "extraspecial(2,2048,+)", "extraspecial(3,2187,+)"],
)
def test_structure_report_matches_old_route(spec):
    G = parse_group_spec(spec)
    got, want = structure_report(G), oracles.ref_structure_report(G)
    for field in dataclasses.fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def test_structure_report_memory_at_order_4096():
    """No section is rebuilt: the 56 MiB peak of the quotient route is gone."""
    G = parse_group_spec("modular(2,4096)")
    tracemalloc.start()
    try:
        structure_report(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_structure_report_takes_no_quotient(monkeypatch):
    calls = []
    real = structure.quotient

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, "quotient", spy)
    for spec in ("dihedral(64)", "heisenberg(3,1) x cyclic(3)", "extraspecial(2,32,+)"):
        structure_report(parse_group_spec(spec))
    assert calls == []
    G = parse_group_spec("dihedral(64)")
    structure.quotient(G, derived_subgroup(G))  # the spy sees calls
    assert len(calls) == 1
