"""Structure from a generating set against the full-table references.

The library reads Z(G), the upper central series, G' and d(G) off one
generating set; the oracles read them off the whole n x n commutator table
and find d(G) through the Frattini subgroup.  Both must give the same
subgroups, term by term, on the corpus and on drawn products, and the
upper series as many terms as the oracles' lower one.
"""

import functools

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from centaut import structure
from centaut.families import parse_group_spec
from centaut.groups import direct_product, greedy_generators, group_from_permutations
from centaut.structure import Subgroup, center, derived_subgroup, structure_report

import oracles


def test_greedy_span_from_a_normal_subgroup_matches_reference(corpus_groups):
    """From the mask of a normal N (G' or Z(G)), greedy_generators ends at
    <N, seed>: the span <chosen>N that abelian bases grow."""
    for name, G in corpus_groups.items():
        n = G.order
        seed = [n - 1, n // 2, n // 3, 1]
        for N in (derived_subgroup(G).mask, center(G).mask):
            assert 1 < N.sum() < n, name
            reached = N.copy()
            for _ in greedy_generators(G.table, seed, reached):
                pass
            want = oracles.ref_closure_mask(G.table, np.union1d(np.flatnonzero(N), seed))
            assert (reached == want).all(), name


def assert_matches_reference(G):
    t = G.table
    upper = oracles.ref_upper_masks(t)
    lower = oracles.ref_lower_masks(t)
    assert (center(G).mask == upper[min(1, len(upper) - 1)]).all()
    got = structure._upper_masks(G)
    assert len(got) == len(upper) == len(lower)
    for mask, want in zip(got, upper):
        assert (mask == want).all()
    assert (derived_subgroup(G).mask == oracles.ref_derived_mask(t)).all()
    z2 = Subgroup(G, np.flatnonzero(got[min(2, len(got) - 1)]), verify=False)
    for sub in (center(G), z2, derived_subgroup(G)):
        assert sub.is_abelian == oracles.ref_is_abelian(t, sub.elements)
    if G.order > 1:
        assert structure_report(G).d == oracles.ref_generator_count(t, G.prime)


def test_corpus_matches_full_table_reference(corpus_groups):
    for G in corpus_groups.values():
        assert_matches_reference(G)


# Small builtins by prime.
SMALL = {
    2: ("cyclic(2)", "cyclic(4)", "elementary(2,2)", "dihedral(8)", "quaternion(8)",
        "dihedral(16)", "quaternion(16)", "semidihedral(16)", "modular(2,16)"),
    3: ("cyclic(3)", "cyclic(9)", "elementary(3,2)", "heisenberg(3,1)", "modular(3,27)"),
}
small = functools.cache(parse_group_spec)  # builds each factor once


def pairs(pool):
    return st.sampled_from(sorted(pool)).flatmap(
        lambda p: st.tuples(st.sampled_from(pool[p]), st.sampled_from(pool[p]))
    )


@given(pairs(SMALL))
def test_direct_products_match_full_table_reference(specs):
    A, B = map(small, specs)
    assume(A.order * B.order <= 256)
    assert_matches_reference(direct_product(A, B))


def test_non_nilpotent_center_and_derived_match_reference():
    S3 = group_from_permutations(3, [[1, 2, 0], [1, 0, 2]])
    assert list(center(S3).elements) == oracles.ref_center(S3.table.tolist())
    assert (derived_subgroup(S3).mask == oracles.ref_derived_mask(S3.table)).all()
    assert derived_subgroup(S3).order == 3
