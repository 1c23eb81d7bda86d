"""Rule evaluation, precedence and the verdict contract."""

import itertools

import pytest

from centaut.abelian import AbelianInvariants
from centaut.criteria import (
    MINIMAL,
    NOT_MINIMAL,
    RULE_CLASS2,
    RULE_COCLASS2,
    RULE_COCLASS3,
    RULE_COCLASS4,
    RULE_MAXIMAL_CLASS,
    RULE_NONE,
    RULE_ORDER_P5,
    RULE_ORDER_P6,
    RULE_ORDER_P7,
    RULE_THEOREM21,
    UNDECIDED,
    Verdict,
    classify,
    classify_report,
    evaluate_rules,
    necessary_conditions,
    theorem21_predicate,
)
from centaut.errors import AbelianGroup, EmptyAlpha, PrimeMismatch
from centaut.families import (
    cyclic,
    dihedral,
    heisenberg,
    metacyclic,
    parse_group_spec,
    quaternion,
    unitriangular4,
    wreath,
)
from centaut.structure import StructureReport, structure_report

import oracles


def inv(p, *exps):
    return AbelianInvariants(p, tuple(exps))


def test_verdict_consistency_enforced():
    with pytest.raises(ValueError):
        Verdict("Sometimes", RULE_CLASS2, "")
    with pytest.raises(ValueError):
        Verdict(UNDECIDED, RULE_CLASS2, "")  # undecided must carry rule None
    with pytest.raises(ValueError):
        Verdict(MINIMAL, RULE_NONE, "")
    v = Verdict(UNDECIDED, RULE_NONE, "nothing applies")
    assert v.brute_force_agrees is None


def test_theorem21_exact_match():
    assert theorem21_predicate(inv(2, 2, 1), inv(2, 2, 1), 3)


def test_theorem21_truncation_match():
    # beta_i == min(alpha_i, gamma1) componentwise
    assert theorem21_predicate(inv(2, 3, 2), inv(2, 1, 1), 1)
    assert theorem21_predicate(inv(2, 3, 1), inv(2, 2, 1), 2)
    assert not theorem21_predicate(inv(2, 3, 1), inv(2, 2, 2), 2)
    assert not theorem21_predicate(inv(2, 2, 1), inv(2, 2), 3)  # rank drop


def test_theorem21_matches_cutoff_formulation():
    """Compare against the rank-cutoff phrasing on all short exponent lists.

    The cutoff form: with alpha descending and r the number of entries
    >= gamma1, minimal iff beta equals (gamma1 repeated r times) followed by
    the remaining alpha entries, or beta equals alpha itself.
    """
    import itertools

    def cutoff_form(alpha, beta, g1):
        if alpha == beta:
            return True
        r = sum(a >= g1 for a in alpha)
        expect = tuple([g1] * r + list(alpha[r:]))
        return beta == expect

    lists = [
        t
        for k in range(1, 6)
        for t in itertools.combinations_with_replacement(range(5, 0, -1), k)
    ]
    for alpha, beta in itertools.product(lists, lists):
        for g1 in range(1, 6):
            want = cutoff_form(alpha, beta, g1)
            got = theorem21_predicate(inv(2, *alpha), inv(2, *beta), g1)
            assert got == want, (alpha, beta, g1)


def test_theorem21_rejections():
    with pytest.raises(PrimeMismatch):
        theorem21_predicate(inv(2, 1), inv(3, 1), 1)
    with pytest.raises(EmptyAlpha):
        theorem21_predicate(inv(2), inv(2, 1), 1)
    with pytest.raises(ValueError):
        theorem21_predicate(inv(2, 1), inv(2, 1), 0)


def test_class2_rule():
    v = classify(quaternion(8))
    assert v.decision == MINIMAL and v.rule == RULE_CLASS2
    v = classify(heisenberg(2, 1))
    assert v.decision == MINIMAL and v.rule == RULE_CLASS2
    # center strictly above the derived subgroup: not minimal
    v = classify(parse_group_spec("dihedral(8) x cyclic(2)"))
    assert v.decision == NOT_MINIMAL and v.rule == RULE_CLASS2
    # class 2 with noncyclic center equal to derived subgroup
    v = classify(parse_group_spec("heisenberg(2,1) x heisenberg(2,1)"))
    assert v.decision == NOT_MINIMAL and v.rule == RULE_CLASS2


def test_maximal_class_rule():
    v = classify(dihedral(16))
    assert v.decision == NOT_MINIMAL and v.rule == RULE_MAXIMAL_CLASS
    v = classify(quaternion(32))
    assert v.decision == NOT_MINIMAL and v.rule == RULE_MAXIMAL_CLASS


def test_order_rules_fire_at_p5_to_p7():
    v = classify(parse_group_spec("dihedral(16) x cyclic(2)"))
    assert v.rule == RULE_ORDER_P5 and v.decision == NOT_MINIMAL
    v = classify(parse_group_spec("dihedral(16) x cyclic(4)"))
    assert v.rule == RULE_ORDER_P6
    v = classify(parse_group_spec("dihedral(32) x cyclic(4)"))
    assert v.rule == RULE_ORDER_P7
    v = classify(metacyclic(16, 4, 3))
    assert v.rule == RULE_ORDER_P6 and v.decision == MINIMAL


def test_coclass_rule_fires_when_orders_exceed_p7():
    v = classify(metacyclic(64, 4, 15))  # order 2^8, class 6, coclass 2
    assert v.rule == RULE_COCLASS2 and v.decision == MINIMAL


def test_theorem21_fires_when_nothing_structural_applies():
    v = classify(metacyclic(32, 8, 5))  # order 2^8, class 3, coclass 5
    assert v.rule == RULE_THEOREM21 and v.decision == MINIMAL


def test_undecided_when_no_rule_applies():
    # order 2^8, class 3, coclass 5, noncyclic center
    G = parse_group_spec("unitriangular4(2) x elementary(2,2)")
    v = classify(G)
    assert v.decision == UNDECIDED and v.rule == RULE_NONE
    assert v.brute_force_agrees is None


def test_classify_rejects_abelian():
    with pytest.raises(AbelianGroup):
        classify(cyclic(8))


COCLASS_RULES = (RULE_COCLASS2, RULE_COCLASS3, RULE_COCLASS4)
ORDER_RULES = (RULE_ORDER_P5, RULE_ORDER_P6, RULE_ORDER_P7)


def _rows(rep):
    """evaluate_rules' rows as rule -> (decision, detail)."""
    return {rule: (decision, detail) for rule, decision, detail in evaluate_rules(rep)}


def test_predicate_preconditions():
    """The coclass and order rules give no row outside their range: class
    >= 3, and coclass 2..4 or order p^5..p^7."""
    for G in (heisenberg(2, 1), heisenberg(2, 2), dihedral(16)):
        # class 2 at p^3 and at p^6; coclass 1 at p^4
        assert not set(_rows(structure_report(G))) & {*COCLASS_RULES, *ORDER_RULES}


def test_evaluate_rules_precedence_order():
    rep = structure_report(metacyclic(16, 4, 3))  # class 4, coclass 2, Z=C2
    rules = [r for r, _, _ in evaluate_rules(rep)]
    assert rules == [RULE_ORDER_P6, RULE_COCLASS2, RULE_THEOREM21]
    # all applicable rules agree here, so no conflict marker
    v = classify_report(rep)
    assert "CONFLICT" not in v.details and "cross-checks" in v.details


def test_necessary_conditions():
    n = necessary_conditions(structure_report(quaternion(8)))
    assert n.center_in_derived and n.rank_identity and n.satisfied
    n = necessary_conditions(structure_report(parse_group_spec("dihedral(8) x cyclic(2)")))
    assert not n.center_in_derived and not n.satisfied
    with pytest.raises(AbelianGroup):
        necessary_conditions(structure_report(cyclic(4)))


def test_wreath_and_unitriangular_pins():
    assert classify(wreath(2)).decision == MINIMAL
    assert classify(unitriangular4(2)).decision == NOT_MINIMAL
    assert classify(wreath(3)).decision == NOT_MINIMAL


def synthetic_report(n, cls, a, g, b, center_in_derived=True):
    """A StructureReport at order 2^n and class cls with G/G', Z and Z_2/Z
    of invariants a, g and b; nothing checks that a group has them."""
    return StructureReport(
        order=2**n,
        prime=2,
        order_exp=n,
        nilpotency_class=cls,
        coclass=n - cls,
        d=len(a),
        d_center=len(g),
        d_inner_center=len(b),
        abelianization=inv(2, *a),
        center=inv(2, *g),
        inner_center=inv(2, *b),
        center_in_derived=center_in_derived,
        second_center_abelian=True,
    )


# Every d-set size, the centers [1], [2] and [3], and the Coclass4 case
# Z_2/Z = [2,1] with G/G' = [3,1] or [4,1]; () makes Theorem21 reject.
GRID_LISTS = [
    (), (1,), (2,), (3,), (1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)
]


def _outcome(rule, rep):
    try:
        v = rule(rep)
    except Exception as e:  # the class is the outcome
        return type(e)
    return v.decision, v.rule, v.details


def _assert_row_matches(rows, rules, ref, rep):
    """The row of `rules` that evaluate_rules gives is the verdict of the
    reference predicate `ref`; no row where it does not apply (raises) or
    leaves the case open (RULE_NONE)."""
    got = {rule: rows[rule] for rule in rules if rule in rows}
    v = _outcome(ref, rep)
    if isinstance(v, tuple) and v[1] != RULE_NONE:
        assert got == {v[1]: (v[0], v[2])}, (ref.__name__, rep)
    else:
        assert got == {}, (ref.__name__, rep)


def test_rules_match_the_branch_by_branch_predicates():
    """classify_report gives the decision, rule and details, or raises the
    class, of the rules written out branch by branch, and each coclass and
    order row of evaluate_rules is the branch-by-branch predicate's
    verdict, on orders 2^4..2^8 at every class."""
    reached = set()
    for n in range(4, 9):
        for cls in range(1, n):
            for a, g, b in itertools.product(GRID_LISTS, repeat=3):
                for cid in (True, False) if cls == 2 else (True,):
                    rep = synthetic_report(n, cls, a, g, b, cid)
                    got = _outcome(classify_report, rep)
                    assert got == _outcome(oracles.ref_classify_report, rep), rep
                    if not isinstance(got, tuple):  # evaluate_rules raises too
                        continue
                    rows = _rows(rep)
                    _assert_row_matches(rows, COCLASS_RULES, oracles.ref_coclass_predicate, rep)
                    _assert_row_matches(rows, ORDER_RULES, oracles.ref_order_predicate, rep)
                    reached |= {(decision, rule) for rule, (decision, _) in rows.items()}
    for rule in [*ORDER_RULES, *COCLASS_RULES]:
        assert {(MINIMAL, rule), (NOT_MINIMAL, rule)} <= reached, rule


# The reference predicate of each family of rules, by its name in the ids.
PREDICATES = {
    "coclass_predicate": (COCLASS_RULES, oracles.ref_coclass_predicate),
    "order_predicate": (ORDER_RULES, oracles.ref_order_predicate),
}


@pytest.mark.parametrize(
    "predicate,n,cls,a,g,b,want",
    [
        ("coclass_predicate", 6, 4, (1, 1), (1,), (1, 1), (MINIMAL, "center [1], d=d(Z2/Z)=2")),
        ("coclass_predicate", 6, 4, (1, 1), (1, 1), (1, 1), (NOT_MINIMAL, "center [1, 1] != [1]")),
        ("coclass_predicate", 6, 4, (1, 1), (1,), (2, 1, 1), (NOT_MINIMAL, "d=2 != d(Z2/Z)=3")),
        ("coclass_predicate", 6, 4, (1, 1, 1), (1,), (1, 1, 1), (NOT_MINIMAL, "d=3 not in [2]")),
        (
            "coclass_predicate", 7, 4, (2, 1), (2,), (2, 1),
            (MINIMAL, "center [2], Z2/Z matches G/G' [2, 1]"),
        ),
        (
            "coclass_predicate", 8, 4, (2, 1), (2,), (2, 1),
            (MINIMAL, "center [2], Z2/Z matches G/G' [2, 1]"),
        ),
        (
            "coclass_predicate", 8, 4, (3, 1), (3,), (3, 1),
            (MINIMAL, "center [3], Z2/Z matches G/G' [3, 1]"),
        ),
        (
            "coclass_predicate", 8, 4, (4, 1), (2,), (2, 1),
            (MINIMAL, "center [2], Z2/Z=[2,1], G/G'=[4, 1]"),
        ),
        ("coclass_predicate", 7, 4, (3, 1), (2,), (2, 1), (NOT_MINIMAL, "center [2] != [1]")),
        ("order_predicate", 7, 4, (2, 1), (2,), (2, 1), (MINIMAL, "center [2], Z2/Z matches G/G'")),
        ("order_predicate", 7, 3, (1, 1, 1, 1), (1,), (1, 1, 1, 1), (MINIMAL, "center [1], d=d(Z2/Z)=4")),
        ("order_predicate", 7, 5, (1, 1, 1), (1,), (1, 1, 1), (NOT_MINIMAL, "d=3 not in [2]")),
        ("order_predicate", 5, 4, (1, 1), (1,), (1, 1), (UNDECIDED, "class 4 at order p^5 not covered")),
    ],
)
def test_rule_details_are_pinned(predicate, n, cls, a, g, b, want):
    """One literal detail per branch, the matched centers and the Coclass4
    [2,1] case among them, which no corpus or witness group reaches: the
    reference predicate's, and evaluate_rules' row of that family."""
    rules, ref = PREDICATES[predicate]
    rep = synthetic_report(n, cls, a, g, b)
    v = ref(rep)
    assert (v.decision, v.details) == want
    _assert_row_matches(_rows(rep), rules, ref, rep)
