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
    coclass_predicate,
    evaluate_rules,
    necessary_conditions,
    order_predicate,
    theorem21_predicate,
)
from centaut.errors import (
    AbelianGroup,
    ClassTooSmall,
    CoclassOutOfRange,
    EmptyAlpha,
    OrderOutOfRange,
    PrimeMismatch,
)
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


def test_predicate_preconditions():
    rep = structure_report(heisenberg(2, 1))  # class 2
    with pytest.raises(ClassTooSmall):
        coclass_predicate(rep)
    rep = structure_report(heisenberg(2, 2))  # order 2^6 but still class 2
    with pytest.raises(ClassTooSmall):
        order_predicate(rep)
    rep = structure_report(dihedral(16))  # coclass 1, order 2^4
    with pytest.raises(CoclassOutOfRange):
        coclass_predicate(rep)
    with pytest.raises(OrderOutOfRange):
        order_predicate(rep)


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


def test_rules_match_the_branch_by_branch_predicates():
    """classify_report and both predicates give the decision, rule and
    details, or raise the class, of the predicates written out branch by
    branch, on orders 2^4..2^8 at every class."""
    pairs = [
        (classify_report, oracles.ref_classify_report),
        (coclass_predicate, oracles.ref_coclass_predicate),
        (order_predicate, oracles.ref_order_predicate),
    ]
    reached = set()
    for n in range(4, 9):
        for cls in range(1, n):
            for a, g, b in itertools.product(GRID_LISTS, repeat=3):
                for cid in (True, False) if cls == 2 else (True,):
                    rep = synthetic_report(n, cls, a, g, b, cid)
                    for new, ref in pairs:
                        got = _outcome(new, rep)
                        assert got == _outcome(ref, rep), (new.__name__, rep)
                        if isinstance(got, tuple):
                            reached.add(got[:2])
    rules = [RULE_ORDER_P5, RULE_ORDER_P6, RULE_ORDER_P7, RULE_COCLASS2, RULE_COCLASS3]
    for rule in [*rules, RULE_COCLASS4]:
        assert {(MINIMAL, rule), (NOT_MINIMAL, rule)} <= reached, rule


@pytest.mark.parametrize(
    "predicate,n,cls,a,g,b,want",
    [
        (coclass_predicate, 6, 4, (1, 1), (1,), (1, 1), (MINIMAL, "center [1], d=d(Z2/Z)=2")),
        (coclass_predicate, 6, 4, (1, 1), (1, 1), (1, 1), (NOT_MINIMAL, "center [1, 1] != [1]")),
        (coclass_predicate, 6, 4, (1, 1), (1,), (2, 1, 1), (NOT_MINIMAL, "d=2 != d(Z2/Z)=3")),
        (coclass_predicate, 6, 4, (1, 1, 1), (1,), (1, 1, 1), (NOT_MINIMAL, "d=3 not in [2]")),
        (
            coclass_predicate, 7, 4, (2, 1), (2,), (2, 1),
            (MINIMAL, "center [2], Z2/Z matches G/G' [2, 1]"),
        ),
        (
            coclass_predicate, 8, 4, (2, 1), (2,), (2, 1),
            (MINIMAL, "center [2], Z2/Z matches G/G' [2, 1]"),
        ),
        (
            coclass_predicate, 8, 4, (3, 1), (3,), (3, 1),
            (MINIMAL, "center [3], Z2/Z matches G/G' [3, 1]"),
        ),
        (
            coclass_predicate, 8, 4, (4, 1), (2,), (2, 1),
            (MINIMAL, "center [2], Z2/Z=[2,1], G/G'=[4, 1]"),
        ),
        (coclass_predicate, 7, 4, (3, 1), (2,), (2, 1), (NOT_MINIMAL, "center [2] != [1]")),
        (order_predicate, 7, 4, (2, 1), (2,), (2, 1), (MINIMAL, "center [2], Z2/Z matches G/G'")),
        (order_predicate, 7, 3, (1, 1, 1, 1), (1,), (1, 1, 1, 1), (MINIMAL, "center [1], d=d(Z2/Z)=4")),
        (order_predicate, 7, 5, (1, 1, 1), (1,), (1, 1, 1), (NOT_MINIMAL, "d=3 not in [2]")),
        (order_predicate, 5, 4, (1, 1), (1,), (1, 1), (UNDECIDED, "class 4 at order p^5 not covered")),
    ],
)
def test_rule_details_are_pinned(predicate, n, cls, a, g, b, want):
    """One literal detail per branch, the matched centers and the Coclass4
    [2,1] case among them, which no corpus or witness group reaches."""
    v = predicate(synthetic_report(n, cls, a, g, b))
    assert (v.decision, v.details) == want
