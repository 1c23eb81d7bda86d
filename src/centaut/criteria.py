"""Structural minimality rules for the central automorphism group.

Each rule inspects a StructureReport and decides whether the group's
central automorphisms are exactly the inner ones coming from the second
center (the smallest the group allows).  Rules are ordered; classify fires
the first applicable one and evaluates the rest as cross-checks.

The coclass-2..4 and order-p^5..p^7 results share one shape, so they are
two tables (_COCLASS by coclass, _ORDER by order exponent and class) read
by one routine, _decide; a table's keys are where its rules apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .abelian import AbelianInvariants
from .errors import AbelianGroup, EmptyAlpha, InvalidInvariants, PrimeMismatch
from .groups import Group
from .structure import StructureReport, structure_report

MINIMAL = "Minimal"
NOT_MINIMAL = "NotMinimal"
UNDECIDED = "Undecided"

RULE_CLASS2 = "Class2"
RULE_MAXIMAL_CLASS = "MaximalClass"
RULE_COCLASS2 = "Coclass2"
RULE_COCLASS3 = "Coclass3"
RULE_COCLASS4 = "Coclass4"
RULE_THEOREM21 = "Theorem21"
RULE_ORDER_P5 = "OrderP5"
RULE_ORDER_P6 = "OrderP6"
RULE_ORDER_P7 = "OrderP7"
RULE_NONE = "None"


@dataclass(frozen=True)
class Verdict:
    """Tri-state outcome with the rule that produced it."""

    decision: str
    rule: str
    details: str
    brute_force_agrees: Optional[bool] = None

    def __post_init__(self):
        if self.decision not in (MINIMAL, NOT_MINIMAL, UNDECIDED):
            raise ValueError(f"bad decision {self.decision!r}")
        if (self.decision == UNDECIDED) != (self.rule == RULE_NONE):
            raise ValueError(
                f"decision {self.decision} inconsistent with rule {self.rule}"
            )


def theorem21_predicate(
    alpha: AbelianInvariants, beta: AbelianInvariants, gamma1: int
) -> bool:
    """Cyclic-center test: does truncating alpha at gamma1 reproduce beta?

    alpha lists the abelianization invariants, beta those of Z_2/Z, and
    p^gamma1 is the order of the cyclic center.  Minimal iff beta equals
    alpha outright or matches it after capping every entry at gamma1.
    """
    if alpha.prime != beta.prime:
        raise PrimeMismatch(f"primes differ: {alpha.prime} vs {beta.prime}")
    if alpha.rank == 0:
        raise EmptyAlpha("abelianization invariants are empty")
    if gamma1 < 1:
        raise InvalidInvariants(f"center exponent must be >= 1, got {gamma1}")
    a, b = alpha.exponents, beta.exponents
    if a == b:
        return True
    return len(a) == len(b) and all(bi == min(ai, gamma1) for ai, bi in zip(a, b))


def _fmt(inv: AbelianInvariants) -> str:
    return str(list(inv.exponents))


def _class2_eval(rep: StructureReport) -> tuple[str, str]:
    # at class 2 the derived subgroup sits inside the center, so equality
    # is exactly the center_in_derived flag
    if rep.center_in_derived and rep.center.rank == 1:
        return MINIMAL, "derived subgroup equals the cyclic center"
    if not rep.center_in_derived:
        return NOT_MINIMAL, "center is larger than the derived subgroup"
    return NOT_MINIMAL, f"center {_fmt(rep.center)} is not cyclic"


# The paper's coclass and order results all take one shape, read by
# _decide: Minimal iff Z(G) = C_p and d(G) = d(Z_2/Z) lies in the row's
# d-set, or Z(G) = C_(p^e) for e in the row's matched centers and Z_2/Z =
# G/G'.  Keyed by coclass, and by (order exponent, class), at class >= 3.
_COCLASS = {
    2: (RULE_COCLASS2, (2,), ()),
    3: (RULE_COCLASS3, (2, 3), (2,)),
    4: (RULE_COCLASS4, (2, 3, 4), (2, 3)),
}
_ORDER = {
    (5, 3): (RULE_ORDER_P5, (2,), ()),
    (6, 3): (RULE_ORDER_P6, (2,), ()),
    (6, 4): (RULE_ORDER_P6, (2,), ()),
    (7, 3): (RULE_ORDER_P7, (2, 3, 4), ()),
    (7, 4): (RULE_ORDER_P7, (2, 3), (2,)),
    (7, 5): (RULE_ORDER_P7, (2,), ()),
}


def _decide(rep: StructureReport, rule: str, allowed: tuple, matched: tuple) -> Verdict:
    """One table row's verdict; NotMinimal names why the d-set test failed."""
    a = rep.abelianization.exponents
    b = rep.inner_center.exponents
    g = rep.center.exponents
    if g != (1,):
        why = f"center {_fmt(rep.center)} != [1]"
    elif rep.d != rep.d_inner_center:
        why = f"d={rep.d} != d(Z2/Z)={rep.d_inner_center}"
    elif rep.d not in allowed:
        why = f"d={rep.d} not in {list(allowed)}"
    else:
        return Verdict(MINIMAL, rule, f"center [1], d=d(Z2/Z)={rep.d}")
    if len(g) == 1 and g[0] in matched and b == a:
        # the OrderP7 detail lists no invariants, as the reports pin it
        named = "" if rule == RULE_ORDER_P7 else f" {_fmt(rep.inner_center)}"
        return Verdict(MINIMAL, rule, f"center {_fmt(rep.center)}, Z2/Z matches G/G'{named}")
    if rule == RULE_COCLASS4 and g == (2,) and b == (2, 1) and a in ((3, 1), (4, 1)):
        return Verdict(MINIMAL, rule, f"center [2], Z2/Z=[2,1], G/G'={list(a)}")
    return Verdict(NOT_MINIMAL, rule, why)


def evaluate_rules(rep: StructureReport) -> list[tuple[str, str, str]]:
    """All applicable rules in precedence order as (rule, decision, detail)."""
    if rep.nilpotency_class < 2:
        raise AbelianGroup("rules are posed for nonabelian groups")
    out: list[tuple[str, str, str]] = []
    if rep.nilpotency_class == 2:
        dec, why = _class2_eval(rep)
        out.append((RULE_CLASS2, dec, why))
    if rep.coclass == 1 and rep.nilpotency_class >= 3:
        why = "maximal class above 2 forces extra central maps"
        out.append((RULE_MAXIMAL_CLASS, NOT_MINIMAL, why))
    for row in (
        _ORDER.get((rep.order_exp, rep.nilpotency_class)),
        _COCLASS.get(rep.coclass) if rep.nilpotency_class >= 3 else None,
    ):
        if row is not None:
            v = _decide(rep, *row)
            out.append((v.rule, v.decision, v.details))
    if rep.center.rank == 1:
        ok = theorem21_predicate(
            rep.abelianization, rep.inner_center, rep.center.exponents[0]
        )
        why = (
            f"G/G'={_fmt(rep.abelianization)}, Z2/Z={_fmt(rep.inner_center)}, "
            f"center exponent {rep.center.exponents[0]}"
        )
        out.append((RULE_THEOREM21, MINIMAL if ok else NOT_MINIMAL, why))
    return out


def classify_report(rep: StructureReport) -> Verdict:
    """First applicable rule decides; the rest are recorded as cross-checks."""
    evals = evaluate_rules(rep)
    if not evals:
        return Verdict(UNDECIDED, RULE_NONE, "no structural rule applies")
    rule, decision, detail = evals[0]
    extras = []
    for r, d, _ in evals[1:]:
        mark = "" if d == decision else " (CONFLICT)"
        extras.append(f"{r}={d}{mark}")
    if extras:
        detail = f"{detail}; cross-checks: {', '.join(extras)}"
    return Verdict(decision, rule, detail)


def classify(G: Group) -> Verdict:
    """Decide minimality for a nonabelian p-group from its structure."""
    if G.is_abelian:
        raise AbelianGroup("classification is posed for nonabelian groups")
    return classify_report(structure_report(G))


@dataclass(frozen=True)
class NecessaryConditions:
    """Facts every minimal group must exhibit."""

    center_in_derived: bool
    rank_identity: bool  # d(G) * d(Z) == d(Z2/Z)

    @property
    def satisfied(self) -> bool:
        return self.center_in_derived and self.rank_identity


def necessary_conditions(rep: StructureReport) -> NecessaryConditions:
    if rep.nilpotency_class < 2:
        raise AbelianGroup("conditions are posed for nonabelian groups")
    return NecessaryConditions(
        center_in_derived=rep.center_in_derived,
        rank_identity=rep.d * rep.d_center == rep.d_inner_center,
    )
