"""Structural minimality rules for the central automorphism group.

Each rule inspects a StructureReport and decides whether the group's
central automorphisms are exactly the inner ones coming from the second
center (the smallest the group allows).  Rules are ordered; classify fires
the first applicable one and evaluates the rest as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .abelian import AbelianInvariants
from .errors import (
    AbelianGroup,
    ClassTooSmall,
    CoclassOutOfRange,
    EmptyAlpha,
    InvalidInvariants,
    OrderOutOfRange,
    PrimeMismatch,
)
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


def _dd_match(rep: StructureReport, allowed: tuple[int, ...]) -> Optional[str]:
    """C_p center with d(G) == d(Z_2/Z) in the allowed set; reason if not."""
    if rep.center.exponents != (1,):
        return f"center {_fmt(rep.center)} != [1]"
    if rep.d != rep.d_inner_center:
        return f"d={rep.d} != d(Z2/Z)={rep.d_inner_center}"
    if rep.d not in allowed:
        return f"d={rep.d} not in {list(allowed)}"
    return None


def coclass_predicate(rep: StructureReport) -> Verdict:
    """Minimality for coclass 2, 3 and 4 at class >= 3."""
    if rep.nilpotency_class < 3:
        raise ClassTooSmall(f"class {rep.nilpotency_class} < 3")
    cc = rep.coclass
    if cc not in (2, 3, 4):
        raise CoclassOutOfRange(f"coclass {cc} not in 2..4")
    a = rep.abelianization.exponents
    b = rep.inner_center.exponents
    g = rep.center.exponents
    if cc == 2:
        why = _dd_match(rep, (2,))
        if why is None:
            return Verdict(MINIMAL, RULE_COCLASS2, "center [1], d=d(Z2/Z)=2")
        return Verdict(NOT_MINIMAL, RULE_COCLASS2, why)
    if cc == 3:
        why = _dd_match(rep, (2, 3))
        if why is None:
            return Verdict(MINIMAL, RULE_COCLASS3, f"center [1], d=d(Z2/Z)={rep.d}")
        if g == (2,) and b == a:
            return Verdict(
                MINIMAL, RULE_COCLASS3, f"center [2], Z2/Z matches G/G' {_fmt(rep.inner_center)}"
            )
        return Verdict(NOT_MINIMAL, RULE_COCLASS3, why)
    why = _dd_match(rep, (2, 3, 4))
    if why is None:
        return Verdict(MINIMAL, RULE_COCLASS4, f"center [1], d=d(Z2/Z)={rep.d}")
    if g == (2,):
        if b == a:
            return Verdict(
                MINIMAL, RULE_COCLASS4, f"center [2], Z2/Z matches G/G' {_fmt(rep.inner_center)}"
            )
        if b == (2, 1) and a in ((3, 1), (4, 1)):
            return Verdict(
                MINIMAL, RULE_COCLASS4, f"center [2], Z2/Z=[2,1], G/G'={list(a)}"
            )
    if g == (3,) and b == a:
        return Verdict(
            MINIMAL, RULE_COCLASS4, f"center [3], Z2/Z matches G/G' {_fmt(rep.inner_center)}"
        )
    return Verdict(NOT_MINIMAL, RULE_COCLASS4, why)


def order_predicate(rep: StructureReport) -> Verdict:
    """Minimality at orders p^5..p^7 for class >= 3 (below maximal class)."""
    n = rep.order_exp
    if n not in (5, 6, 7):
        raise OrderOutOfRange(f"order exponent {n} not in 5..7")
    if rep.nilpotency_class < 3:
        raise ClassTooSmall(f"class {rep.nilpotency_class} < 3")
    cls = rep.nilpotency_class
    a = rep.abelianization.exponents
    b = rep.inner_center.exponents
    g = rep.center.exponents
    if n == 5 and cls == 3:
        why = _dd_match(rep, (2,))
        dec = MINIMAL if why is None else NOT_MINIMAL
        return Verdict(dec, RULE_ORDER_P5, why or "center [1], d=d(Z2/Z)=2")
    if n == 6 and cls in (3, 4):
        why = _dd_match(rep, (2,))
        dec = MINIMAL if why is None else NOT_MINIMAL
        return Verdict(dec, RULE_ORDER_P6, why or "center [1], d=d(Z2/Z)=2")
    if n == 7 and cls in (3, 4, 5):
        if cls == 3:
            why = _dd_match(rep, (2, 3, 4))
            dec = MINIMAL if why is None else NOT_MINIMAL
            return Verdict(dec, RULE_ORDER_P7, why or f"center [1], d=d(Z2/Z)={rep.d}")
        if cls == 4:
            why = _dd_match(rep, (2, 3))
            if why is None:
                return Verdict(
                    MINIMAL, RULE_ORDER_P7, f"center [1], d=d(Z2/Z)={rep.d}"
                )
            if g == (2,) and b == a:
                return Verdict(
                    MINIMAL, RULE_ORDER_P7, "center [2], Z2/Z matches G/G'"
                )
            return Verdict(NOT_MINIMAL, RULE_ORDER_P7, why)
        why = _dd_match(rep, (2,))
        dec = MINIMAL if why is None else NOT_MINIMAL
        return Verdict(dec, RULE_ORDER_P7, why or "center [1], d=d(Z2/Z)=2")
    return Verdict(UNDECIDED, RULE_NONE, f"class {cls} at order p^{n} not covered")


def evaluate_rules(rep: StructureReport) -> list[tuple[str, str, str]]:
    """All applicable rules in precedence order as (rule, decision, detail)."""
    if rep.nilpotency_class < 2:
        raise AbelianGroup("rules are posed for nonabelian groups")
    out: list[tuple[str, str, str]] = []
    if rep.nilpotency_class == 2:
        dec, why = _class2_eval(rep)
        out.append((RULE_CLASS2, dec, why))
    if rep.coclass == 1 and rep.nilpotency_class >= 3:
        out.append(
            (
                RULE_MAXIMAL_CLASS,
                NOT_MINIMAL,
                "maximal class above 2 forces extra central maps",
            )
        )
    if rep.order_exp in (5, 6, 7) and rep.nilpotency_class >= 3:
        v = order_predicate(rep)
        if v.rule != RULE_NONE:
            out.append((v.rule, v.decision, v.details))
    if rep.coclass in (2, 3, 4) and rep.nilpotency_class >= 3:
        v = coclass_predicate(rep)
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
