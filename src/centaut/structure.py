"""Subgroups, central series, quotients and the structural report.

Everything works directly on element indices of a parent Group; quotients
reindex cosets by their minimal member so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Iterable, Sequence

import numpy as np

from . import abelian
from .abelian import AbelianInvariants
from .errors import (
    IndexOutOfRange,
    NotAbelian,
    NotNilpotent,
    NotNormal,
    NotPrimePower,
)
from .groups import Group


def _per_group(derive: Callable) -> Callable:
    """Compute derive(G) once and keep it on G, as cached_property does.

    Cached values are read-only arrays and quotient Groups, never a
    Subgroup: its `parent` would point back at G, and that cycle keeps every
    analysed group alive until the next full garbage collection.
    """
    key = f"_per_group_{derive.__name__.lstrip('_')}"

    @wraps(derive)
    def cached(G: Group):
        if key not in G.__dict__:
            value = derive(G)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            G.__dict__[key] = value
        return G.__dict__[key]

    return cached


class Subgroup:
    """A subset of a parent Group's indices, closed under the product.

    `elements` is sorted ascending, so element 0 (the identity) is always
    first.  Construction verifies closure unless verify=False (reserved for
    internal callers that build provably closed sets).
    """

    def __init__(self, parent: Group, elements: Iterable[int], verify: bool = True):
        elems = np.unique(np.asarray(list(elements) + [0], dtype=np.int64))
        if elems[0] < 0 or elems[-1] >= parent.order:
            bad = int(elems[0]) if elems[0] < 0 else int(elems[-1])
            raise IndexOutOfRange(
                f"subgroup element {bad} outside range({parent.order})"
            )
        if verify:
            prods = parent.table[np.ix_(elems, elems)]
            mask = np.zeros(parent.order, dtype=bool)
            mask[elems] = True
            if not mask[prods].all():
                a, b = (int(i) for i in np.argwhere(~mask[prods])[0])
                raise ValueError(
                    f"set not closed: {int(elems[a])}*{int(elems[b])} escapes"
                )
        self.parent = parent
        self.elements = tuple(int(e) for e in elems)
        mask = np.zeros(parent.order, dtype=bool)
        mask[elems] = True
        mask.setflags(write=False)
        self.mask = mask

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, g: int) -> bool:
        return bool(self.mask[g])

    def issubset(self, other: "Subgroup") -> bool:
        return bool(other.mask[list(self.elements)].all())

    @cached_property
    def is_abelian(self) -> bool:
        t = self.parent.table[np.ix_(self.elements, self.elements)]
        return bool((t == t.T).all())

    def positions(self, elements: Sequence[int]) -> np.ndarray:
        """Indices of the given parent elements inside as_group()'s numbering."""
        arr = np.asarray(elements, dtype=np.int64)
        if not self.mask[arr].all():
            raise IndexOutOfRange("element outside subgroup")
        return np.searchsorted(np.asarray(self.elements), arr)

    @cached_property
    def _as_group(self) -> Group:
        elems = np.asarray(self.elements)
        sub = self.parent.table[np.ix_(elems, elems)]
        table = np.searchsorted(elems, sub)
        return Group(table)

    def as_group(self) -> Group:
        """The subgroup as a standalone Group, elements renumbered ascending."""
        return self._as_group

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent!r})"


def closure(G: Group, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed (identity always included)."""
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    for g in seed:
        if not 0 <= int(g) < G.order:
            raise IndexOutOfRange(f"element {g} outside range({G.order})")
        mask[int(g)] = True
    while True:
        elems = np.flatnonzero(mask)
        prods = G.table[np.ix_(elems, elems)]
        new = np.unique(prods[~mask[prods]])
        if new.size == 0:
            break
        mask[new] = True
    return Subgroup(G, np.flatnonzero(mask), verify=False)


@_per_group
def _center_mask(G: Group) -> np.ndarray:
    return (G.table == G.table.T).all(axis=1)


def center(G: Group) -> Subgroup:
    """Elements commuting with everything: rows equal to columns."""
    return Subgroup(G, np.flatnonzero(_center_mask(G)), verify=False)


@_per_group
def commutator_table(G: Group) -> np.ndarray:
    """comm[x, g] = index of x^-1 g^-1 x g; computed once per group, read-only."""
    n = G.order
    idx = np.arange(n)
    m = G.table[np.ix_(G.inverse, G.inverse)]
    m = G.table[m, idx[:, None]]
    m = G.table[m, idx[None, :]]
    return m


@_per_group
def _derived_elements(G: Group) -> np.ndarray:
    return np.asarray(closure(G, np.unique(commutator_table(G))).elements)


def derived_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, _derived_elements(G), verify=False)


@_per_group
def _upper_masks(G: Group) -> np.ndarray:
    """Row i is the membership mask of Z_i(G), from the trivial group to G."""
    comm = commutator_table(G)
    masks = [np.arange(G.order) == 0]
    while not masks[-1].all():
        nxt = masks[-1][comm].all(axis=1)  # x with [x, g] in Z_i for all g
        if nxt.sum() == masks[-1].sum():
            raise NotNilpotent(
                f"upper series stalls at order {int(nxt.sum())} < {G.order}"
            )
        masks.append(nxt)
    return np.stack(masks)


def central_series(G: Group, kind: str = "upper") -> list[Subgroup]:
    """Ascending (trivial..G) or descending (G..trivial) central series.

    Raises NotNilpotent when the series stalls before reaching the end,
    which cannot happen for prime-power orders.
    """
    if kind not in ("upper", "lower"):
        raise ValueError(f"kind must be 'upper' or 'lower', got {kind!r}")
    if kind == "upper":
        return [Subgroup(G, np.flatnonzero(m), verify=False) for m in _upper_masks(G)]
    comm = commutator_table(G)
    series = [Subgroup(G, range(G.order), verify=False)]
    while series[-1].order > 1:
        elems = np.asarray(series[-1].elements)
        gens = np.unique(comm[elems, :])
        nxt = closure(G, gens)
        if nxt.order == series[-1].order:
            raise NotNilpotent(
                f"lower series stalls at order {nxt.order} > 1"
            )
        series.append(nxt)
    return series


def frattini_subgroup(G: Group) -> Subgroup:
    """For p-groups: derived subgroup together with all p-th powers."""
    if G.prime is None:
        raise NotPrimePower(f"order {G.order} is not a prime power")
    n = G.order
    acc = np.arange(n)
    for _ in range(G.prime - 1):
        acc = G.table[acc, np.arange(n)]
    return closure(G, np.unique(np.concatenate([_derived_elements(G), acc])))


def minimal_generator_count(G: Group) -> int:
    """d(G) = log_p [G : Frattini(G)] for nontrivial p-groups."""
    if G.order == 1:
        return 0
    phi = frattini_subgroup(G)
    index = G.order // phi.order
    p = G.prime
    d = 0
    while index > 1:
        index //= p
        d += 1
    return d


def quotient(G: Group, N: Subgroup) -> tuple[Group, np.ndarray]:
    """G/N with cosets indexed by minimal member; returns (Q, projection).

    projection[x] = index of the coset xN.  Raises NotNormal naming a
    violating pair (g, x) when conjugation escapes N.
    """
    if N.parent is not G:
        raise ValueError("subgroup belongs to a different parent group")
    n = G.order
    elems = np.asarray(N.elements)
    # conj[g, i] = g^-1 x_i g; argwhere keeps the loop order (g, then x)
    conj = G.table[G.table[G.inverse[:, None], elems], np.arange(n)[:, None]]
    escapes = ~N.mask[conj]
    if escapes.any():
        g, i = (int(k) for k in np.argwhere(escapes)[0])
        raise NotNormal(f"conjugate of {int(elems[i])} by {g} escapes the subgroup")
    # coset xN is numbered by the rank of its smallest member
    reps, proj = np.unique(G.table[:, elems].min(axis=1), return_inverse=True)
    Q = Group(proj[G.table[np.ix_(reps, reps)]])
    return Q, proj


@_per_group
def abelianization(G: Group) -> tuple[Group, np.ndarray]:
    """G/[G,G] with its projection; computed once per group."""
    return quotient(G, derived_subgroup(G))


def socle_of(sub: Subgroup) -> Subgroup:
    """Elements of order dividing p inside an abelian subgroup of a p-group."""
    G = sub.parent
    if G.prime is None:
        raise NotPrimePower(f"order {G.order} is not a prime power")
    if not sub.is_abelian:
        raise NotAbelian("socle is defined here for abelian subgroups only")
    orders = G.element_orders
    keep = [e for e in sub.elements if orders[e] <= G.prime]
    return Subgroup(G, keep, verify=False)


@dataclass(frozen=True)
class StructureReport:
    """Invariants feeding the minimality rules.

    abelianization/center/inner_center hold the invariant lists of G/[G,G],
    Z(G) and Z_2(G)/Z(G) respectively; d is the minimal generator count.
    """

    order: int
    prime: int
    order_exp: int
    nilpotency_class: int
    coclass: int
    d: int
    d_center: int
    d_inner_center: int
    abelianization: AbelianInvariants
    center: AbelianInvariants
    inner_center: AbelianInvariants
    center_in_derived: bool
    second_center_abelian: bool


def structure_report(G: Group) -> StructureReport:
    if G.prime is None:
        raise NotPrimePower(f"order {G.order} is not a prime power")
    if G.order == 1:
        raise ValueError("structure report requires a nontrivial group")
    p = G.prime
    upper = central_series(G, "upper")
    cls = len(upper) - 1
    z = upper[1]
    z2 = upper[2] if cls >= 2 else upper[-1]
    alpha = abelian.abelian_invariants(abelianization(G)[0], prime=p)
    gamma = abelian.abelian_invariants(z.as_group(), prime=p)
    z2g = z2.as_group()
    z_in_z2 = Subgroup(z2g, z2.positions(z.elements), verify=False)
    inner, _ = quotient(z2g, z_in_z2)
    beta = abelian.abelian_invariants(inner, prime=p)
    return StructureReport(
        order=G.order,
        prime=p,
        order_exp=G.order_exp,
        nilpotency_class=cls,
        coclass=G.order_exp - cls,
        d=minimal_generator_count(G),
        d_center=gamma.rank,
        d_inner_center=beta.rank,
        abelianization=alpha,
        center=gamma,
        inner_center=beta,
        center_in_derived=z.issubset(derived_subgroup(G)),
        second_center_abelian=z2.is_abelian,
    )
