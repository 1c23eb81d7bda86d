"""The upper central series, G', quotients and the structural report.

Everything works directly on element indices of a parent Group, and a
subgroup is a read-only bool mask over them, as center and
derived_subgroup return it.  The one quotient routine (quotient, with
check_normal) takes such a mask and reindexes cosets by their minimal
member so results are deterministic; nothing on the verdict path calls
it.  Every index a caller hands in is read by groups.indices, which
names a bad one.

The invariants come from the generating set S of G (Group.generators,
|S| <= log2 n for the greedy one) at O(n * |S|) per step, not from an
n x n commutator table:
- Z_{i+1}(G) = {x : [x, s] in Z_i(G) for all s in S}; Z(G) = Z_1(G).
- G' = [G, G] is generated by [s, g] for s in S and g in G: that span is
  normal, as [s, g]^y = [s, y]^-1 [s, gy], and S is central modulo it.
- Burnside's basis theorem, Phi(G) = G'G^p, makes d(G) the rank of G/G'.

The report reads the invariants of G/G', Z(G) and Z_2(G)/Z(G) by one layer
count per section on G's own table (abelian.section_invariants), from the
cached masks of G' and of the upper series; it builds no Group and takes no
quotient, and neither does the enumeration (abelian.section_basis), which
reads the invariants of G/G' the report kept on G.  Z_2 is
tested abelian by a span grown from Z, which is central, so only the
generators it adds are compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import abelian
from .abelian import AbelianInvariants
from .errors import IndexOutOfRange, NotNilpotent, NotNormal, NotPrimePower
from .groups import Group, greedy_generators, indices, subset_table


def _per_group(derive: Callable) -> Callable:
    """Compute derive(G) once and keep it on G: an array, set read-only,
    or frozen invariants."""
    key = f"_per_group_{derive.__name__.lstrip('_')}"

    @wraps(derive)
    def cached(G: Group):
        if key not in G.__dict__:
            value = derive(G)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            G.__dict__[key] = value
        return G.__dict__[key]

    return cached


def _commutes(G: Group, elements: Iterable[int], central: Optional[np.ndarray] = None) -> bool:
    """Whether the span H of `elements` is abelian, by (log2 |H|)^2
    products of a greedy generating set, not an |H| x |H| table.  Spanned
    from the mask `central` of a central subgroup, when given, only the
    generators added to it need to commute."""
    reached = np.arange(G.order) == 0 if central is None else central.copy()
    gens = list(greedy_generators(G.table, elements, reached))
    t = G.table[np.ix_(gens, gens)]
    return bool((t == t.T).all())


def commutator_table(G: Group, xs: Sequence[int]) -> np.ndarray:
    """comm[g, j] = index of [g, xs[j]] = g^-1 xs[j]^-1 g xs[j], for all g."""
    xs = indices(xs, G.order)
    g = np.arange(G.order)[:, None]
    m = G.table[G.inverse[g], G.inverse[xs][None, :]]
    m = G.table[m, g]
    return G.table[m, xs[None, :]]


@_per_group
def _generator_commutators(G: Group) -> np.ndarray:
    """commutator_table(G, G.generators), read by the upper series and G'."""
    return commutator_table(G, G.generators)


@_per_group
def _upper_masks(G: Group) -> np.ndarray:
    """Row i is the mask of Z_i(G), from Z_0 = 1 up to G; for G not
    nilpotent, up to where the series stalls (one row if Z(G) = 1)."""
    comm = _generator_commutators(G)
    masks = [np.arange(G.order) == 0]
    while not masks[-1].all():
        nxt = masks[-1][comm].all(axis=1)  # x with [x, s] in Z_i for all s
        if nxt.sum() == masks[-1].sum():
            break
        masks.append(nxt)
    return np.stack(masks)


def _nilpotent_masks(G: Group) -> np.ndarray:
    """_upper_masks(G), or NotNilpotent when the series stalls short of G."""
    masks = _upper_masks(G)
    if not masks[-1].all():
        raise NotNilpotent(f"upper series stalls at order {int(masks[-1].sum())} < {G.order}")
    return masks


def center(G: Group) -> np.ndarray:
    """The mask of Z(G), the elements commuting with every generator."""
    masks = _upper_masks(G)
    return masks[min(1, len(masks) - 1)]


@_per_group
def derived_subgroup(G: Group) -> np.ndarray:
    """The mask of G', the span of the generators' commutators."""
    reached = np.arange(G.order) == 0
    list(greedy_generators(G.table, np.unique(_generator_commutators(G)), reached))
    return reached


def upper_central_orders(G: Group) -> list[int]:
    """|Z_i(G)| for i = 0, 1, ... up the upper central series (up to where
    it stalls), without building the subgroups."""
    return [int(k) for k in _upper_masks(G).sum(axis=1)]


@_per_group
def abelianization_invariants(G: Group) -> AbelianInvariants:
    """Invariants of G/G', G a nontrivial p-group, read from G's table
    once: the structure report and the enumeration share them."""
    return abelian.section_invariants(G, np.ones(G.order, dtype=bool), derived_subgroup(G))


def _mask_elements(G: Group, N: np.ndarray) -> np.ndarray:
    """The elements of the subgroup mask N, IndexOutOfRange unless N is a
    bool array of shape (|G|,) holding 0."""
    if not (isinstance(N, np.ndarray) and N.dtype == bool and N.shape == (G.order,) and N[0]):
        raise IndexOutOfRange(f"a subgroup mask is a bool array of shape ({G.order},) holding 0")
    return np.flatnonzero(N)


def check_normal(G: Group, N: np.ndarray) -> None:
    """Raise NotNormal naming the first pair (g, x), g then x ascending,
    whose conjugate g^-1 x g escapes the subgroup with mask N."""
    elems = _mask_elements(G, N)
    conj = G.table[G.table[G.inverse[:, None], elems], np.arange(G.order)[:, None]]
    escapes = ~N[conj]
    if escapes.any():
        g, i = (int(k) for k in np.argwhere(escapes)[0])
        raise NotNormal(f"conjugate of {int(elems[i])} by {g} escapes the subgroup")


def quotient(G: Group, N: np.ndarray) -> tuple[Group, np.ndarray]:
    """G/N with cosets indexed by minimal member; returns (Q, projection).

    N is a bool mask of shape (|G|,) holding 0, else IndexOutOfRange; a
    mask not closed under the product raises NotClosed (subset_table),
    one not normal NotNormal as in check_normal.  projection[x] = index
    of the coset xN.
    """
    elems = _mask_elements(G, N)
    subset_table(G.table, elems)
    check_normal(G, N)
    # coset xN is numbered by the rank of its smallest member; an int32
    # projection gives an int32 table that Group keeps without a copy
    reps, proj = np.unique(G.table[:, elems].min(axis=1), return_inverse=True)
    proj = proj.astype(np.int32)
    Q = Group(proj[G.table[np.ix_(reps, reps)]])
    return Q, proj


@dataclass(frozen=True)
class StructureReport:
    """Invariants feeding the minimality rules.

    abelianization/center/inner_center hold the invariant lists of G/[G,G],
    Z(G) and Z_2(G)/Z(G) respectively; d is the minimal generator count,
    the rank of G/[G,G].
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
    masks = _nilpotent_masks(G)
    cls = len(masks) - 1
    z, z2 = masks[1], masks[min(2, cls)]
    alpha = abelianization_invariants(G)
    gamma = abelian.section_invariants(G, z, masks[0])
    beta = abelian.section_invariants(G, z2, z)
    return StructureReport(
        order=G.order,
        prime=G.prime,
        order_exp=G.order_exp,
        nilpotency_class=cls,
        coclass=G.order_exp - cls,
        d=alpha.rank,
        d_center=gamma.rank,
        d_inner_center=beta.rank,
        abelianization=alpha,
        center=gamma,
        inner_center=beta,
        center_in_derived=bool(derived_subgroup(G)[z].all()),
        second_center_abelian=_commutes(G, np.flatnonzero(z2), z),
    )
