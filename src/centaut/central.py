"""Brute-force enumeration of central automorphisms and related counts.

A central automorphism is x -> x*f(x') where f ranges over homomorphisms
from the abelianization into the center and x' is the coset of x.  Every
such map is an endomorphism fixing the center's image conditions; it is an
automorphism exactly when it is a bijection.

The candidate maps are built and tested in blocks.  G's elements are put
in coset order (the members of each coset of G' together), and one int32
table `right` of shape (cosets x |Z|, |G'|) holds, for each coset c and
central t_j, the members of c times t_j, read from G's own table.
`abelian.iter_hom_positions` yields up to _BLOCK_CELLS // |G| homs at a
time, each as the position in Z of f(c) for every coset c; adding c * |Z|
and one gather of `right` rows gives every candidate's n images, with the
columns in coset order.  Each row is then marked into its own n-wide mask,
so a map counts as bijective only when its images hit every element; a
fixed column order cannot change that.  The check stays literal: every
image is a product read from G's table, with no shortcut through G/G' or
the kernel of f.  Memory is set by the block and by the n x |Z| table, not
by the candidate count; the maps come out in iter_homomorphisms order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import abelian, structure
from .abelian import abelian_basis, hom_invariants
from .errors import (
    AbelianGroup,
    CenterNotCyclic,
    EnumerationCapExceeded,
    NotCentral,
    NotContained,
    NotPrimePower,
)
from .groups import Group
from .structure import Subgroup

DEFAULT_HOM_CAP = 2**20


@dataclass(frozen=True)
class CentralAutReport:
    """What the enumeration found.

    hom_candidates counts all homomorphisms abelianization -> center;
    aut_count counts the bijective ones; z_inn_order = |Z_2(G)/Z(G)| is the
    unconditional lower bound, and minimal means the two orders agree.
    """

    hom_candidates: int
    aut_count: int
    z_inn_order: int
    minimal: bool


def _bijective_rows(sigma: np.ndarray) -> np.ndarray:
    """Which rows of a (maps x n) block of image arrays hit every element."""
    k, n = sigma.shape
    marks = np.zeros(k * n, dtype=bool)
    marks[(np.arange(k) * n)[:, None] + sigma] = True
    return marks.reshape(k, n).all(axis=1)


def _coset_order(proj: np.ndarray) -> np.ndarray:
    """G's elements coset by coset: those with proj == 0 ascending, then
    those with proj == 1, and so on."""
    return np.argsort(proj, kind="stable")


def _coset_table(G: Group, members: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """right[c * |T| + j] = the members of coset c times tgt[j].

    members is (cosets x coset size), as _coset_order reshaped; the result
    is an int32 (cosets * |T|) x (coset size) array of products read from
    G's table, filled a few cosets at a time so no temporary exceeds the
    block budget.
    """
    a, m = members.shape
    right = np.empty((a, len(tgt), m), dtype=np.int32)
    step = max(1, abelian._BLOCK_CELLS // (m * len(tgt)))
    for c in range(0, a, step):
        cells = G.table[np.ix_(members[c : c + step].ravel(), tgt)]
        right[c : c + step] = cells.reshape(-1, m, len(tgt)).transpose(0, 2, 1)
    return right.reshape(a * len(tgt), m)


def _candidate_maps(
    G: Group,
    qab: Group,
    members: np.ndarray,
    targets: Sequence[int],
    hom_cap: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of the maps x -> x*f(xN), f in Hom(qab, <targets>).

    qab is G/N, and members = _coset_order(proj) for its projection.  Each
    block is (maps, bijective): up to _BLOCK_CELLS // |G| int32 image
    arrays as rows, in iter_homomorphisms order, with column k holding the
    image of members[k]; and the mask of the bijective rows.  The candidate
    count is computed arithmetically and checked against hom_cap before
    any table is built.
    """
    basis = abelian_basis(qab, prime=G.prime)
    tgt = abelian.target_array(targets)
    total = abelian.hom_count_by_targets(basis, G, tgt)
    if total > hom_cap:
        raise EnumerationCapExceeded(
            f"{total} candidate maps exceed the cap {hom_cap}"
        )
    n, a = G.order, qab.order
    right = _coset_table(G, members.reshape(a, n // a), tgt)
    offsets = np.arange(a, dtype=np.int64) * len(tgt)
    rows = max(1, abelian._BLOCK_CELLS // n)
    for f in abelian.iter_hom_positions(basis, G, tgt, rows):
        sigma = np.take(right, f + offsets, axis=0).reshape(len(f), n)
        yield sigma, _bijective_rows(sigma)


def _central_maps(
    G: Group, hom_cap: int
) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The candidate central maps, f ranging over Hom(G/G', Z(G)), and the
    element order of their columns."""
    if G.prime is None:
        raise NotPrimePower(f"order {G.order} is not a prime power")
    qab, proj = structure.abelianization(G)
    members = _coset_order(proj)
    z = structure.center(G).elements
    return members, _candidate_maps(G, qab, members, z, hom_cap)


def central_automorphism_count(
    G: Group, hom_cap: int = DEFAULT_HOM_CAP
) -> CentralAutReport:
    """Count central automorphisms by enumerating the candidate maps.

    The candidate count is computed arithmetically first and checked against
    hom_cap before any enumeration happens.
    """
    total = count = 0
    _, blocks = _central_maps(G, hom_cap)
    for _, bijective in blocks:
        total += len(bijective)
        count += int(bijective.sum())
    upper = structure.upper_central_orders(G)
    z_inn = upper[2] // upper[1] if len(upper) > 2 else 1
    return CentralAutReport(
        hom_candidates=total,
        aut_count=count,
        z_inn_order=z_inn,
        minimal=count == z_inn,
    )


def is_minimal_bruteforce(G: Group, hom_cap: int = DEFAULT_HOM_CAP) -> bool:
    return central_automorphism_count(G, hom_cap=hom_cap).minimal


def iter_central_automorphisms(G: Group, hom_cap: int = DEFAULT_HOM_CAP):
    """Yield the bijective candidate maps as image arrays indexed by x."""
    members, blocks = _central_maps(G, hom_cap)
    for sigma, bijective in blocks:
        auts = np.empty((int(bijective.sum()), G.order), dtype=sigma.dtype)
        auts[:, members] = sigma[bijective]
        yield from auts


def stability_count(
    G: Group,
    X: Subgroup,
    Y: Subgroup,
    hom_cap: int = DEFAULT_HOM_CAP,
) -> tuple[int, int]:
    """Distinct maps x -> x*f(xX) for f: (G/X)^ab -> Y, and the hom count.

    Y must be a central subgroup contained in X; X must be normal (checked
    by the quotient).  Every produced map fixes X and G/X elementwise; the
    first return value counts the distinct ones, the second is |Hom| from
    the invariant formula.
    """
    if X.parent is not G or Y.parent is not G:
        raise ValueError("subgroups belong to a different parent group")
    if not Y.issubset(X):
        raise NotContained("second subgroup must lie inside the first")
    zmask = structure.center(G).mask
    if not zmask[list(Y.elements)].all():
        raise NotCentral("image subgroup must be central")
    Q, proj = structure.quotient(G, X)
    qab, proj2 = structure.abelianization(Q)
    seen: set[bytes] = set()
    members = _coset_order(proj2[proj])
    for sigma, bijective in _candidate_maps(G, qab, members, Y.elements, hom_cap):
        assert bijective.all()
        seen.update(row.tobytes() for row in sigma)
    hom_order = hom_invariants(
        abelian.abelian_invariants(qab, prime=G.prime),
        abelian.abelian_invariants(Y.as_group(), prime=G.prime),
    ).order
    return len(seen), hom_order


def adney_yen_check(
    G: Group, hom_cap: int = DEFAULT_HOM_CAP
) -> tuple[int, int, bool]:
    """For nonabelian G with cyclic center: |central auts| vs |Hom(G^ab, Z)|.

    Returns (aut_count, hom_order, equal); the two agree exactly when no
    candidate map degenerates, which is the cyclic-center count identity.
    """
    if G.is_abelian:
        raise AbelianGroup("count identity is posed for nonabelian groups")
    z = structure.center(G)
    gamma = abelian.abelian_invariants(z.as_group(), prime=G.prime)
    if gamma.rank != 1:
        raise CenterNotCyclic(f"center invariants {list(gamma.exponents)}")
    rep = central_automorphism_count(G, hom_cap=hom_cap)
    qab, _ = structure.abelianization(G)
    alpha = abelian.abelian_invariants(qab, prime=G.prime)
    hom_order = hom_invariants(alpha, gamma).order
    return rep.aut_count, hom_order, rep.aut_count == hom_order


def all_automorphisms(G: Group, order_limit: int = 256) -> list[np.ndarray]:
    """Every automorphism, by generator-image search with closure propagation.

    Independent of the central-map enumeration: takes the greedy generating
    set (structure.generators), tries all same-order images, and extends
    each assignment through the multiplication table, rejecting on the
    first conflict.  Exponential in general, hence the small order_limit.
    """
    n = G.order
    if n > order_limit:
        raise ValueError(f"order {n} exceeds the search limit {order_limit}")
    gens = structure.generators(G).tolist()
    orders = G.element_orders
    table = G.table
    results: list[np.ndarray] = []

    def extend(assign: np.ndarray, known: list[int], g: int, image: int) -> bool:
        """Set assign[g]=image and close under products; False on conflict."""
        if assign[g] == image:
            return True
        if assign[g] != -1 or orders[g] != orders[image]:
            return False
        assign[g] = image
        queue = [g]
        known.append(g)
        while queue:
            a = queue.pop()
            for b in list(known):
                for x, y in ((a, b), (b, a)):
                    prod = table[x, y]
                    img = table[assign[x], assign[y]]
                    if assign[prod] == -1:
                        if orders[prod] != orders[img]:
                            return False
                        assign[prod] = img
                        known.append(prod)
                        queue.append(prod)
                    elif assign[prod] != img:
                        return False
        return True

    def search(i: int, assign: np.ndarray, known: list[int]) -> None:
        if i == len(gens):
            if (assign != -1).all() and _bijective_rows(assign[None, :])[0]:
                results.append(assign.copy())
            return
        g = gens[i]
        if assign[g] != -1:
            search(i + 1, assign, known)
            return
        for image in np.flatnonzero(orders == orders[g]):
            trial = assign.copy()
            kn = list(known)
            if extend(trial, kn, g, int(image)):
                search(i + 1, trial, kn)

    seed = np.full(n, -1, dtype=np.int64)
    seed[0] = 0
    search(0, seed, [0])
    results.sort(key=lambda a: a.tolist())
    return results


def is_central_automorphism(G: Group, sigma: np.ndarray) -> bool:
    """Whether x^-1 * sigma(x) is central for every x (sigma a bijection)."""
    zmask = structure.center(G).mask
    shifts = G.table[G.inverse, np.asarray(sigma, dtype=np.int64)]
    return bool(zmask[shifts].all())
