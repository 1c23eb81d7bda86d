"""Brute-force count of central automorphisms.

A central automorphism is x -> x*f(x') where f ranges over homomorphisms
from the abelianization into the center and x' is the coset of x.  Every
such map is an endomorphism fixing the center's image conditions; it is an
automorphism exactly when it is a bijection.

The candidate maps are built and tested in blocks on G's own table; no
quotient Group is built.  One basis search (abelian.section_basis) lists
the a = |G/G'| cosets of G' in the C order of their exponent tuples along
a basis of G/G'.  A candidate f sends coset c to coset c times z_f(c), and
its |G| images are the union of those a products.  Whether they cover G is
decided on labels, a-wide marks per candidate instead of |G|-wide ones,
in blocks of about _BLOCK_CELLS / 2a homs from the one enumerator,
`abelian.iter_hom_positions`, which reads Z's position table and the
allowed images powered once.  The int32 a x |Z| table label[c, j]
names the coset that coset c times z_j is; it is read from the products
in G's table a few cosets at a time, and kept once three checks pass on
each block (_coset_labels), so no table of all |G| x |Z| products is
built.  The labels act on the cosets as Z does, label[label[c, u], v] ==
label[c, T[u, v]], so the enumerator folds them as it multiplies out a
map: passed the labels as its action table, it yields label[c, f(c)]
with one gather per basis element per candidate cell, and the count
reads those and builds no positions.  Positions u and v of Z with equal
label columns (z_u, z_v in one coset of G') are one class, and by that
identity the columns T[u, w] and T[v, w] are then equal for every w:
maps whose basis images lie in the same classes have equal label rows.
So the count enumerates one allowed image per class for each basis
element, tests each such row once and counts it with the number of maps
it stands for (_label_classes).  The test stays literal: the labels
come from products read from G's table, the classes from comparing full
label columns, no order formula or rule from `criteria` enters, and a
table that fails a check raises RuntimeError rather than yield a count.
G' and Z are read as structure's per-group masks, G/G''s invariants as
kept by the structure report; no Subgroup is built.
Memory is set by the block and by the labels, not by the candidate
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import abelian, groups, structure
from .errors import EnumerationCapExceeded, NotPrimePower
from .groups import Group, row_blocks

DEFAULT_HOM_CAP = 2**20


@dataclass(frozen=True)
class CentralAutReport:
    """What the enumeration found.

    hom_candidates counts all homomorphisms abelianization -> center;
    aut_count counts the bijective ones; z_inn_order = |Z_2(G)/Z(G)| is the
    unconditional lower bound, and minimal means the two orders agree.
    label_rows counts the label rows tested, one per class of candidates
    (_label_classes); it is for timings and stays out of the report.
    """

    hom_candidates: int
    aut_count: int
    z_inn_order: int
    minimal: bool
    label_rows: int


def _bijective_rows(sigma: np.ndarray) -> np.ndarray:
    """Which rows of a (maps x n) block of values in range(n) hit every
    value: the coset labels maps pick, or column keys."""
    k, n = sigma.shape
    marks = np.zeros(k * n, dtype=bool)
    marks[(np.arange(k) * n)[:, None] + sigma] = True
    return marks.reshape(k, n).all(axis=1)


def _coset_labels(G: Group, members: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """label[c, j] = the coset that coset c times tgt[j] is, as an index
    in `members`, so the products a map picks cover G exactly when their
    labels differ.

    members lists each element of G once (section_basis checks it), so
    each x has a coset and a column there.  The products of a few cosets
    at a time are read from G's table as (cosets, members, targets), and
    three checks make (c, j) labelled l exactly coset l: all its cells lie
    in coset l, their columns are distinct, and (c, identity) is labelled
    c.  A failed check raises RuntimeError.

    The labels then obey label[label[c, u], v] == label[c, T[u, v]], T
    the targets' table on positions, which lets iter_hom_positions take
    them as its action table.  Take x in coset c.  By the first check, x
    tgt[u] lies in coset l = label[c, u], and so (x tgt[u]) tgt[v] lies in
    coset label[l, v].  G is validated, so associative: that element is x
    (tgt[u] tgt[v]) = x tgt[T[u, v]], which lies in coset label[c, T[u,
    v]].  Each element lies in one coset only, so the two labels agree."""
    a, m = members.shape
    t = len(tgt)
    coset, column = np.empty((2, G.order), dtype=np.int32)
    coset[members] = np.arange(a, dtype=np.int32)[:, None]
    column[members] = np.arange(m, dtype=np.int32)
    label = np.empty((a, t), dtype=np.int32)
    for c in row_blocks(a, m * t):
        cells = G.table[np.ix_(members[c].ravel(), tgt)].reshape(-1, m, t)
        where = coset.take(cells)
        label[c] = where[:, 0]
        if (where != label[c, None]).any():
            raise RuntimeError("a coset-table row leaves its coset")
        # column * |T| + j hits all of range(m * |T|) once per coset
        # exactly when each (c, j) has distinct columns
        key = column.take(cells) * np.int32(t) + np.arange(t, dtype=np.int32)
        if not _bijective_rows(key.reshape(len(key), -1)).all():
            raise RuntimeError("a coset-table row repeats an element")
    if (label[:, 0] != np.arange(a)).any():  # tgt is sorted: tgt[0] = identity
        raise RuntimeError("a coset-table row c * |Z| is not coset c")
    return label


def _label_classes(
    label: np.ndarray, images: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per basis element, the least allowed image of each class and the
    number of allowed images in it.

    Positions u and v of Z are one class when label columns u and v are
    equal.  label[0, u], the coset of z_u, is the key: every column is
    compared with the column of the least position of its key, a row
    block at a time, and a mismatch raises RuntimeError.  If columns u
    and v are equal, then for every w column T[u, w] is label[label[:, u],
    w] = label[label[:, v], w], column T[v, w] (the action identity of
    _coset_labels), so maps whose basis images lie in the same classes
    have equal label rows, and the maps a row of representatives stands
    for number the product of its images' class sizes."""
    a, t = label.shape
    key = label[0]
    least = np.full(a, t)  # per key, its least position; t if none
    np.minimum.at(least, key, np.arange(t))
    lead = least.take(key)
    for c in row_blocks(a, t):
        if (label[c] != label[c].take(lead, axis=1)).any():
            raise RuntimeError("two label columns of one coset differ")
    reps, sizes = [], []
    for y in images:
        least = np.full(a, t)
        np.minimum.at(least, key.take(y), y)
        kept = least < t
        reps.append(least[kept])
        sizes.append(np.bincount(key.take(y), minlength=a)[kept])
    return reps, sizes


def _central_candidates(
    G: Group, hom_cap: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], Callable[..., Iterator[np.ndarray]]]:
    """The cosets of G', their labels by the sorted center, the allowed
    images of each basis element and the enumerator of the central maps
    x -> x*f(xG'), f in Hom(G/G', Z(G)), whose basis images are taken
    from given lists.

    members (a x |G'|) lists the cosets as section_basis does, on the
    invariants of G/G' that the structure report keeps, and label is
    _coset_labels's.  homs(allowed, act) is abelian.iter_hom_positions on
    them, for the basis images in `allowed` (images, or part of each),
    blocks of up to _BLOCK_CELLS // 2a maps in C order of the basis image
    tuples: homs(allowed, label) gives label[c, f[i, c]], f[i, c] the
    position in the sorted center of map i's value on coset c, so a map's
    images hit every element exactly when its row is bijective
    (_bijective_rows).  The candidate count, the
    product of the numbers of allowed images, is checked against hom_cap
    before the basis search; the images are powered once."""
    if G.prime is None:
        raise NotPrimePower(f"order {G.order} is not a prime power")
    z = np.flatnonzero(structure._center_mask(G))
    inv = structure.abelianization_invariants(G)
    derived = structure._derived_mask(G)
    tgt = abelian.target_array(z)
    images = abelian._allowed_images(inv, G, tgt)
    total = math.prod(len(y) for y in images)
    if total > hom_cap:
        raise EnumerationCapExceeded(f"{total} candidate maps exceed the cap {hom_cap}")
    basis, members = abelian.section_basis(G, derived, inv)
    label = _coset_labels(G, members, tgt)
    T = groups.subset_table(G.table, tgt)
    # a label cell's temporaries peak at about 27 bytes (tracemalloc): the
    # fold's int64 index and int32 states, this block's and the last, then
    # the scatter's int64 index and bool mark beside the first two.  Half
    # the cell budget keeps a block's under 1 MiB, in a core's cache, and
    # halves the blocks a quarter took
    rows = max(1, groups._BLOCK_CELLS // (2 * len(members)))

    def homs(allowed: list[np.ndarray], act: np.ndarray) -> Iterator[np.ndarray]:
        return abelian.iter_hom_positions(basis, T, allowed, rows, act)

    return members, label, images, homs


def central_automorphism_count(
    G: Group, hom_cap: int = DEFAULT_HOM_CAP
) -> CentralAutReport:
    """Count central automorphisms by enumerating the candidate maps.

    The candidate count is computed arithmetically first and checked against
    hom_cap before any enumeration happens.  One label row is tested per
    class of candidates (_label_classes): the maps whose basis images are
    each the least allowed image of a class, in C order over the classes,
    and a bijective row adds the number of maps it stands for, read from
    its C-order digits.  A count below |Z_2/Z| raises RuntimeError.
    """
    _, label, images, homs = _central_candidates(G, hom_cap)
    reps, sizes = _label_classes(label, images)
    shape = tuple(len(y) for y in reps)
    rows = count = 0
    for state in homs(reps, label):
        hit = np.flatnonzero(_bijective_rows(state)) + rows
        # a weight is at most |Z n G'| ** rank: under 2**42 at the 8192
        # order cap, as |Z n G'| * p ** rank <= |G|, so int64 holds a block's
        weight = np.ones(len(hit), dtype=np.int64)
        for size, digit in zip(sizes, np.unravel_index(hit, shape)):
            weight *= size.take(digit)
        count += int(weight.sum())
        rows += len(state)
    upper = structure.upper_central_orders(G)
    z_inn = upper[2] // upper[1] if len(upper) > 2 else 1
    if count < z_inn:
        # conjugation by each element of Z_2 is a central automorphism,
        # and Z_2/Z of them are distinct
        raise RuntimeError(f"{count} central automorphisms, below |Z_2/Z| = {z_inn}")
    return CentralAutReport(
        hom_candidates=math.prod(len(y) for y in images),
        aut_count=count,
        z_inn_order=z_inn,
        minimal=count == z_inn,
        label_rows=rows,
    )
