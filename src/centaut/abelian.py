"""Invariants, bases and homomorphism counts for abelian p-groups.

An abelian p-group is determined by its invariant list (a_1 >= ... >= a_m),
meaning C_{p^a_1} x ... x C_{p^a_m}.  Invariants are read off layer counts
(sizes of the subgroups of exponent dividing p^j), one routine for a whole
group and for a section H/N of a larger group's table alike
(section_invariants).  A basis is found by one depth-first search with
backtracking, again for a whole group or a section G/N (section_basis),
which powers G once per wanted order and grows each span from the last.
Hom counts reduce to arithmetic on the invariant lists (hom_invariants);
an image y is allowed for an invariant p^e when y^(p^e) = 1, powered on
the targets alone (_allowed_images), never on all of the ambient group.
The homomorphisms themselves have one enumerator, iter_hom_positions,
which reads only the basis, the allowed images, T, the Cayley table of
the target subgroup on positions in its sorted elements
(groups.subset_table), and a table on which T acts, such as the coset
labels of the central maps: it yields act[x, f(x)], each state acted on
by one basis image's power after another, and builds no positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import groups
from .errors import InvalidInvariants, NotPrimePower, PrimeMismatch
from .groups import Group, powers, prime_power


@dataclass(frozen=True)
class AbelianInvariants:
    """Exponent list (descending) of a direct decomposition, with its prime."""

    prime: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if prime_power(self.prime) != (self.prime, 1):
            raise InvalidInvariants(f"{self.prime} is not prime")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
        if any(e < 1 for e in self.exponents):
            raise InvalidInvariants(f"exponents must be >= 1, got {self.exponents}")
        if list(self.exponents) != sorted(self.exponents, reverse=True):
            raise InvalidInvariants(f"exponents must be descending, got {self.exponents}")

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        return self.prime ** sum(self.exponents)

    def __str__(self) -> str:
        return f"p={self.prime} {list(self.exponents)}"


def section_invariants(G: Group, H: np.ndarray, N: np.ndarray) -> AbelianInvariants:
    """Invariant list of the abelian section H/N of the p-group G, for
    bool masks H >= N of subgroups with N normal in H (the caller's word).

    L_j = #{x in H : x^(p^j) in N} / |N| is the order of the layer of H/N
    of exponent p^j, counted on G's table; ranks[j] = log_p L_(j+1) -
    log_p L_j counts the invariants >= j + 1, so the invariants are its
    conjugate.  A count off |N| times a power of p raises RuntimeError.
    """
    p = G.prime
    if p is None:
        raise NotPrimePower(f"order {G.order} is not a prime power")
    size, total = int(N.sum()), int(H.sum())
    acc = np.flatnonzero(H & ~N)  # x^(p^j) for the x of H not yet sent into N
    ranks = []
    prev = 0
    while acc.size:
        before = acc.size
        acc = powers(G.table, acc, p)
        acc = acc[~N[acc]]
        count = total - acc.size
        q, r = divmod(count, size)
        lp, lg = prime_power(q)
        if r or lp != p or acc.size == before:
            raise RuntimeError(f"layer of {count} elements over |N| = {size}, p = {p}")
        ranks.append(lg - prev)
        prev = lg
    exps = [sum(r >= i for r in ranks) for i in range(1, ranks[0] + 1)] if ranks else []
    return AbelianInvariants(p, tuple(exps))


def _independent(G: Group, N: np.ndarray, orders: Sequence[int]) -> Optional[list[int]]:
    """The first x_1, x_2, ... (smallest first, depth-first with
    backtracking) with x_i N of order w = orders[i], a power of p, and
    <x_i N> meeting <x_1, ..., x_(i-1)>N/N trivially: x^w in N and x^(w/p)
    outside that span.  G is powered once per w, and each span grows from
    the one before by the last choice; None if no such list exists."""
    p = G.prime
    power = {}  # w -> (x^(w/p) for every x, mask of the x with x^w in N)
    for w in set(orders):
        low = powers(G.table, np.arange(G.order), w // p)
        power[w] = low, N[powers(G.table, low, p)]
    chosen, stacks, spans = [], [], []  # spans[i] = <chosen[:i]>N, stacks[i] its candidates
    while len(chosen) < len(orders):
        if len(stacks) == len(chosen):
            span = (spans[-1] if spans else N).copy()
            list(groups.greedy_generators(G.table, chosen[-1:], span))
            low, top = power[orders[len(chosen)]]
            spans.append(span)
            stacks.append(np.flatnonzero(top & ~span[low])[::-1].tolist())
        if stacks[-1]:
            chosen.append(stacks[-1].pop())
            continue
        del stacks[-1], spans[-1]
        if not chosen:
            return None
        chosen.pop()
    return chosen


@dataclass(frozen=True)
class AbelianBasis:
    """Independent generators realizing the invariant list; coordinates[k]
    is the exponent tuple along `elements` of the k-th coset of
    section_basis."""

    invariants: AbelianInvariants
    elements: tuple[int, ...]
    coordinates: np.ndarray


def _cycles(table: np.ndarray, x: np.ndarray, w: int) -> np.ndarray:
    """Row i lists x[i]^0 .. x[i]^(w-1) on the Cayley table `table`
    (identity 0), by doubling gathers: the cycle so far times x[i]^k, k
    its length, doubles it."""
    cycle, h = np.zeros((len(x), 1), dtype=table.dtype), x
    while cycle.shape[1] < w:
        cycle, h = np.concatenate((cycle, table[cycle, h[:, None]]), axis=1), table[h, h]
    return cycle[:, :w]


def section_basis(
    G: Group, N: np.ndarray, inv: AbelianInvariants
) -> tuple[AbelianBasis, np.ndarray]:
    """A basis of G/N (abelian, of invariants inv), and the cosets of N.

    Basis elements are picked smallest first, each meeting the span of
    those before it trivially (_independent).  members[k] holds x_k n for the
    n of N ascending, x_k = prod_i elements[i] ** c_i for the k-th tuple
    c = coordinates[k] in C order, each cycle listed by _cycles; if that
    does not list each element of G once, RuntimeError.
    """
    radices = [inv.prime**e for e in inv.exponents]
    chosen = _independent(G, N, radices)
    if chosen is None:
        raise RuntimeError("basis search failed; group is not as declared")
    x = np.zeros(1, dtype=np.int64)
    for g, r in zip(chosen, radices):
        x = G.table[x[:, None], _cycles(G.table, np.array([g]), r)].ravel()
    members = G.table[np.ix_(x, np.flatnonzero(N))]
    hit = np.zeros(G.order, dtype=bool)
    hit[members] = True
    if members.size != G.order or not hit.all():
        raise RuntimeError("basis cosets do not partition the group")
    coords = np.indices(radices, dtype=np.int32).reshape(len(radices), len(x)).T
    return AbelianBasis(inv, tuple(chosen), coords), members


def target_array(targets: Sequence[int]) -> np.ndarray:
    """The distinct targets as a sorted int64 array: the numbering that hom
    positions refer to, each target once."""
    return np.unique(np.asarray(targets, dtype=np.int64))


def _allowed_images(
    inv: AbelianInvariants, ambient: Group, tgt: np.ndarray
) -> list[np.ndarray]:
    """Per invariant, the positions in tgt of the y with y^(p^e) == 1: in
    a p-group, those whose order divides p^e, powered on tgt alone."""
    return [np.flatnonzero(powers(ambient.table, tgt, inv.prime**e) == 0) for e in inv.exponents]


def iter_hom_positions(
    basis: AbelianBasis,
    T: np.ndarray,
    images: list[np.ndarray],
    rows: int,
    act: np.ndarray,
) -> Iterator[np.ndarray]:
    """The homomorphisms f from the based group into the abelian group of
    int32 Cayley table T, identity 0, for the allowed images[i] of basis
    element i (_allowed_images), every map once, in lexicographic order of
    the basis image tuples, as int32 blocks (maps x len(coordinates)) of
    <= rows maps holding act[x, f[x]], f[x] the position of x's image.
    act is an int32 action table: a row per state, the states x <
    len(coordinates) among them, a column per position of T, and
    act[act[q, u], v] == act[q, T[u, v]] for every state q and positions
    u, v.  State x starts at x.

    A hom f is fixed by the images y_i of the basis elements: f[x] =
    prod_i y_i ** coordinates[x, i].  For basis element i, one table
    (#images x len(coordinates)) holds y ** coordinates[:, i] for every
    allowed y, read from the y's cycles (_cycles).  A block is a run of
    consecutive map indices, whose C-order digits (as itertools.product)
    pick a row of each table; the states start at x and the tables act
    on them one after another, one gather per basis element per cell.
    """
    p = basis.invariants.prime
    n = len(basis.coordinates)
    if not images:
        yield act[np.arange(n), np.zeros((1, n), dtype=np.int32)]
        return
    factors = [
        _cycles(T, y, p**e).take(k, axis=1)
        for y, e, k in zip(images, basis.invariants.exponents, basis.coordinates.T)
    ]
    table = act.ravel()
    width = np.int64(len(T))  # an int64 factor keeps state * |T| + u exact
    shape = tuple(len(y) for y in images)
    total = math.prod(shape)
    for start in range(0, total, rows):
        digits = np.unravel_index(np.arange(start, min(start + rows, total)), shape)
        index = np.empty((len(digits[0]), n), dtype=np.int64)
        state = np.arange(n)
        for factor, d in zip(factors, digits):
            np.multiply(state, width, out=index)
            index += factor.take(d, axis=0)
            state = table.take(index)
        yield state


def hom_invariants(a: AbelianInvariants, b: AbelianInvariants) -> AbelianInvariants:
    """Invariants of Hom(A, B): one C_{p^min(ai,bj)} per pair of invariants."""
    if a.prime != b.prime:
        raise PrimeMismatch(f"primes differ: {a.prime} vs {b.prime}")
    mins = [min(ai, bj) for ai in a.exponents for bj in b.exponents]
    return AbelianInvariants(a.prime, tuple(sorted(mins, reverse=True)))
