"""Finite groups as Cayley tables.

A group of order n lives on indices 0..n-1 with the identity fixed at 0.
The table is an n x n int32 array, table[a, b] = index of a*b, from the
builders and the file reader through to Group.  An untrusted table enters
through group_from_cayley_table.  Nested lists convert to int64
(cayley_array); an integer array keeps its own dtype.  The range is
checked in that dtype, then the table is cast to int32 once, and that
array is the one the Group keeps.  The validator then accepts a table by
the group axioms: identity row and column 0, a 0 in every row (a right
inverse for each element, read off the row minima) and Light's test,
(x*g)*y == x*(g*y) for every x, y and each g of a greedy generating set,
at most log2(n) + 1 checks of n^2 cells, gathered in row blocks of about
2^16 cells (row_blocks, the library's one block budget).  That holds no
n x n temporary.  The Group it returns keeps the generators Light's test
spanned as Group.generators, so no validated group is spanned twice, and
a direct product reads its generators and inverses off its factors'.
A table it refuses reruns the ordered checks to name the first one that
fails: Latin rows, then columns, by scatter marks into one n x n bool
mask a row block at a time, the identity row and column, and then,
Light's test having failed on the accept path, a row scan that names the
lexicographically first bad triple (a, b, c).  Cells that are not integers (bool and float included)
are rejected before the conversion.  indices reads every index a caller hands
in, naming the first one not an integer in range(n) by the caller's error.

greedy_generators spans in any table (the validator, G' and the other
spans of structure, abelian bases, Group.generators), by power doubling
and frontier closures on an array of the reached elements that each
gather extends.
powers is the one power routine, for orders and layer counts.

table_along_tree is the one routine that fills a table from generator
actions along a spanning tree, one gather of length n per row.  The formula
builders and group_from_permutations (whose BFS keeps a Schreier tree) end
in it; only the closures, groups by construction, skip validation.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import isqrt
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

import numpy as np

from .errors import (
    ClosureExceedsCap,
    IndexOutOfRange,
    InvalidPermutation,
    NoIdentityAtZero,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
)

DEFAULT_ORDER_CAP = 4096


class Permutation:
    """A bijection on range(degree), stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        n = len(images)
        imgs = tuple(indices(images, n, "image", InvalidPermutation).tolist())
        if sorted(imgs) != list(range(n)):
            raise InvalidPermutation(f"images {imgs} are not a bijection on range({n})")
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def prime_power(n: int) -> tuple[Optional[int], Optional[int]]:
    """(p, k) with n == p**k and k >= 1, else (None, None).

    This is the library's one prime test: n is prime exactly when the
    result is (n, 1).
    """
    if n < 2:
        return None, None
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else (None, None)


class Group:
    """Immutable finite group on indices 0..order-1 with identity 0.

    The constructor trusts its table: the caller vouches that it is a group
    table with identity 0.  Untrusted tables (group files, closed-formula
    builders) go through group_from_cayley_table, which validates them.
    Direct products, quotients and permutation closures are groups by
    construction and are not re-checked.

    Do not mutate `table` after construction; it is set read-only.  Cached
    derived data (inverses, generators, element orders, ...) assumes a fixed
    table.
    """

    def __init__(self, table: np.ndarray):
        table = np.ascontiguousarray(table, dtype=np.int32)
        table.setflags(write=False)
        self.table = table
        self.order = int(table.shape[0])
        self.prime, self.order_exp = prime_power(self.order)

    @cached_property
    def inverse(self) -> np.ndarray:
        """inverse[a], the unique b with a*b == 0, read-only: the least entry
        of row a.  numpy's argmin copies a read-only table, so it runs by
        row blocks; a direct product hands over its factors' instead."""
        n = self.order
        inv = np.empty(n, dtype=np.int32)
        for rows in row_blocks(n, n):
            inv[rows] = self.table[rows].argmin(axis=1)
        inv.setflags(write=False)
        return inv

    @cached_property
    def is_abelian(self) -> bool:
        """Whether the generators commute, with no n x n temporary."""
        t = self.table[np.ix_(self.generators, self.generators)]
        return bool((t == t.T).all())

    @cached_property
    def generators(self) -> np.ndarray:
        """A generating set, read-only.  Spanned here, it is the greedy one,
        each the least element outside the span of those before; validation
        hands over the set it spanned, and a product one read off its factors'."""
        ident = np.arange(self.order)
        gens = np.fromiter(greedy_generators(self.table, ident, ident == 0), np.int64)
        gens.setflags(write=False)
        return gens

    @cached_property
    def element_orders(self) -> np.ndarray:
        """orders[g] = the least divisor d of |G| with g^d == 1, each d
        tried on the elements still open: O(#divisors * log n) gathers."""
        n = self.order
        orders = np.zeros(n, dtype=np.int64)
        open_ = np.arange(n)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            hit = powers(self.table, open_, d) == 0
            orders[open_[hit]] = d
            open_ = open_[~hit]
            if not open_.size:
                break
        orders.setflags(write=False)
        return orders

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        if self.prime is not None:
            return f"Group(order={self.order}={self.prime}^{self.order_exp})"
        return f"Group(order={self.order})"


def powers(table: np.ndarray, xs: np.ndarray, k: int) -> np.ndarray:
    """x**k for every x in xs (k >= 0), by square-and-multiply: each step
    is one gather of the table for all of xs at once."""
    acc = np.zeros_like(xs)
    base = xs
    while k:
        if k & 1:
            acc = table[acc, base]
        k >>= 1
        if k:
            base = table[base, base]
    return acc


def indices(values: Iterable, n: int, what: str = "element", error=IndexOutOfRange) -> np.ndarray:
    """The values as int64 indices in range(n), or `error` naming the first
    that is not an integer (bool, float and str are not) or lies outside;
    an integer array is range-checked in its own dtype and a sequence on its
    Python ints before the one cast, so nothing is truncated or wraps."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if not values.size or (values.min() >= 0 and values.max() < n):
            return values.astype(np.int64, copy=False)
        values = values.ravel().tolist()
    try:
        values = list(values)
    except TypeError:
        raise error(f"{values!r} is not a sequence of indices") from None
    kinds = set(map(type, values))  # a C-level pass; a Python one only on failure
    if all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
        if not values or (min(values) >= 0 and max(values) < n):
            return np.asarray(values, dtype=np.int64)
    for v in values:
        if type(v) is bool or not isinstance(v, (int, np.integer)):
            raise error(f"{what} {v!r} is not an integer")
        if not 0 <= v < n:
            raise error(f"{what} {v} outside range({n})")
    raise RuntimeError("indices refused no value")


def subset_table(table: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """T[i, j] = the position in `elements` (sorted, distinct) of
    elements[i] * elements[j] in `table`: the int32 table of the set on its
    own numbering, or NotClosed naming the first product that escapes."""
    pos = np.full(len(table), -1, dtype=np.int32)
    pos[elements] = np.arange(len(elements), dtype=np.int32)
    T = pos[table[np.ix_(elements, elements)]]
    if (T < 0).any():
        a, b = (int(elements[k]) for k in np.argwhere(T < 0)[0])
        raise NotClosed(f"set not closed: {a}*{b} escapes")
    return T


def greedy_generators(
    table: np.ndarray, seed: Iterable[int], reached: np.ndarray
) -> Iterator[int]:
    """Yield each seed element not yet reached, growing `reached` in place.

    Each yielded g grows the bool mask `reached` to its closure under right
    products with the generators so far.  From a subgroup (reached == {0},
    a normal N) of a group it ends as the subgroup <seed> (N<seed>); each
    generator at least doubles it, so at most log2(n) are yielded from {0}.

    g first grows the reached set R, an array that each gather extends, by
    R h for h = g, g^2, g^4, ... until a gather adds nothing: from a
    subgroup H, k gathers reach the union of the H g^j with j < 2^k, which
    is H<g> once the next adds nothing, in log2 |g| gathers rather than |g|
    frontier steps.  From the second generator on, a frontier closure under
    all of them, from the whole of R, finishes the span.  Every gathered
    element is a right product of reached elements and generators, so in a
    group the mask ends as by the frontier closure alone.
    """
    seed = np.asarray(seed, dtype=np.int64)
    elems = reached.nonzero()[0]  # the reached set, extended by each gather
    gens: list[int] = []
    i = 0
    while True:
        rest = reached[seed[i:]]
        if rest.all():
            return
        i += int(rest.argmin())
        g = int(seed[i])
        yield g
        gens.append(g)
        h = g
        while True:
            prods = table[elems, h]
            new = prods[~reached[prods]]
            if not new.size:
                break
            reached[new] = True
            elems = np.concatenate((elems, new))
            h = table[h, h]
        # H<g> is closed under g, so only a later generator needs the
        # frontier closure under all the generators so far
        frontier = elems
        while len(gens) > 1:
            prods = table[frontier[:, None], gens].ravel()
            frontier = prods[~reached[prods]]
            if not frontier.size:
                break
            frontier = np.unique(frontier)
            reached[frontier] = True
            elems = np.concatenate((elems, frontier))


# Light's check and the bad-triple scan gather about this many cells at a
# time, so a check holds two 256 KiB blocks rather than two n x n arrays.
_BLOCK_CELLS = 1 << 16


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of range(rows), in order, of about _BLOCK_CELLS cells (and
    one row at least) for rows `width` cells wide: one for n x n, n <= 256."""
    step = max(1, _BLOCK_CELLS // width)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _validate_table(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table as a contiguous int32 array with the greedy generators
    its Light's test spanned, or the first failed check.

    The range check runs in the table's own dtype, before the one narrowing
    cast, so no cell can wrap into range.  A table with identity row and
    column 0, a 0 in every row and Light's test passing on every greedy
    generator is a group and is accepted; any other reruns the ordered
    checks to name the first one it fails.
    """
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotLatinSquare(f"table shape {table.shape} is not square")
    n = table.shape[0]
    if n == 0:
        raise NotLatinSquare("empty table")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotLatinSquare(f"entry at {tuple(int(i) for i in bad)} outside range({n})")
    table = np.ascontiguousarray(table, dtype=np.int32)
    ident = np.arange(n)
    # Accept path.  The identity row gives 0 * g == g, so every greedy
    # generator is reached once picked.  A 0 in row x (its least cell, as
    # cells are in range) is a right inverse of x, with no n x n temporary.
    # Light passing makes the table associative (see _light_generators), and a
    # monoid in which every element has a right inverse is a group.
    if (
        (table[0] == ident).all()
        and (table[:, 0] == ident).all()
        and not table.min(axis=1).any()
        and (gens := _light_generators(table)) is not None
    ):
        return table, gens
    _raise_first_failure(table)


def _light_generators(table: np.ndarray) -> Optional[np.ndarray]:
    """The greedy generators of range(n) if Light's test (F. W. Light,
    1949; Clifford & Preston I, section 1.2) passes on a table with identity
    row and column 0, else None: (x*g)*y == x*(g*y) for all x, y and each g
    that greedy_generators picks from range(n), the set Group.generators is.

    The g passing that test form the middle nucleus, which in any magma
    contains the identity and is closed under the product: for a, b in it,
    (x*(a*b))*y == ((x*a)*b)*y == (x*a)*(b*y) == x*(a*(b*y)) == x*((a*b)*y).
    Every reached element is a product of the identity and generators, so
    if all generators pass and reach every element, every element passes
    and the table is associative.  Each g is checked before the reached set
    grows by it.  While every check passes, that set is a monoid inside the
    nucleus whose elements have right inverses in the table, so right
    multiplication by each is a permutation and the set is a group: each
    new generator at least doubles it, at most log2(n) + 1 checks of n^2
    cells.  A check compares one block of rows x at a time; np.take(axis=1)
    gathers the columns, 7x faster than table[:, idx] at order 4096."""
    n = table.shape[0]
    blocks = row_blocks(n, n)
    gens = []
    for g in greedy_generators(table, np.arange(n), np.arange(n) == 0):
        column = table[g]
        for rows in blocks:
            left = table[table[rows, g]]                   # (x*g)*y
            right = np.take(table[rows], column, axis=1)  # x*(g*y)
            if not (left == right).all():
                return None
        gens.append(g)
    gens = np.array(gens, dtype=np.int64)
    gens.setflags(write=False)
    return gens


def _raise_first_failure(table: np.ndarray) -> NoReturn:
    """Raise for the first failed check, in order, of an in-range int32
    table that the accept path refused: Latin rows, then columns, the
    identity row and column, and then, as a Latin table with identity 0
    has a 0 in every row, the accept path's failed Light's test stands and
    a scan names the lexicographically first bad triple."""
    n = table.shape[0]
    ident = np.arange(n)
    # Latin check by scatter marks into one reused n x n mask, one block of
    # rows at a time at flat indices: i*n + v for each cell v of row i, and
    # once the rows pass, v*n + j for each cell v of column j.  A row or
    # column is a permutation iff it marks all n of its slots.  A block's
    # rows mark only their own slots, so each is tested as it is marked and
    # the first incomplete row, in row order, raises without marking more.
    marks = np.zeros((n, n), dtype=bool)
    flat = marks.reshape(-1)
    blocks = row_blocks(n, n)
    width = np.int64(n)  # an int32 cell times n could wrap
    for rows in blocks:
        flat[ident[rows, None] * width + table[rows]] = True
        _raise_incomplete(marks[rows].all(axis=1), rows.start, "row", n)
    marks[:] = False
    for rows in blocks:
        flat[table[rows] * width + ident] = True
    _raise_incomplete(marks.all(axis=0), 0, "column", n)
    if not (table[0] == ident).all():
        a = int(np.argmin(table[0] == ident))
        raise NoIdentityAtZero(f"0*{a} == {int(table[0, a])}, expected {a}")
    if not (table[:, 0] == ident).all():
        a = int(np.argmin(table[:, 0] == ident))
        raise NoIdentityAtZero(f"{a}*0 == {int(table[a, 0])}, expected {a}")
    _raise_first_nonassociative(table)
    raise RuntimeError("the ordered checks passed a table the accept path refused")


def _raise_incomplete(ok: np.ndarray, first: int, kind: str, n: int) -> None:
    """NotLatinSquare naming the first False of ok, row or column first + k."""
    if not ok.all():
        i = first + int(np.argmin(ok))
        raise NotLatinSquare(f"{kind} {i} is not a permutation of range({n})")


def _raise_first_nonassociative(table: np.ndarray) -> None:
    """Raise NotAssociative for the lexicographically first bad (a, b, c)."""
    n = table.shape[0]
    blocks = row_blocks(n, n)
    # (a*b)*c vs a*(b*c), one a and one block of b at a time to bound memory
    for a in range(n):
        for rows in blocks:
            left = table[table[a, rows]]           # [b, c] -> (a*b)*c
            right = table[a][table[rows]]          # [b, c] -> a*(b*c)
            if not (left == right).all():
                i, c = (int(k) for k in np.argwhere(left != right)[0])
                b = rows.start + i
                raise NotAssociative(f"(({a}*{b})*{c}) != ({a}*({b}*{c}))")


def _raise_first_bad_cell(table: Sequence[Sequence[int]] | np.ndarray) -> None:
    """NotLatinSquare naming the first cell, row by row, that is not an
    integer in range(n); a number outside range(n), such as inf, is named
    as the range check names a cell."""
    n = len(table)
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            try:
                if not 0 <= v < n:
                    raise NotLatinSquare(f"entry at {(i, j)} outside range({n})") from None
            except (TypeError, ValueError):  # not a number
                pass
            if type(v) is bool or not isinstance(v, (int, np.integer)):
                raise NotLatinSquare(f"entry at {(i, j)} is not an integer: {v!r}") from None


def cayley_array(table: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """A table of integer cells as one int64 array, or NotLatinSquare.

    Cell types are the caller's to check, as group_from_cayley_table and the
    file reader do.  Every int64 cell keeps its value, so the validator's
    range check sees it before the one cast to int32.  A cell beyond int64
    lies outside range(n) for any n a table can have, so it is named as the
    range check names a cell.
    """
    try:
        return np.asarray(table, dtype=np.int64)
    except (ValueError, TypeError, OverflowError) as e:
        if isinstance(e, OverflowError):
            _raise_first_bad_cell(table)
        raise NotLatinSquare(f"table is not a rectangular integer array: {e}") from None


def group_from_cayley_table(table: Sequence[Sequence[int]] | np.ndarray) -> Group:
    """Validate an untrusted square table and wrap it as a Group.

    Every cell must be an integer, not a bool or a float: an array by its
    dtype, nested lists by one C-level pass over the set of cell types and,
    only when that fails, a scan naming the first bad cell.  A contiguous
    int32 array is kept as it is, not copied, and set read-only.
    """
    if isinstance(table, np.ndarray):
        if not np.issubdtype(table.dtype, np.integer):
            raise NotLatinSquare(f"table dtype {table.dtype} is not integral")
    else:
        try:
            kinds = set(map(type, chain.from_iterable(table)))
        except TypeError:  # a row that is not a sequence: cayley_array names it
            kinds = set()
        if not all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
            _raise_first_bad_cell(table)
        table = cayley_array(table)
    table, gens = _validate_table(table)
    G = Group(table)
    G.generators = gens  # spanned by Light's test; not spanned again
    return G


def table_along_tree(left: np.ndarray, parent: np.ndarray, via: np.ndarray) -> np.ndarray:
    """The int32 table of the group that generators g act on by `left`.

    left[g, x] is the index of g * e_x, and e_j = e_parent[j] * g_via[j]
    with parent[j] < j for j > 0 (element 0 is the identity).  Then
    e_j * e_x = e_parent[j] * (g_via[j] * e_x), so row j is row parent[j]
    gathered by left[via[j]], written in place: no temporary beyond a row.
    """
    n = left.shape[1]
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n)
    for j, p, g in zip(range(1, n), parent[1:].tolist(), via[1:].tolist()):
        table[j] = table[p][left[g]]
    return table


def group_from_permutations(
    degree: int,
    generators: Sequence[Permutation | Sequence[int]],
    cap: int = DEFAULT_ORDER_CAP,
) -> Group:
    """Close generators under composition (BFS order) and build the table.

    Element 0 is the identity; elements are numbered in BFS discovery order,
    which makes the construction deterministic for a fixed generator list.
    """
    gens: list[Permutation] = []
    for g in generators:
        p = g if isinstance(g, Permutation) else Permutation(g)
        if p.degree != degree:
            raise InvalidPermutation(f"generator degree {p.degree} != {degree}")
        gens.append(p)
    k = len(gens)
    dtype = np.min_scalar_type(max(degree - 1, 0))
    images = np.array([p.images for p in gens], dtype=dtype).reshape(k, degree)
    # BFS over image arrays keyed by their bytes.  Each layer's products
    # q*g, with (q*g)(i) = q(g(i)), come q-major as in a loop over the
    # frontier and then the generators, so elements keep that numbering.
    # Element j > 0 is reached as e_j = e_parent[j] * gens[via[j]], and
    # right[g, i] = index of e_i * gens[g] (a Schreier-tree layout).
    frontier = np.arange(degree, dtype=dtype)[None, :]
    index = {frontier.tobytes(): 0}
    parent, via, right = [np.zeros(1, np.int64)], [np.zeros(1, np.int64)], []
    start = 0
    layers = [0]  # the first index of each BFS layer, and n last
    while len(frontier):
        m = len(frontier)
        prods = frontier[:, images].reshape(m * k, degree)
        hit = np.empty(len(prods), dtype=np.int64)
        fresh = []
        for c, key in enumerate(map(bytes, prods)):
            i = index.get(key)
            if i is None:
                if len(index) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap} (degree {degree})")
                i = index[key] = len(index)
                fresh.append(c)
            hit[c] = i
        right.append(hit.reshape(m, k))
        fresh = np.array(fresh, dtype=np.int64)
        parent.append(start + fresh // k)
        via.append(fresh % k)
        start += m
        layers.append(start)
        frontier = prods[fresh]
    n = len(index)
    parent, via = np.concatenate(parent), np.concatenate(via)
    right = np.concatenate(right).T
    # left[g, j] = index of gens[g] * e_j, by the same recursion along the
    # tree: g*e_j = (g*e_parent[j]) * gens[via[j]], one gather per layer,
    # as every parent lies in an earlier layer.
    left = np.empty((k, n), dtype=np.int64)
    left[:, 0] = right[:, 0]
    for lo, hi in zip(layers[1:], layers[2:]):
        layer = slice(lo, hi)
        left[:, layer] = right[via[layer], left[:, parent[layer]]]
    # associative and Latin by construction; identity is element 0
    return Group(table_along_tree(left, parent, via))


def direct_product(G: Group, H: Group, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Componentwise product on pairs (g, h) -> g*|H| + h (lexicographic),
    with H's greedy generators and then G's times |H| as its own: a scan
    spans {e} x H first, then, h minor, meets each (g, e) where G's does.
    The inverse of (g, h) is (g^-1, h^-1), read off the factors'."""
    n, m = G.order, H.order
    if n * m > cap:
        raise ClosureExceedsCap(f"product order {n * m} exceeds cap {cap}")
    # table[(g1,h1),(g2,h2)] = (g1*g2)*m + h1*h2, in int32 as the tables are
    block = G.table[:, None, :, None] * m + H.table[None, :, None, :]
    P = Group(block.reshape(n * m, n * m))
    P.generators = np.concatenate((H.generators, G.generators * m))
    P.generators.setflags(write=False)
    P.inverse = (G.inverse[:, None] * m + H.inverse[None, :]).ravel()
    P.inverse.setflags(write=False)
    return P

