"""Slow reference implementations used to pin down the fast library code.

Everything here works on plain Python lists-of-lists and sets, no numpy,
so a bug in the vectorized code cannot hide in its oracle.  The exceptions
are the structure references at the end, the library's former numpy
routines, which run at corpus orders where lists would be slow: the
full-table ones read the whole n x n commutator table instead of a
generating set, and the section ones walk element orders one power at a
time and rebuild each section's table to take its quotient.  The two
formula table assemblies are also former library code, kept to pin the
tables the spanning-tree routine now writes, and so are the coset table,
its row labels by row minima and the basis search that regrew every span,
kept to pin the labels and bases the enumeration now reads.  The coclass
and order rules are kept as the branches they were written as before two
tables and one decision routine replaced them; a report outside a
predicate's range is a ValueError.  all_automorphisms is the library's
former brute-force automorphism search, which nothing in it called, kept
for the tests that check the enumeration against it.  ref_scan_table is
the group-file scanner's former numpy block check, kept to pin the checks
that replaced it.  ref_wreath builds C_p wr C_m by permutation closure,
so the wreath builder's formula is checked against a group it did not
number.  ref_class_rows counts the label rows of the central count from the
structure references.  ref_central_automorphisms lists the central
automorphisms from G's table and generators alone, with no structure
mask, basis or label.  position_action is the action table under which
the hom enumerator, which always folds an action, yields positions.
"""

from __future__ import annotations

import hashlib
import itertools
import re

import numpy as np

from centaut import abelian, criteria, families
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
    _fmt,
)
from centaut.errors import (
    AbelianGroup,
    BadParameters,
    ClosureExceedsCap,
    NoIdentityAtZero,
    NotAssociative,
    NotLatinSquare,
    ParseError,
)
from centaut.groups import (
    Group,
    direct_product,
    greedy_generators,
    group_from_permutations,
    powers,
    row_blocks,
)
from centaut.structure import StructureReport, Subgroup, derived_subgroup, quotient


def ref_closure(table: list[list[int]], seed: list[int]) -> list[int]:
    members = {0, *seed}
    while True:
        new = {table[a][b] for a in members for b in members} - members
        if not new:
            return sorted(members)
        members |= new


def ref_center(table: list[list[int]]) -> list[int]:
    n = len(table)
    return [a for a in range(n) if all(table[a][b] == table[b][a] for b in range(n))]


def ref_element_order(table: list[list[int]], g: int) -> int:
    k, acc = 1, g
    while acc != 0:
        acc = table[acc][g]
        k += 1
    return k


def ref_inverse(table: list[list[int]], g: int) -> int:
    return table[g].index(0)


def ref_commutator(table: list[list[int]], a: int, b: int) -> int:
    ia, ib = ref_inverse(table, a), ref_inverse(table, b)
    return table[table[table[ia][ib]][a]][b]


def ref_is_hom(ta: list[list[int]], tb: list[list[int]], f: tuple[int, ...]) -> bool:
    n = len(ta)
    return all(f[ta[x][y]] == tb[f[x]][f[y]] for x in range(n) for y in range(n))


def ref_hom_count(ta: list[list[int]], tb: list[list[int]]) -> int:
    """All functions A -> B satisfying the product law; exponential, tiny only."""
    na, nb = len(ta), len(tb)
    count = 0
    for rest in itertools.product(range(nb), repeat=na - 1):
        f = (0, *rest)
        if ref_is_hom(ta, tb, f):
            count += 1
    return count


def ref_automorphisms(table: list[list[int]]) -> list[tuple[int, ...]]:
    """Bijections fixing 0 that preserve the table; usable up to order 8."""
    n = len(table)
    out = []
    for rest in itertools.permutations(range(1, n)):
        f = (0, *rest)
        if ref_is_hom(table, table, f):
            out.append(f)
    return out


def ref_first_escape(table: list[list[int]], members: list[int]) -> tuple[int, int] | None:
    """First (g, x), g-major, whose conjugate g^-1 x g leaves the subgroup."""
    inside = set(members)
    for g in range(len(table)):
        ig = ref_inverse(table, g)
        for x in sorted(inside):
            if table[table[ig][x]][g] not in inside:
                return g, x
    return None


def ref_quotient(
    table: list[list[int]], members: list[int]
) -> tuple[list[list[int]], list[int]]:
    """G/N for normal N: cosets xN numbered by the rank of their smallest member."""
    low = [min(table[x][m] for m in members) for x in range(len(table))]
    reps = sorted(set(low))
    proj = [reps.index(r) for r in low]
    return [[proj[table[a][b]] for b in reps] for a in reps], proj


def ref_first_nonassociative_triple(
    table: list[list[int]],
) -> tuple[int, int, int] | None:
    """First (a, b, c), lexicographically, with (a*b)*c != a*(b*c)."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


def ref_iter_homomorphisms(
    coordinates: list[list[int]],
    prime: int,
    exponents: tuple[int, ...],
    ambient: list[list[int]],
    targets: list[int],
):
    """Homomorphisms of a based abelian group into <targets>, one map per loop.

    coordinates[x][i] is the exponent of basis element i (of order
    prime**exponents[i]) in x.  Basis images run over the targets whose order
    divides that of their basis element, in itertools.product order; each
    map is a tuple f with f[x] = prod_i y_i ** coordinates[x][i].
    """
    tgt = sorted(targets)
    orders = {t: ref_element_order(ambient, t) for t in tgt}
    cand = [[t for t in tgt if orders[t] <= prime**e] for e in exponents]
    for images in itertools.product(*cand):
        f = [0] * len(coordinates)
        for i, y in enumerate(images):
            powers = [0]
            for _ in range(prime ** exponents[i] - 1):
                powers.append(ambient[powers[-1]][y])
            f = [ambient[f[x]][powers[c[i]]] for x, c in enumerate(coordinates)]
        yield tuple(f)


def ref_int_matrix_error(rows: list, field: str) -> str | None:
    """The per-row type scan of group files: the first row not a list of ints."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in row
        ):
            return f"{field}[{i}] must be a list of integers"
    return None


_REF_WHITESPACE = b" \t\n\r"
_REF_DIGITS = b"0123456789"
_REF_SCAN_BLOCK_BYTES = 1 << 18
_REF_MAX_DIGITS = 9
_REF_POW10 = 10 ** np.arange(_REF_MAX_DIGITS, dtype=np.int32)
_REF_LEAST = np.array([0, 0] + [10 ** (w - 1) for w in range(2, _REF_MAX_DIGITS + 1)])


def _ref_digit_edges(x: np.ndarray) -> np.ndarray:
    digit = (x - ord("0")) < 10
    return digit[1:] != digit[:-1]


def ref_scan_table(raw: bytes, start: int, stop: int, n: int) -> np.ndarray | None:
    """The byte scanner's former block check: raw[start:stop] as an n x n
    int32 array, or None unless it is n rows of n unsigned JSON integers of
    at most 9 digits.  Per block it deletes the digits to compare the
    punctuation with a template, and reads each number's width and the gap
    after it from the digit runs' edges."""
    row = b"," * (n - 1) + b"],["
    array = np.empty((n, n), dtype=np.int32)
    cells = array.reshape(-1)
    done = 0
    lo = start
    while lo < stop:
        hi = stop
        if stop - lo > _REF_SCAN_BLOCK_BYTES:
            hi = raw.rfind(b"]", lo, lo + _REF_SCAN_BLOCK_BYTES) + 1 or (
                raw.find(b"]", lo + _REF_SCAN_BLOCK_BYTES) + 1
            )
        block = raw[lo:hi]
        text = block.translate(None, _REF_WHITESPACE)
        head = b"[[" if lo == start else b",["
        tail = b"]]" if hi == stop else b"]"
        if not (text.startswith(head) and text.endswith(tail)):
            return None
        x = np.frombuffer(text, np.uint8)
        edges = np.flatnonzero(_ref_digit_edges(x))
        if len(text) < len(block) and (
            np.count_nonzero(_ref_digit_edges(np.frombuffer(block, np.uint8))) != edges.size
        ):
            return None
        rows, extra = divmod(edges.size // 2, n)
        if extra or not rows or done + rows * n > n * n:
            return None
        if text.translate(None, _REF_DIGITS) != head + row * (rows - 1) + row[: n - 1] + tail:
            return None
        lengths = np.diff(edges)
        width, gaps = lengths[0::2], lengths[1::2]
        if np.count_nonzero(gaps != 1) != rows - 1 or (gaps[n - 1 :: n] != 3).any():
            return None
        if width.max() > _REF_MAX_DIGITS:
            return None
        ends = edges[1::2]
        value = (x[ends] - ord("0")).astype(np.int32)
        for place in range(1, int(width.max())):
            digit = np.take(x, ends - place, mode="clip")
            digit -= ord("0")
            digit *= width > place
            value += digit * _REF_POW10[place]
        if (value < _REF_LEAST[width]).any():
            return None
        cells[done : done + value.size] = value
        done += value.size
        lo = hi
    return array if done == n * n else None


def ref_parse_cycles(degree: int, text: str) -> list[int]:
    """Cycle notation to images, checked by a pattern whose adjacent
    whitespace runs backtrack and composed by one full pass per cycle: the
    parser before it composed each cycle through the inverse images."""
    images = list(range(degree))
    body = text.strip()
    if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", body):
        raise ParseError(f"bad cycle notation {text!r}")
    for cyc in re.findall(r"\(([^()]*)\)", body):
        tokens = [t for t in re.split(r"[\s,]+", cyc.strip()) if t]
        if not all(re.fullmatch(r"\d+", t) for t in tokens):
            raise ParseError(f"cycle points must be integers in ({cyc})")
        points = [int(t) for t in tokens]
        if not points:
            continue
        if len(points) != len(set(points)):
            raise ParseError(f"repeated point in cycle ({cyc})")
        if any(not 0 <= q < degree for q in points):
            raise ParseError(f"cycle point outside range({degree}) in ({cyc})")
        step = list(range(degree))
        for i, q in enumerate(points):
            step[q] = points[(i + 1) % len(points)]
        images = [step[x] for x in images]  # cycles apply left to right
    return images


def ref_parse_group_spec(spec: str, cap: int):
    """parse_group_spec with the term patterns it had before each
    whitespace run was scanned once: a product split whose separators may
    start inside a run, and a term pattern with a whitespace run on each
    side of its optional parameters."""
    term = re.compile(r"^\s*([a-z][a-z0-9_]*)\s*(?:\(([^()]*)\)|:(.*))?\s*$")
    groups = []
    for part in re.split(r"\s+x\s+", spec.strip()):
        m = term.match(part)
        if not m:
            raise BadParameters(f"cannot parse group term {part!r}")
        raw = m.group(2) if m.group(2) is not None else m.group(3)
        params = families._parse_params(raw) if raw and raw.strip() else []
        groups.append(families.builtin(m.group(1), params, cap=cap))
    G = groups[0]
    for H in groups[1:]:
        G = direct_product(G, H, cap=cap)
    return G


def ref_latin_error(table: list[list[int]]) -> str | None:
    """Sort-based Latin check on an in-range table: rows first, then columns."""
    n = len(table)
    ident = list(range(n))
    for i, row in enumerate(table):
        if sorted(row) != ident:
            return f"row {i} is not a permutation of range({n})"
    for j in range(n):
        if sorted(row[j] for row in table) != ident:
            return f"column {j} is not a permutation of range({n})"
    return None


def ref_validation_error(table: list[list[int]]) -> tuple[type, str] | None:
    """The first failed check of an in-range square table, as (error class,
    message), in the validator's order: Latin rows, then columns,
    the identity row, then column, and the first bad triple."""
    n = len(table)
    latin = ref_latin_error(table)
    if latin is not None:
        return NotLatinSquare, latin
    for a in range(n):
        if table[0][a] != a:
            return NoIdentityAtZero, f"0*{a} == {table[0][a]}, expected {a}"
    for a in range(n):
        if table[a][0] != a:
            return NoIdentityAtZero, f"{a}*0 == {table[a][0]}, expected {a}"
    triple = ref_first_nonassociative_triple(table)
    if triple is not None:
        a, b, c = triple
        return NotAssociative, f"(({a}*{b})*{c}) != ({a}*({b}*{c}))"
    return None


def ref_permutation_closure(
    degree: int, generators: list[list[int]], cap: int
) -> list[list[int]]:
    """Cayley table of <generators>, one composition per cell.

    Elements are image tuples numbered in BFS order: the frontier in order,
    each element times each generator in turn, (q*g)(i) = q(g(i)).  Raises
    ClosureExceedsCap when an element beyond the cap-th is found.
    """

    def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(a.__getitem__, b))

    gens = [tuple(g) for g in generators]
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for q in frontier:
            for g in gens:
                r = mul(q, g)
                if r not in index:
                    if len(elements) >= cap:
                        raise ClosureExceedsCap(
                            f"closure exceeds cap {cap} (degree {degree})"
                        )
                    index[r] = len(elements)
                    elements.append(r)
                    nxt.append(r)
        frontier = nxt
    return [[index[mul(a, b)] for b in elements] for a in elements]


def ref_commutator_table(table: np.ndarray) -> np.ndarray:
    """comm[x, g] = index of x^-1 g^-1 x g, for every pair: n x n cells."""
    n = len(table)
    inverse = np.argmax(table == 0, axis=1)
    idx = np.arange(n)
    m = table[np.ix_(inverse, inverse)]
    m = table[m, idx[:, None]]
    return table[m, idx[None, :]]


def ref_closure_mask(table: np.ndarray, seed) -> np.ndarray:
    """Span of the seed by rounds of all |H|^2 products until none is new."""
    mask = np.zeros(len(table), dtype=bool)
    mask[0] = True
    mask[np.asarray(seed, dtype=np.int64)] = True
    while True:
        elems = np.flatnonzero(mask)
        prods = table[np.ix_(elems, elems)]
        new = np.unique(prods[~mask[prods]])
        if new.size == 0:
            return mask
        mask[new] = True


def ref_upper_masks(table: np.ndarray) -> list[np.ndarray]:
    """Z_0 .. Z_c: x is in Z_{i+1} iff [x, g] is in Z_i for every g in G."""
    comm = ref_commutator_table(table)
    masks = [np.arange(len(table)) == 0]
    while not masks[-1].all():
        nxt = masks[-1][comm].all(axis=1)
        if nxt.sum() == masks[-1].sum():
            raise ValueError("upper series stalls")
        masks.append(nxt)
    return masks


def ref_derived_mask(table: np.ndarray) -> np.ndarray:
    """G' as the span of every commutator."""
    return ref_closure_mask(table, np.unique(ref_commutator_table(table)))


def ref_lower_masks(table: np.ndarray) -> list[np.ndarray]:
    """gamma_1 = G, gamma_{i+1} = span of [x, g] for all x in gamma_i, g in G."""
    comm = ref_commutator_table(table)
    series = [np.ones(len(table), dtype=bool)]
    while series[-1].sum() > 1:
        nxt = ref_closure_mask(table, np.unique(comm[series[-1], :]))
        if nxt.sum() == series[-1].sum():
            raise ValueError("lower series stalls")
        series.append(nxt)
    return series


def ref_frattini_mask(table: np.ndarray, p: int) -> np.ndarray:
    """Phi(G) of a p-group as the span of G' and every p-th power."""
    n = len(table)
    powers = np.arange(n)
    for _ in range(p - 1):
        powers = table[powers, np.arange(n)]
    return ref_closure_mask(
        table, np.concatenate([np.flatnonzero(ref_derived_mask(table)), powers])
    )


def ref_generator_count(table: np.ndarray, p: int) -> int:
    """d(G) = log_p [G : Phi(G)]."""
    index = len(table) // int(ref_frattini_mask(table, p).sum())
    d = 0
    while index > 1:
        index //= p
        d += 1
    return d


def ref_is_abelian(table: np.ndarray, elements) -> bool:
    """Whether a subset of the table's elements commutes, by its full
    |H| x |H| block against its transpose."""
    block = table[np.ix_(elements, elements)]
    return bool((block == block.T).all())


def ref_as_group_table(table: np.ndarray, elements) -> np.ndarray:
    """A subgroup's table renumbered ascending, by binary search of every
    product among the sorted elements."""
    elems = np.asarray(elements)
    return np.searchsorted(elems, table[np.ix_(elems, elems)])


def ref_bijective_rows(sigma: np.ndarray) -> np.ndarray:
    """Which rows of a (maps x n) block of image arrays hit every element,
    by one n-wide mark array per map: the scatter check the enumeration
    ran on every image before it tested row labels."""
    k, n = sigma.shape
    marks = np.zeros(k * n, dtype=bool)
    marks[(np.arange(k, dtype=np.int64) * n)[:, None] + sigma] = True
    return marks.reshape(k, n).all(axis=1)


def all_automorphisms(G: Group, order_limit: int = 256) -> list[np.ndarray]:
    """Every automorphism, by generator-image search with closure propagation.

    Independent of the central-map enumeration: takes the generating set
    Group.generators, tries all same-order images, and extends
    each assignment through the multiplication table, rejecting on the
    first conflict.  Exponential in general, hence the small order_limit.
    """
    n = G.order
    if n > order_limit:
        raise ValueError(f"order {n} exceeds the search limit {order_limit}")
    gens = G.generators.tolist()
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
            if (assign != -1).all() and ref_bijective_rows(assign[None, :])[0]:
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


def ref_central_automorphisms(G, bound: int = 5 * 10**7) -> np.ndarray:
    """Every central automorphism of G, one row sigma each, sigma[x] the
    image of x, read from G.table and G.generators alone.

    Z is the set of rows of the table that equal their columns.  Each tuple
    z in Z^k, for the k generators g_i, gives the map g_i -> g_i z_i,
    extended along a BFS spanning tree of right products with the
    generators by sigma(x g_i) = sigma(x) sigma(g_i).  A map is kept when
    that law holds for every x and i, so that it is an endomorphism and
    x^-1 sigma(x) lies in Z for every x, and when it is a bijection.  A
    central automorphism comes from exactly one tuple, z_i = g_i^-1
    sigma(g_i).  ValueError when |Z|^k * |G| exceeds bound, or when the
    tree does not reach all of G."""
    T = np.asarray(G.table, dtype=np.int64)
    n = len(T)
    gens = np.asarray(G.generators, dtype=np.int64)
    k = len(gens)
    z = np.flatnonzero((T == T.T).all(axis=1))
    if len(z) ** k * n > bound:
        raise ValueError(f"{len(z)}^{k} maps of {n} cells exceed {bound}")
    # the tree, a BFS layer at a time: each new element y = x g_i by the
    # first (x, i) that reaches it
    parent, via = np.full(n, -1), np.zeros(n, dtype=np.int64)
    parent[0] = 0
    layers, frontier = [], np.zeros(1, dtype=np.int64)
    while frontier.size:
        prods = T[frontier[:, None], gens].ravel()
        fresh = np.flatnonzero(parent[prods] < 0)
        new, first = np.unique(prods[fresh], return_index=True)
        parent[new], via[new] = frontier[fresh[first] // k], fresh[first] % k
        layers.append(new)
        frontier = new
    if (parent < 0).any():
        raise ValueError("the generators' tree does not reach all of G")
    tuples = np.indices((len(z),) * k).reshape(k, -1).T
    step, kept = max(1, 2**18 // n), []
    for lo in range(0, len(tuples), step):
        img = T[gens, z[tuples[lo : lo + step]]]  # g_i z_i, a row per map
        sigma = np.zeros((len(img), n), dtype=np.int64)
        for layer in layers:
            sigma[:, layer] = T[sigma[:, parent[layer]], img[:, via[layer]]]
        ok = np.ones(len(img), dtype=bool)
        for i, g in enumerate(gens):
            ok &= (sigma[:, T[:, g]] == T[sigma, img[:, i, None]]).all(axis=1)
        ok &= (np.sort(sigma, axis=1) == np.arange(n)).all(axis=1)
        kept.append(sigma[ok])
    return np.concatenate(kept)


def ref_c_order_tuples(inv: AbelianInvariants) -> list[list[int]]:
    """Every exponent tuple along a basis of invariants inv, in C order:
    the k-th is that of row k of a basis search's cosets."""
    radices = [inv.prime**e for e in inv.exponents]
    return [list(c) for c in itertools.product(*map(range, radices))]


def ref_stability_count(G, X: np.ndarray, Y: np.ndarray) -> int:
    """Distinct maps x -> x*f(xXG'), f in Hom(G/XG', Y), for masks X of a
    normal subgroup and Y of a central one, from the per-map reference
    loop: G/X and its abelianization taken by ref_quotient (the latter
    over ref_derived_mask), and the basis of (G/X)^ab by ref_section_basis,
    its cosets in C order of their exponent tuples."""
    p, t = G.prime, G.table.tolist()
    q, proj = ref_quotient(t, np.flatnonzero(X).tolist())
    qab, proj2 = ref_quotient(q, np.flatnonzero(ref_derived_mask(np.array(q))).tolist())
    inv = ref_abelian_invariants(np.array(qab), p)
    _, members = ref_section_basis(Group(np.array(qab)), np.arange(len(qab)) == 0, inv)
    row = np.empty(len(qab), dtype=np.int64)  # the C-order row of each element
    row[members[:, 0]] = np.arange(len(qab))
    coords = ref_c_order_tuples(inv)
    homs = ref_iter_homomorphisms(coords, p, inv.exponents, t, np.flatnonzero(Y).tolist())
    coset = row[np.asarray(proj2)[proj]].tolist()
    return len({tuple(t[x][f[c]] for x, c in enumerate(coset)) for f in homs})


def position_action(T: np.ndarray, starts: int) -> np.ndarray:
    """An action table under which abelian.iter_hom_positions yields
    positions offset by `starts`: T's regular action on its positions,
    after `starts` start states that each act as the identity position.
    Row q < starts is starts + T[0] and row starts + u is starts + T[u], so
    the action law holds by T's associativity."""
    return np.concatenate((np.broadcast_to(T[0], (starts, len(T))), T)).astype(np.int32) + starts


def hom_positions(basis, T: np.ndarray, images: list[np.ndarray], rows: int):
    """abelian.iter_hom_positions' blocks as positions f[x], under
    position_action."""
    n = len(basis.coordinates)
    for block in abelian.iter_hom_positions(basis, T, images, rows, position_action(T, n)):
        yield block - np.int32(n)


def ref_coset_table(G, members: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """right[c * |T| + j] = the members of coset c times tgt[j]: the
    (cosets * |T|) x (coset size) table of products the enumeration kept
    before it checked them as it read them, filled a few cosets at a time."""
    a, m = members.shape
    right = np.empty((a, len(tgt), m), dtype=np.int32)
    for c in row_blocks(a, m * len(tgt)):
        cells = G.table[np.ix_(members[c].ravel(), tgt)]
        right[c] = cells.reshape(-1, m, len(tgt)).transpose(0, 2, 1)
    return right.reshape(a * len(tgt), m)


def ref_row_labels(right: np.ndarray, cosets: int) -> np.ndarray:
    """Row labels of a coset table as the enumeration read them before it
    took them from the basis search's cosets: the rank of each row's
    minimum, after checking by one flat sort per chunk that every row holds
    distinct elements, that two rows sharing an element have the same
    minimum and that there are exactly `cosets` distinct minima."""
    rows, m = right.shape
    n = cosets * m
    chunks = row_blocks(rows, m)
    step = chunks[0].stop  # the longest chunk
    # chunk row i's cells become keys i * n + x, so one flat sort orders
    # the chunk row by row and puts each row's minimum first
    key = np.int32 if step * n <= np.iinfo(np.int32).max else np.int64
    shift = np.arange(0, step * n, n, dtype=key)
    low = np.empty(rows, dtype=np.int32)
    owner = np.full(n, -1, dtype=np.int32)  # the minimum of a row holding x
    for s in chunks:
        block = right[s]
        keys = np.sort(block + shift[: len(block), None], axis=None)
        if (keys[1:] == keys[:-1]).any():
            raise RuntimeError("a coset-table row repeats an element")
        low[s] = keys[::m] - shift[: len(block)]
        cells, got = block.T, owner.take(block.T)
        if (got != low[s]).any():
            fresh = got < 0
            owner[cells[fresh]] = np.broadcast_to(low[s], cells.shape)[fresh]
            if (owner.take(cells) != low[s]).any():
                raise RuntimeError("coset-table rows share an element, not a minimum")
    is_min = np.zeros(n, dtype=bool)
    is_min[low] = True
    if int(is_min.sum()) != cosets:
        raise RuntimeError(f"{int(is_min.sum())} row minima for {cosets} cosets")
    rank = np.cumsum(is_min, dtype=np.int32) - 1
    return rank[low]


def ref_section_basis(G, N: np.ndarray, inv: AbelianInvariants):
    """(basis elements, members) of G/N by the search the library ran
    before it kept its power maps and spans: at each position the span
    <chosen>N is regrown from N and every element of G is powered again,
    and each cycle g^0 .. g^(r-1) is read one product at a time."""
    p = G.prime

    def independent(chosen, want):
        span = N.copy()
        for _ in greedy_generators(G.table, chosen, span):
            pass
        low = powers(G.table, np.arange(G.order), want // p)
        return np.flatnonzero(N[powers(G.table, low, p)] & ~span[low]).tolist()

    targets = inv.exponents
    chosen: list[int] = []
    stacks: list[list[int]] = []
    while len(chosen) < len(targets):
        if len(stacks) == len(chosen):
            stacks.append(independent(chosen, p ** targets[len(chosen)]))
        if not stacks[-1]:
            stacks.pop()
            if not chosen:
                raise RuntimeError("basis search failed; group is not as declared")
            chosen.pop()
            continue
        chosen.append(stacks[-1].pop(0))
    x = np.zeros(1, dtype=np.int64)
    for g, e in zip(chosen, targets):
        cycle = [0]
        for _ in range(p**e - 1):
            cycle.append(int(G.table[cycle[-1], g]))
        x = G.table[x[:, None], cycle].ravel()
    return tuple(chosen), G.table[np.ix_(x, np.flatnonzero(N))]


def ref_element_orders(table: np.ndarray) -> np.ndarray:
    """Every element's order by the walk the library ran before it tried
    the divisors of |G|: acc[g] = g^k for k = 2, 3, ..., one gather of n
    cells per unit of the exponent."""
    n = len(table)
    orders = np.zeros(n, dtype=np.int64)
    orders[0] = 1
    acc = np.arange(n)
    k = 1
    while (orders == 0).any():
        k += 1
        acc = table[acc, np.arange(n)]
        hit = (acc == 0) & (orders == 0)
        orders[hit] = k
    return orders


def ref_abelian_invariants(table: np.ndarray, p: int) -> AbelianInvariants:
    """Invariants of an abelian p-group table from its walked element
    orders: layer j has the p^(l_j) elements of order dividing p^j, and
    the conjugate of the steps l_(j+1) - l_j lists the invariants."""
    orders = ref_element_orders(table)
    ranks, prev, bound = [], 0, 1
    while bound < orders.max():
        bound *= p
        count, lg = int((orders <= bound).sum()), 0
        while count > 1:
            assert count % p == 0
            count //= p
            lg += 1
        ranks.append(lg - prev)
        prev = lg
    exps = [sum(r >= i for r in ranks) for i in range(1, ranks[0] + 1)] if ranks else []
    return AbelianInvariants(p, tuple(exps))


def ref_section_invariants(G, H: np.ndarray, N: np.ndarray) -> AbelianInvariants:
    """Invariants of the section H/N by the route the structure report took
    before it counted layers on G's table: H's table renumbered
    (ref_as_group_table), N renumbered inside it, the quotient taken
    (ref_quotient) and its orders walked."""
    elems = np.flatnonzero(H)
    table = ref_as_group_table(G.table, elems).tolist()
    q, _ = ref_quotient(table, np.searchsorted(elems, np.flatnonzero(N)).tolist())
    return ref_abelian_invariants(np.array(q), G.prime)


def ref_class_rows(G) -> int:
    """The label rows the central count tests: prod_i of the number of
    classes of Z mod Z n G' that hold an element of order dividing p^e_i,
    over the invariants p^e_i of G/G'.  Z is read as the rows that equal
    their columns, G' as the span of every commutator, the invariants by
    the quotient route and the orders by walking powers; a class is named
    by the least element of its coset of G'."""
    table = G.table
    z = np.flatnonzero((table == table.T).all(axis=1))
    derived = ref_derived_mask(table)
    inv = ref_section_invariants(G, np.ones(G.order, dtype=bool), derived)
    orders = ref_element_orders(table)[z].tolist()
    least = table[np.ix_(z, np.flatnonzero(derived))].min(axis=1).tolist()
    rows = 1
    for e in inv.exponents:
        rows *= len({c for c, k in zip(least, orders) if inv.prime**e % k == 0})
    return rows


def ref_structure_report(G) -> StructureReport:
    """The structure report as the library built it before it read the
    three sections from G's own masks: Z and Z_2 from the full-table upper
    series, their tables renumbered (ref_as_group_table), and G/G' and
    Z_2/Z taken as quotient Groups."""
    p = G.prime
    upper = ref_upper_masks(G.table)
    cls = len(upper) - 1
    z = Subgroup(G, np.flatnonzero(upper[1]), verify=False)
    z2 = Subgroup(G, np.flatnonzero(upper[min(2, cls)]), verify=False)
    alpha = ref_abelian_invariants(quotient(G, derived_subgroup(G))[0].table, p)
    gamma = ref_abelian_invariants(ref_as_group_table(G.table, z.elements), p)
    z2g = Group(ref_as_group_table(G.table, z2.elements))
    inz = np.searchsorted(z2.elements, z.elements)
    inner, _ = quotient(z2g, Subgroup(z2g, inz, verify=False))
    beta = ref_abelian_invariants(inner.table, p)
    return StructureReport(
        order=G.order,
        prime=p,
        order_exp=G.order_exp,
        nilpotency_class=cls,
        coclass=G.order_exp - cls,
        d=alpha.rank,
        d_center=gamma.rank,
        d_inner_center=beta.rank,
        abelianization=alpha,
        center=gamma,
        inner_center=beta,
        center_in_derived=not (z.mask & ~derived_subgroup(G).mask).any(),
        second_center_abelian=z2.is_abelian,
    )


def ref_metacyclic_table(m: int, s: int, t: int, w: int = 0) -> np.ndarray:
    """The metacyclic table as the builder wrote it before the spanning-tree
    routine: a^i1 b^j1 * a^i2 b^j2 = a^(i1 + t^j1 i2 + w [j1 + j2 >= s])
    b^(j1 + j2), numbered i*s + j and written one j1 at a time."""
    table = np.empty((m, s, m, s), dtype=np.int32)
    i = np.arange(m, dtype=np.int32)
    j = np.arange(s, dtype=np.int32)
    for j1 in range(s):
        j12 = j1 + j
        shift = np.add.outer(pow(t, j1, m) * i, w * (j12 >= s)) % m  # [i2, j2]
        cell = table[:, j1]  # [i1, i2, j2], a view
        np.add(i[:, None, None], shift, out=cell)
        cell %= m
        cell *= s
        cell += j12 % s
    return table.reshape(m * s, m * s)


def ref_unitriangular_table(q: int, k: int, carries, overflows=()) -> np.ndarray:
    """The unitriangular table as the builder wrote it before the
    spanning-tree routine: one block of rows at a time, the index of each
    product by Horner steps over its coordinates.  Each (o, c) in overflows
    adds 1 to coordinate c where a_o + b_o >= q."""
    n = q**k
    digits = np.indices((q,) * k, dtype=np.int32).reshape(k, n)
    table = np.empty((n, n), dtype=np.int32)
    for rows in row_blocks(n, n):
        a = digits[:, rows, None]
        index = np.zeros((rows.stop - rows.start, n), dtype=np.int32)
        for c in range(k):
            coord = a[c] + digits[c]
            for i, j in carries[c]:
                coord += a[i] * digits[j]
            for o, c2 in overflows:
                if c2 == c:
                    coord += a[o] + digits[o] >= q
            coord %= q
            index *= q
            index += coord
        table[rows] = index
    return table


def ref_wreath(p: int, m: int) -> Group:
    """C_p wr C_m as the permutation group on p*m points, block b holding
    points b*p .. b*p + p - 1, generated by a p-cycle on block 0 and the
    shift of each block to the next: no formula of the builder's."""
    points = np.arange(p * m)
    block, k = np.divmod(points, p)
    cycle = np.where(block == 0, (k + 1) % p, points)
    shift = (block + 1) % m * p + k
    return group_from_permutations(p * m, [cycle.tolist(), shift.tolist()], cap=p**m * m)


def table_sha(table: np.ndarray) -> str:
    """First 16 hex digits of the sha256 of a table's cells as little-endian
    int32: a pin of a builder's output, cell for cell."""
    cells = np.ascontiguousarray(table, dtype="<i4")
    return hashlib.sha256(cells.tobytes()).hexdigest()[:16]


def _ref_dd_match(rep: StructureReport, allowed: tuple[int, ...]) -> str | None:
    """C_p center with d(G) == d(Z_2/Z) in the allowed set; reason if not."""
    if rep.center.exponents != (1,):
        return f"center {_fmt(rep.center)} != [1]"
    if rep.d != rep.d_inner_center:
        return f"d={rep.d} != d(Z2/Z)={rep.d_inner_center}"
    if rep.d not in allowed:
        return f"d={rep.d} not in {list(allowed)}"
    return None


def ref_coclass_predicate(rep: StructureReport) -> Verdict:
    """Minimality for coclass 2, 3 and 4 at class >= 3."""
    if rep.nilpotency_class < 3:
        raise ValueError(f"class {rep.nilpotency_class} < 3")
    cc = rep.coclass
    if cc not in (2, 3, 4):
        raise ValueError(f"coclass {cc} not in 2..4")
    a = rep.abelianization.exponents
    b = rep.inner_center.exponents
    g = rep.center.exponents
    if cc == 2:
        why = _ref_dd_match(rep, (2,))
        if why is None:
            return Verdict(MINIMAL, RULE_COCLASS2, "center [1], d=d(Z2/Z)=2")
        return Verdict(NOT_MINIMAL, RULE_COCLASS2, why)
    if cc == 3:
        why = _ref_dd_match(rep, (2, 3))
        if why is None:
            return Verdict(MINIMAL, RULE_COCLASS3, f"center [1], d=d(Z2/Z)={rep.d}")
        if g == (2,) and b == a:
            return Verdict(
                MINIMAL, RULE_COCLASS3, f"center [2], Z2/Z matches G/G' {_fmt(rep.inner_center)}"
            )
        return Verdict(NOT_MINIMAL, RULE_COCLASS3, why)
    why = _ref_dd_match(rep, (2, 3, 4))
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


def ref_order_predicate(rep: StructureReport) -> Verdict:
    """Minimality at orders p^5..p^7 for class >= 3 (below maximal class)."""
    n = rep.order_exp
    if n not in (5, 6, 7):
        raise ValueError(f"order exponent {n} not in 5..7")
    if rep.nilpotency_class < 3:
        raise ValueError(f"class {rep.nilpotency_class} < 3")
    cls = rep.nilpotency_class
    a = rep.abelianization.exponents
    b = rep.inner_center.exponents
    g = rep.center.exponents
    if n == 5 and cls == 3:
        why = _ref_dd_match(rep, (2,))
        dec = MINIMAL if why is None else NOT_MINIMAL
        return Verdict(dec, RULE_ORDER_P5, why or "center [1], d=d(Z2/Z)=2")
    if n == 6 and cls in (3, 4):
        why = _ref_dd_match(rep, (2,))
        dec = MINIMAL if why is None else NOT_MINIMAL
        return Verdict(dec, RULE_ORDER_P6, why or "center [1], d=d(Z2/Z)=2")
    if n == 7 and cls in (3, 4, 5):
        if cls == 3:
            why = _ref_dd_match(rep, (2, 3, 4))
            dec = MINIMAL if why is None else NOT_MINIMAL
            return Verdict(dec, RULE_ORDER_P7, why or f"center [1], d=d(Z2/Z)={rep.d}")
        if cls == 4:
            why = _ref_dd_match(rep, (2, 3))
            if why is None:
                return Verdict(
                    MINIMAL, RULE_ORDER_P7, f"center [1], d=d(Z2/Z)={rep.d}"
                )
            if g == (2,) and b == a:
                return Verdict(
                    MINIMAL, RULE_ORDER_P7, "center [2], Z2/Z matches G/G'"
                )
            return Verdict(NOT_MINIMAL, RULE_ORDER_P7, why)
        why = _ref_dd_match(rep, (2,))
        dec = MINIMAL if why is None else NOT_MINIMAL
        return Verdict(dec, RULE_ORDER_P7, why or "center [1], d=d(Z2/Z)=2")
    return Verdict(UNDECIDED, RULE_NONE, f"class {cls} at order p^{n} not covered")


def ref_classify_report(rep: StructureReport) -> Verdict:
    """classify_report over the branch-by-branch predicates: the first
    applicable rule decides, the rest are cross-checks."""
    if rep.nilpotency_class < 2:
        raise AbelianGroup("rules are posed for nonabelian groups")
    evals = []
    if rep.nilpotency_class == 2:
        evals.append((RULE_CLASS2, *criteria._class2_eval(rep)))
    if rep.coclass == 1 and rep.nilpotency_class >= 3:
        evals.append(
            (RULE_MAXIMAL_CLASS, NOT_MINIMAL, "maximal class above 2 forces extra central maps")
        )
    if rep.order_exp in (5, 6, 7) and rep.nilpotency_class >= 3:
        v = ref_order_predicate(rep)
        if v.rule != RULE_NONE:
            evals.append((v.rule, v.decision, v.details))
    if rep.coclass in (2, 3, 4) and rep.nilpotency_class >= 3:
        v = ref_coclass_predicate(rep)
        evals.append((v.rule, v.decision, v.details))
    if rep.center.rank == 1:
        g1 = rep.center.exponents[0]
        ok = criteria.theorem21_predicate(rep.abelianization, rep.inner_center, g1)
        why = (
            f"G/G'={_fmt(rep.abelianization)}, Z2/Z={_fmt(rep.inner_center)}, "
            f"center exponent {g1}"
        )
        evals.append((RULE_THEOREM21, MINIMAL if ok else NOT_MINIMAL, why))
    if not evals:
        return Verdict(UNDECIDED, RULE_NONE, "no structural rule applies")
    rule, decision, detail = evals[0]
    extras = [f"{r}={d}{'' if d == decision else ' (CONFLICT)'}" for r, d, _ in evals[1:]]
    if extras:
        detail = f"{detail}; cross-checks: {', '.join(extras)}"
    return Verdict(decision, rule, detail)
