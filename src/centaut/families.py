"""Builders for the standard p-group families, plus a small source grammar.

Sources name groups as builder expressions like "dihedral(16)" or products
"dihedral(16) x cyclic(2)"; parse_group_spec also accepts the colon form
"dihedral:16".  Every builder checks the order cap from its parameters
before it builds a table.  metacyclic, the unitriangular groups (the
extraspecial ones among them) and cyclic_wreath give the left actions of
their generators and a spanning tree to groups.table_along_tree, and its
int32 table goes through group_from_cayley_table so a bad parameter set
cannot yield a non-group; direct products are groups by construction.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Sequence

import numpy as np

from .errors import BadParameters, ClosureExceedsCap, UnknownBuiltin
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    direct_product,
    group_from_cayley_table,
    prime_power,
    table_along_tree,
)


def _check_order(order: int, cap: int) -> None:
    if order > cap:
        raise ClosureExceedsCap(f"order {order} exceeds cap {cap}")


def _check_prime_power(p: int, k: int, cap: int, times: int = 1) -> None:
    """Require p prime and times * p**k <= cap, judged from the parameters.

    A p above the cap fails before the trial division, and since p >= 2 an
    exponent k >= cap.bit_length() fails before p**k is computed.
    """
    if p > cap:
        raise ClosureExceedsCap(f"order at least {p} exceeds cap {cap}")
    if prime_power(p) != (p, 1):
        raise BadParameters(f"{p} is not prime")
    if k >= cap.bit_length() or times * p**k > cap:
        factor = f"{times}*" if times > 1 else ""
        raise ClosureExceedsCap(f"order {factor}{p}^{k} exceeds cap {cap}")


def cyclic(m: int, cap: int = DEFAULT_ORDER_CAP) -> Group:
    if m < 1:
        raise BadParameters(f"cyclic order must be >= 1, got {m}")
    _check_order(m, cap)
    a = np.arange(m, dtype=np.int32)
    table = np.add.outer(a, a)
    table %= m
    G = Group(table)
    G.generators = np.arange(1, min(m, 2))  # 1 alone spans C_m; C_1 needs none
    G.generators.setflags(write=False)
    return G


def abelian_group(p: int, exponents: Sequence[int], cap: int = DEFAULT_ORDER_CAP) -> Group:
    exps = [operator.index(e) for e in exponents]  # a "+" token is a TypeError
    if not exps or any(e < 1 for e in exps):
        raise BadParameters(f"exponents must be nonempty and >= 1, got {exps}")
    _check_prime_power(p, sum(exps), cap)
    G = cyclic(p ** exps[0], cap)
    for e in exps[1:]:
        G = direct_product(G, cyclic(p**e, cap), cap=cap)
    return G


def elementary(p: int, k: int, cap: int = DEFAULT_ORDER_CAP) -> Group:
    if k < 1:
        raise BadParameters(f"need k >= 1, got {k}")
    _check_prime_power(p, k, cap)  # before the k-long exponent list
    return abelian_group(p, [1] * k, cap)


def metacyclic(m: int, s: int, t: int, w: int = 0, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """<a, b | a^m = 1, b^s = a^w, b a b^-1 = a^t> on pairs a^i b^j.

    Requires t^s == 1 (mod m) and w*(t-1) == 0 (mod m) so the relations are
    consistent; the assembled table is fully validated regardless.
    """
    if m < 1 or s < 1:
        raise BadParameters(f"need m, s >= 1, got m={m} s={s}")
    _check_order(m * s, cap)
    if not 0 <= t < m or not 0 <= w < m:
        raise BadParameters(f"need 0 <= t, w < m, got t={t} w={w}")
    if pow(t, s, m) != 1 % m:
        raise BadParameters(f"t^s = {pow(t, s, m)} != 1 (mod {m})")
    if (w * (t - 1)) % m != 0:
        raise BadParameters(f"w*(t-1) = {w * (t - 1)} != 0 (mod {m})")
    # a^i b^j is numbered i*s + j.  a and b act on the left by
    # a * a^i b^j = a^(i+1) b^j and b * a^i b^j = a^(ti + w[j+1 = s]) b^(j+1),
    # and the tree is a^i b^j = a^i b^(j-1) * b, a^i = a^(i-1) * a.
    i, j = np.divmod(np.arange(m * s), s)
    left = np.stack([(i + 1) % m * s + j, (t * i + w * (j + 1 == s)) % m * s + (j + 1) % s])
    via = (j > 0).astype(np.intp)
    return group_from_cayley_table(table_along_tree(left, i * s + j - np.where(via, 1, s), via))


def _half_of_2_power(name: str, order: int, least: int, cap: int) -> int:
    _check_order(order, cap)
    if order < least or prime_power(order)[0] != 2:
        raise BadParameters(f"{name} order must be 2^k >= {least}, got {order}")
    return order // 2


def dihedral(order: int, cap: int = DEFAULT_ORDER_CAP) -> Group:
    m = _half_of_2_power("dihedral", order, 8, cap)
    return metacyclic(m, 2, m - 1, 0, cap)


def quaternion(order: int, cap: int = DEFAULT_ORDER_CAP) -> Group:
    m = _half_of_2_power("quaternion", order, 8, cap)
    return metacyclic(m, 2, m - 1, m // 2, cap)


def semidihedral(order: int, cap: int = DEFAULT_ORDER_CAP) -> Group:
    m = _half_of_2_power("semidihedral", order, 16, cap)
    return metacyclic(m, 2, m // 2 - 1, 0, cap)


def modular(p: int, order: int, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """M_{p^k}: cyclic C_{p^(k-1)} extended by the power-(1+p^(k-2)) map."""
    _check_order(order, cap)
    _check_prime_power(p, 1, cap)
    q, k = prime_power(order)
    if q != p or k < 3:
        raise BadParameters(f"modular order must be p^k >= p^3, got {order}")
    m = order // p
    return metacyclic(m, p, 1 + m // p, 0, cap)


def _unitriangular(
    q: int,
    k: int,
    carries: Sequence[Sequence[tuple[int, int]]],
    overflows: Sequence[tuple[int, int]] = (),
) -> Group:
    """The group on k base-q coordinates where coordinate c of a*b is
    a_c + b_c + sum(a_i * b_j for (i, j) in carries[c]), plus 1 for each
    (o, c) in overflows with a_o + b_o >= q, mod q.

    Elements are numbered by their coordinates, most significant first.
    u_c * x adds 1 to x_c, x_j to each x_c' with (c, j) in carries[c'],
    and 1 to each x_c' with (c, c') in overflows when x_c == q - 1.
    The tree is x = y * u_c for x's most significant nonzero coordinate c
    and y = x less one at c; as every carry (i, j) has i < j and y is 0
    above c, no carry (i, c) adds to y * u_c, and as y_c + 1 <= q - 1, no
    overflow (c, c') fires.
    """
    n = q**k
    digits = np.indices((q,) * k).reshape(k, n)
    weight = q ** np.arange(k - 1, -1, -1)  # place value of each coordinate
    moved = digits + np.eye(k, dtype=int)[:, :, None]  # [c, c', x]: u_c * x
    for c2, pairs in enumerate(carries):
        for i, j in pairs:
            moved[i, c2] += digits[j]
    for o, c2 in overflows:
        moved[o, c2] += digits[o] == q - 1
    top = np.argmax(digits != 0, axis=0)
    return group_from_cayley_table(
        table_along_tree(weight @ (moved % q), np.arange(n) - weight[top], top)
    )


def heisenberg(p: int, k: int = 1, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Upper unitriangular 3x3 matrices over Z/p^k; order p^(3k), class 2."""
    if k < 1:
        raise BadParameters(f"need k >= 1, got {k}")
    _check_prime_power(p, 3 * k, cap)
    # coordinates (x, y, z); z gains x_a * y_b
    return _unitriangular(p**k, 3, [(), (), [(0, 1)]])


def unitriangular4(p: int, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Upper unitriangular 4x4 matrices over Z/p; order p^6, class 3."""
    _check_prime_power(p, 6, cap)
    # coordinates (a12, a13, a14, a23, a24, a34); c_ik gains a_ij * b_jk
    return _unitriangular(p, 6, [(), [(0, 3)], [(0, 4), (1, 5)], (), [(3, 5)], ()])


def extraspecial(p: int, order: int, sign: str = "+", cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Extraspecial group of order p^(2r+1); sign picks the isomorphism type.

    Elements are (z, x_1..x_r, y_1..y_r) over Z/p, z most significant, and
    z gains the bilinear cocycle sum(x_i * y'_i) in (z, x, y)(z', x', y'):
    the "+" type, of exponent p for odd p and a central product of D_8s at
    p = 2.  The "-" type also adds to z the carry of x_1 + x'_1 past p - 1,
    so x_1^p = z and the exponent is p^2; at p = 2 it adds that of
    y_1 + y'_1 too, which makes <x_1, y_1> a Q_8.  In both, Z = G' = <z>.
    """
    _check_order(order, cap)
    _check_prime_power(p, 1, cap)
    if sign not in ("+", "-"):
        raise BadParameters(f"sign must be '+' or '-', got {sign!r}")
    q, k = prime_power(order)
    if q != p or k < 3 or k % 2 == 0:
        raise BadParameters(f"order must be p^(2r+1) >= p^3, got {order}")
    r = (k - 1) // 2
    carries = [[(1 + i, 1 + r + i) for i in range(r)]] + [()] * (2 * r)
    overflows = [] if sign == "+" else [(1, 0)] + [(1 + r, 0)] * (p == 2)
    return _unitriangular(p, k, carries, overflows)


def cyclic_wreath(p: int, m: int, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """C_p wr C_m: (x, h)(x', h') = (x + roll(x', h), h + h') for x in
    (Z/p)^m and h in Z/m, where roll(x', h)_c = x'_(c - h mod m).

    (x, h) is numbered x*m + h, x's coordinates in base p, most significant
    first.  u_c = (e_c, 0) acts on the left by adding 1 to x_c, and
    t = (0, 1) by rolling x one place and adding 1 to h.  The tree is
    (x, h) = (x, h - 1) * t for h > 0 and (x, 0) = (x - e_c, 0) * u_c for
    x's most significant nonzero coordinate c.
    """
    # a bad p is named before a bad m, and a negative m raises no p**m
    _check_prime_power(p, max(m, 0), cap, times=m)
    if m < 1:
        raise BadParameters(f"need m >= 1, got {m}")
    n = p**m
    digits = np.indices((p,) * m).reshape(m, n)
    weight = p ** np.arange(m - 1, -1, -1)  # place value of each coordinate
    moved = (digits + np.eye(m, dtype=int)[:, :, None]) % p  # [c, c', x]: u_c * x
    images = np.concatenate((weight @ moved, [weight @ np.roll(digits, 1, axis=0)]))
    x, h = np.divmod(np.arange(n * m), m)
    left = images[:, x] * m + h  # u_0 .. u_(m-1), then t
    left[m] = images[m, x] * m + (h + 1) % m
    top = np.argmax(digits != 0, axis=0)[x]
    via = np.where(h > 0, m, top)
    parent = np.arange(n * m) - np.where(h > 0, 1, weight[top] * m)
    return group_from_cayley_table(table_along_tree(left, parent, via))


def wreath(p: int, cap: int = DEFAULT_ORDER_CAP) -> Group:
    return cyclic_wreath(p, p, cap=cap)


_BUILTINS: dict[str, tuple[Callable[..., Group], str, str]] = {
    "cyclic": (cyclic, "cyclic(m)", "cyclic group of order m"),
    "abelian": (
        lambda p, *e, cap: abelian_group(p, e, cap),
        "abelian(p,e1,e2,...)",
        "product of C_{p^ei}",
    ),
    "elementary": (elementary, "elementary(p,k)", "C_p^k"),
    "dihedral": (dihedral, "dihedral(2^k)", "dihedral group, order >= 8"),
    "quaternion": (quaternion, "quaternion(2^k)", "generalized quaternion, order >= 8"),
    "semidihedral": (semidihedral, "semidihedral(2^k)", "semidihedral, order >= 16"),
    "modular": (modular, "modular(p,p^k)", "modular maximal-cyclic, order >= p^3"),
    "heisenberg": (heisenberg, "heisenberg(p,k)", "unitriangular 3x3 over Z/p^k"),
    "unitriangular4": (unitriangular4, "unitriangular4(p)", "unitriangular 4x4 over Z/p"),
    "extraspecial": (
        extraspecial,
        "extraspecial(p,p^(2r+1),+|-)",
        "extraspecial group of either type",
    ),
    "metacyclic": (
        metacyclic,
        "metacyclic(m,s,t[,w])",
        "<a,b | a^m, b^s=a^w, bab^-1=a^t>",
    ),
    "cwreath": (cyclic_wreath, "cwreath(p,m)", "C_p wr C_m (cyclic shift)"),
    "wreath": (wreath, "wreath(p)", "C_p wr C_p"),
}


def list_builtins() -> list[tuple[str, str, str]]:
    """(name, signature, description) rows, alphabetical."""
    return sorted((n, sig, desc) for n, (_, sig, desc) in _BUILTINS.items())


def builtin(
    name: str,
    params: int | str | Sequence[int | str] = (),
    cap: int = DEFAULT_ORDER_CAP,
) -> Group:
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise UnknownBuiltin(f"no builtin {name!r}; known: {known}")
    if isinstance(params, (int, str)):
        params = (params,)
    fn = _BUILTINS[name][0]
    try:
        return fn(*params, cap=cap)
    except TypeError as e:
        raise BadParameters(f"{name}{tuple(params)}: {e}") from None


# matched on a stripped term, split off where a whitespace run starts, so no
# pattern scans a run more than once
_TERM = re.compile(r"([a-z][a-z0-9_]*)\s*(?:\(([^()]*)\)|:(.*))?")


def _parse_params(text: str) -> list[int | str]:
    out: list[int | str] = []
    # one comma or colon, or whitespace alone, ends a parameter
    for k, tok in enumerate(re.split(r"\s*[,:]\s*|\s+", text.strip()), 1):
        if not tok:
            raise BadParameters(f"parameter {k} of {text!r} is empty")
        if tok in ("+", "-"):
            out.append(tok)
        elif re.fullmatch(r"-?\d+", tok):
            try:
                out.append(int(tok))
            except ValueError:  # more digits than int() converts
                raise BadParameters(f"parameter of {len(tok)} digits") from None
        else:
            raise BadParameters(f"bad parameter token {tok!r}")
    return out


def parse_group_spec(spec: str, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Build from "name(p1,p2)" terms joined by " x " for direct products."""
    parts = re.split(r"(?<!\s)\s+x\s+", spec.strip())
    groups = []
    for part in parts:
        m = _TERM.fullmatch(part)
        if not m:
            raise BadParameters(f"cannot parse group term {part!r}")
        name = m.group(1)
        raw = m.group(2) if m.group(2) is not None else m.group(3)
        params = _parse_params(raw) if raw and raw.strip() else []
        groups.append(builtin(name, params, cap=cap))
    G = groups[0]
    for H in groups[1:]:
        G = direct_product(G, H, cap=cap)
    return G
