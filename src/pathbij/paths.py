"""Lattice paths over the steps U = (1,1) and D = (1,-1).

A path is a plain string of 'U' and 'D' characters; the empty string is the
length-0 path. This module owns the height geometry, the weakly-below partial
order, and exhaustive enumeration of every path family used elsewhere.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import NamedTuple

from ._base import CACHE_SIZE

UP = "U"
DOWN = "D"

_NEGATE = str.maketrans("UD", "DU")
_LEXKEY = str.maketrans("UD", "01")
_STEP = {UP: 1, DOWN: -1}
_U, _D = ord(UP), ord(DOWN)


def check_path(path: str) -> str:
    """Validate the U/D text encoding and return the path unchanged."""
    # strip stops at the first foreign character from either side
    if path.strip("UD"):
        raise ValueError(f"not a U/D path: {path!r}")
    return path


@lru_cache(maxsize=CACHE_SIZE)
def heights(path: str) -> tuple[int, ...]:
    """Height profile (h_1(P), ..., h_n(P)): running sum of +1 per U, -1 per D."""
    check_path(path)
    return tuple(itertools.accumulate(map(_STEP.__getitem__, path)))


def end_height(path: str) -> int:
    # U steps minus D steps; needs no profile
    return 2 * check_path(path).count(UP) - len(path)


def min_height(path: str) -> int:
    """Lowest height over the whole path, the starting point at 0 included."""
    return min(heights(path) + (0,))


def negate(path: str) -> str:
    """Reflect along the x-axis: swap U and D everywhere."""
    return check_path(path).translate(_NEGATE)


def flip_steps(path: str, positions) -> str:
    """Swap U/D at the given 1-based positions; a position off the path or
    on a step other than U or D raises ValueError."""
    steps = bytearray(path, "ascii")
    n = len(steps)
    for a in positions:
        if not 1 <= a <= n:
            raise ValueError(f"flip position {a} outside 1..{n}")
        c = steps[a - 1]
        if c == _U:
            steps[a - 1] = _D
        elif c == _D:
            steps[a - 1] = _U
        else:
            raise ValueError(f"flip position {a} holds {chr(c)!r}, not U or D")
    return steps.decode()


def swap_fragments(word: str, h: tuple[int, ...], r: int, table) -> str:
    """Translate by table, for each l < r, the steps of word between the
    rightmost points at heights 2l and 2l+1 of the profile h, which must
    end at or above 2r; point 0 is the start.

    After its rightmost point at height v a path that ends above v stays
    above v, so these points come in the order of v, one backward search
    finds them all, and the fragments are disjoint and in order.
    """
    backward = ((0,) + h)[::-1]
    last = []
    b = 0
    for v in range(2 * r - 1, -1, -1):
        b = backward.index(v, b)
        last.append(len(h) - b)
    last.reverse()
    pieces = []
    done = 0
    for l in range(r):
        start, stop = last[2 * l], last[2 * l + 1]
        pieces += (word[done:start], word[start:stop].translate(table))
        done = stop
    pieces.append(word[done:])
    return "".join(pieces)


def is_weakly_below(q: str, p: str) -> bool:
    """True iff h_a(Q) <= h_a(P) for every a. Lengths must agree."""
    if len(q) != len(p):
        raise ValueError(f"length mismatch: {len(q)} vs {len(p)}")
    return all(a <= b for a, b in zip(heights(q), heights(p)))


def is_prefix(path: str) -> bool:
    return min_height(path) >= 0


def is_dyck(path: str) -> bool:
    return min_height(path) >= 0 and end_height(path) == 0


def is_grand(path: str) -> bool:
    return end_height(path) == len(path) % 2


class PathClass(NamedTuple):
    is_dyck: bool
    is_grand: bool
    is_prefix: bool


def classify(path: str) -> PathClass:
    """Membership flags of a single path in the three named families."""
    return PathClass(is_dyck(path), is_grand(path), is_prefix(path))


def lexkey(word: str) -> str:
    """Sort key realizing the U < D order ('U' -> '0', 'D' -> '1')."""
    return word.translate(_LEXKEY)


def _tuple_key(paths: tuple[str, ...]) -> str:
    return "".join(paths).translate(_LEXKEY)


# ---------------------------------------------------------------------------
# Families


class FamilySpec(NamedTuple):
    """A path family plus its parameters.

    Tags for single paths: A (all), D (Dyck), G (Grand Dyck), P (prefixes),
    Pend (prefixes ending at height s), Aend (paths ending at height s; with i
    given, additionally minimum height -(i-s)/2). Tags for nested tuples:
    Ak, Pk, Gk (k paths, parameter k) and M2, P2, G2 (pairs; i and j select
    the endpoint-constrained sets, P2/G2 without them are the full unions).
    """

    family: str
    n: int
    k: int | None = None
    i: int | None = None
    j: int | None = None
    s: int | None = None


def valid_ij(n: int) -> tuple[tuple[int, int], ...]:
    """All (i, j) with i >= j >= 0, i+j <= n and i+j = n (mod 2)."""
    out = []
    for i in range(n + 1):
        for j in range(min(i, n - i) + 1):
            if (i + j) % 2 == n % 2:
                out.append((i, j))
    return tuple(out)


def check_ij(n: int, i, j) -> tuple[int, int]:
    if i is None or j is None:
        raise ValueError("this family needs both i and j")
    if not (i >= j >= 0):
        raise ValueError(f"need i >= j >= 0, got i={i}, j={j}")
    if i + j > n:
        raise ValueError(f"need i+j <= n, got i+j={i + j}, n={n}")
    if (i + j) % 2 != n % 2:
        raise ValueError(f"need i+j = n (mod 2), got i+j={i + j}, n={n}")
    return i, j


@lru_cache(maxsize=None)
def all_paths(n: int) -> tuple[str, ...]:
    """Every path of length n, in lexicographic order with U < D."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple("".join(w) for w in itertools.product("UD", repeat=n))


@lru_cache(maxsize=None)
def dyck_paths(n: int) -> tuple[str, ...]:
    return tuple(p for p in all_paths(n) if is_dyck(p))


@lru_cache(maxsize=None)
def prefix_paths(n: int) -> tuple[str, ...]:
    return tuple(p for p in all_paths(n) if is_prefix(p))


@lru_cache(maxsize=None)
def grand_paths(n: int) -> tuple[str, ...]:
    return tuple(p for p in all_paths(n) if is_grand(p))


@lru_cache(maxsize=None)
def _m2_members(n: int, i: int, j: int) -> tuple[tuple[str, str], ...]:
    """Pairs -P <= Q <= P with h(P) = i+j and h(Q) = i-j, by pruned search."""
    tp, tq = i + j, i - j
    out: list[tuple[str, str]] = []
    pc: list[str] = []
    qc: list[str] = []

    def walk(hp: int, hq: int, m: int) -> None:
        # reachable endpoints always have the right parity, a range check suffices
        if abs(tp - hp) > m or abs(tq - hq) > m:
            return
        if m == 0:
            out.append(("".join(pc), "".join(qc)))
            return
        for dp, sp in ((1, UP), (-1, DOWN)):
            for dq, sq in ((1, UP), (-1, DOWN)):
                np_, nq = hp + dp, hq + dq
                if -np_ <= nq <= np_:
                    pc.append(sp)
                    qc.append(sq)
                    walk(np_, nq, m - 1)
                    pc.pop()
                    qc.pop()

    walk(0, 0, n)
    out.sort(key=_tuple_key)
    return tuple(out)


@lru_cache(maxsize=None)
def _g2_members(n: int, i: int, j: int) -> tuple[tuple[str, str], ...]:
    """Nested pairs with ell(P,Q) = -floor(i/2), h(P) = j+d, h(Q) = -j+d, d = i mod 2."""
    t = i // 2
    d = i % 2
    tp, tq = j + d, -j + d
    out: list[tuple[str, str]] = []
    pc: list[str] = []
    qc: list[str] = []

    def walk(hp: int, hq: int, smin: int, m: int) -> None:
        if abs(tp - hp) > m or abs(tq - hq) > m:
            return
        if smin > -t:
            # must still dip the agreement height to -t, then climb back to d
            c = (hp + hq) // 2
            if (c + t) + (t + d) > m:
                return
        if m == 0:
            if smin == -t:
                out.append(("".join(pc), "".join(qc)))
            return
        for dp, sp in ((1, UP), (-1, DOWN)):
            for dq, sq in ((1, UP), (-1, DOWN)):
                np_, nq = hp + dp, hq + dq
                if nq > np_:
                    continue
                ns = min(smin, (np_ + nq) // 2)
                if ns < -t:
                    continue
                pc.append(sp)
                qc.append(sq)
                walk(np_, nq, ns, m - 1)
                pc.pop()
                qc.pop()

    walk(0, 0, 0, n)
    out.sort(key=_tuple_key)
    return tuple(out)


@lru_cache(maxsize=None)
def _nested_tuples(n: int, k: int, floor: bool, end: int | None) -> tuple[tuple[str, ...], ...]:
    """Nested k-tuples; floor keeps the bottom path at heights >= 0,
    end fixes the ending height of every layer."""
    if k < 1:
        raise ValueError("k must be at least 1")
    out: list[tuple[str, ...]] = []
    # (height change per layer, step letter per layer) for every joint step
    moves = [
        (dv, tuple(UP if d == 1 else DOWN for d in dv))
        for dv in itertools.product((1, -1), repeat=k)
    ]
    add, ge = operator.add, operator.ge
    bottom = 0 if floor else -n

    def walk(h: tuple[int, ...], words: tuple[str, ...], m: int) -> None:
        if m == 0:
            out.append(words)
            return
        m -= 1
        # the layers are nested, so bounding the bottom one from below and the
        # top one from above keeps every layer >= 0 (with floor) and within m of end
        low, high = (bottom, n) if end is None else (max(bottom, end - m), end + m)
        for dv, letters in moves:
            nh = tuple(map(add, h, dv))
            if low <= nh[-1] and nh[0] <= high and all(map(ge, nh, nh[1:])):
                walk(nh, tuple(map(add, words, letters)), m)

    if end is None or abs(end) <= n:
        walk((0,) * k, ("",) * k, n)
    out.sort(key=_tuple_key)
    return tuple(out)


def _require_k(spec: FamilySpec) -> int:
    if spec.k is None or spec.k < 1:
        raise ValueError(f"family {spec.family} needs k >= 1")
    return spec.k


def enumerate_family(spec: FamilySpec):
    """All members of the family, each once, sorted by their concatenated
    step words under U < D. Single-path families yield strings, tuple
    families yield tuples of strings."""
    f, n = spec.family, spec.n
    if n < 0:
        raise ValueError("n must be nonnegative")
    if f == "A":
        return all_paths(n)
    if f == "D":
        return dyck_paths(n)
    if f == "G":
        return grand_paths(n)
    if f == "P":
        return prefix_paths(n)
    if f == "Pend":
        if spec.s is None or spec.s < 0:
            raise ValueError("family Pend needs s >= 0")
        return tuple(p for p in prefix_paths(n) if end_height(p) == spec.s)
    if f == "Aend":
        if spec.s is None:
            raise ValueError("family Aend needs s")
        members = (p for p in all_paths(n) if end_height(p) == spec.s)
        if spec.i is None:
            return tuple(members)
        if spec.i < spec.s or (spec.i - spec.s) % 2:
            raise ValueError(f"need i >= s with i = s (mod 2), got i={spec.i}, s={spec.s}")
        floor = -(spec.i - spec.s) // 2
        return tuple(p for p in members if min_height(p) == floor)
    if f == "Ak":
        return _nested_tuples(n, _require_k(spec), False, None)
    if f == "Pk":
        return _nested_tuples(n, _require_k(spec), True, None)
    if f == "Gk":
        k = _require_k(spec)
        return _nested_tuples(n, k, False, n % 2)
    if f == "M2":
        i, j = check_ij(n, spec.i, spec.j)
        return _m2_members(n, i, j)
    if f == "G2":
        if spec.i is None and spec.j is None:
            return _nested_tuples(n, 2, False, n % 2)
        i, j = check_ij(n, spec.i, spec.j)
        return _g2_members(n, i, j)
    if f == "P2":
        if spec.i is None and spec.j is None:
            return _nested_tuples(n, 2, True, None)
        i, j = check_ij(n, spec.i, spec.j)
        lo, hi = i - j, i + j
        return tuple(
            (p, q)
            for p, q in _nested_tuples(n, 2, True, None)
            if lo <= end_height(q) <= hi <= end_height(p)
        )
    raise ValueError(f"unknown family tag: {spec.family!r}")
