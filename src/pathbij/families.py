"""Exhaustive enumeration of every path, tuple and walk family.

Every family is a set of k weakly nested U/D layers of n steps from the
origin, top layer first: a single path is one layer, a nested tuple k
layers, and a plane walk two layers read through omega (UU -> E, UD -> N,
DU -> S, DD -> W), which puts the walk at x+y on the top layer and at x-y
on the bottom one. So the octant is the floor 0 under the bottom layer, the
quadrant the floor -(top layer), the upper half-plane nesting alone, and the
lowest x of a walk is the lowest agreement height of its pair.

One generator, _grow, builds every family level by level: a frontier maps
each state to the words that reach it, each step extends all the words of
a state at once, and a state is dropped as soon as it can no longer reach
the family's end. Each family is its step rule (floor, mirror, low), its
prune (ends, low) and its final filter (the prune with no step left, low,
meet), all from the same start state, the origin.
"""

from __future__ import annotations

import itertools
import operator
import sys
from typing import NamedTuple

from ._base import MAX_K, reject_unread, require
from .paths import check_ij, lexkey

# the walk step of each joint step UU, UD, DU, DD of the two layers
_WALK_STEPS = ("E", "N", "S", "W")
# the most characters of words _grow builds for one family, summed over its
# levels: about a second and 150 MB at the limit (README.md, count). The 2^k
# joint steps come before any word, so k has its own cap, MAX_K
_BUDGET = 1 << 25


class FamilySpec(NamedTuple):
    """A path, tuple or walk family plus its parameters.

    Tags for single paths: A (all), D (Dyck), G (Grand Dyck), P (prefixes),
    Pend (prefixes ending at height s), Aend (paths ending at height s; with i
    given, additionally minimum height -(i-s)/2). Tags for nested tuples:
    Ak, Pk, Gk (k paths, parameter k) and M2, P2, G2 (pairs; i and j select
    the endpoint-constrained sets, P2/G2 without them are the full unions).
    Tags for plane walks: O (octant), Ox (octant, ends on the x-axis), Odiag
    (octant, ends on y = x), Osh (octant, ends in sh(i,j)), Q (quadrant),
    Qend (quadrant, ends at (i,j)), Qx (quadrant, ends on the x-axis), H
    (upper half-plane), Hend (upper half-plane, ends at (i,j)), Hij (upper
    half-plane, ends at (i mod 2, j) with leftmost abscissa -floor(i/2)).
    """

    family: str
    n: int
    k: int | None = None
    i: int | None = None
    j: int | None = None
    s: int | None = None


def _tuple_key(paths: tuple[str, ...]) -> str:
    return lexkey("".join(paths))


def _grow(n, k, form="tuple", floor=None, mirror=False, ends=None, low=None, meet=False):
    """The members of a family of k nested layers of n steps, sorted:
    strings for form "path" (k = 1) and "walk" (k = 2), else k-tuples.

    A state is the layers' heights and, when low is set, the lowest
    agreement height (top + bottom) // 2 so far. Step rule: each layer
    steps U or D, the layers stay nested, the bottom one stays at or above
    floor and, with mirror, at or above minus the top one, and the lowest
    agreement height at or above low. Prune: ends[l] = (lowest, highest)
    bounds the end of layer l, None for no bound, and a state is dropped
    once a layer can no longer end within its bounds, or once the agreement
    height can no longer dip to low and climb back to its end (with low
    set, every layer ends at one height). Final filter: the prune with no
    step left, the lowest agreement height equal to low, and with meet the
    top and bottom layers ending together. Nothing is kept between calls:
    a family lives only as long as its caller holds it. Raises ValueError
    for n < 0, k outside 1..MAX_K, or words past _BUDGET characters.
    """
    require(n >= 0, "n must be nonnegative")
    require(1 <= k <= MAX_K, "need 1 <= k <= {} layers, got k={}", MAX_K, k)
    letters = _WALK_STEPS if form == "walk" else map("".join, itertools.product("UD", repeat=k))
    steps = tuple(zip(itertools.product((1, -1), repeat=k), letters))
    # a layer ends at the parity of n, so each end bound is rounded inward to it
    bounds = tuple(
        (l, a if a is None else a + (a - n) % 2, b if b is None else b - (b - n) % 2)
        for l, (a, b) in enumerate(ends or ())
    )
    back = None if low is None else (ends[0][0] + ends[-1][0]) // 2

    def alive(h, c, m):
        for l, a, b in bounds:
            if (a is not None and h[l] + m < a) or (b is not None and h[l] - m > b):
                return False
        return low is None or c == low or (h[0] + h[-1]) // 2 + back - 2 * low <= m

    start = (0,) * k
    reachable = all(a is None or b is None or a <= b for _, a, b in bounds)
    frontier = {(start, 0): [""]} if reachable and alive(start, 0, n) else {}
    add, lt = operator.add, operator.lt
    left = _BUDGET
    for m in range(n - 1, -1, -1):
        if not frontier:  # no state left: no level costs work, and n may be huge
            break
        grown: dict = {}
        size = (n - m) * (1 if form == "walk" else k)  # the characters of a word after this step
        for (h, c), words in frontier.items():
            cost = size * len(words)
            for dv, letter in steps:
                nh = tuple(map(add, h, dv))
                bottom = nh[-1]
                if (
                    any(map(lt, nh, nh[1:]))
                    or (floor is not None and bottom < floor)
                    or (mirror and bottom < -nh[0])
                ):
                    continue
                if low is not None:
                    nc = min(c, (nh[0] + bottom) // 2)
                    if nc < low:
                        continue
                else:
                    nc = c
                if alive(nh, nc, m):
                    left -= cost
                    if left < 0:
                        raise ValueError(f"family too large to enumerate: > {_BUDGET:,} characters")
                    more = [w + letter for w in words]
                    have = grown.setdefault((nh, nc), more)
                    if have is not more:
                        have += more
        frontier = grown
    cuts = tuple(slice(l, None, k) for l in range(k))
    out: list = []
    while frontier:
        (h, c), words = frontier.popitem()
        if (low is None or c == low) and (not meet or h[0] == h[-1]):
            if form == "tuple":
                # the tuples replace the bucket, which is freed here. A layer
                # is one of at most 2^n paths, shared by many tuples, so it
                # is interned
                words = [tuple([sys.intern(w[cut]) for cut in cuts]) for w in words]
            out += words
    out.sort(key={"path": lexkey, "tuple": _tuple_key}.get(form))
    return tuple(out)


def _nested_tuples(n: int, k: int, floor: bool, end: int | None) -> tuple[tuple[str, ...], ...]:
    """Nested k-tuples; floor keeps the bottom path at heights >= 0,
    end fixes the ending height of every layer."""
    return _grow(n, k, floor=0 if floor else None, ends=None if end is None else ((end, end),) * k)


def _g2_sector(n: int, i: int, j: int, form: str):
    # nested pairs ending at j+d and -j+d, d = i mod 2, lowest agreement -floor(i/2);
    # under omega, the upper half-plane walks ending at (d, j) with leftmost x -floor(i/2)
    d = i % 2
    return _grow(n, 2, form, ends=((j + d, j + d), (d - j, d - j)), low=-(i // 2))


# each walk family's region: the octant, the quadrant or the upper half-plane
_REGIONS = {
    **dict.fromkeys(("O", "Ox", "Odiag", "Osh"), {"floor": 0}),
    **dict.fromkeys(("Q", "Qend", "Qx"), {"mirror": True}),
    **dict.fromkeys(("H", "Hend", "Hij"), {}),
}
# the fields besides n that each family reads; any other field set is an
# error. _READS has a key for every family tag
_READS = dict.fromkeys(("A", "D", "G", "P", *_REGIONS), "")
_READS.update(dict.fromkeys(("M2", "G2", "P2", "Osh", "Qend", "Hend", "Hij"), "ij"))
_READS.update(dict.fromkeys(("Ak", "Pk", "Gk"), "k"), Pend="s", Aend="is")


def enumerate_family(spec: FamilySpec):
    """All members of the family, each once, sorted. Single-path families
    yield strings and tuple families tuples of strings, both in the order of
    their concatenated step words under U < D; walk families yield strings
    in step order E < N < S < W. Raises TypeError for anything but a
    FamilySpec, ValueError for an unknown tag or a field the family lacks or
    does not read."""
    if not isinstance(spec, FamilySpec):
        raise TypeError(f"not a family spec: {spec!r}")
    f, n = spec.family, spec.n
    if f not in _READS:
        raise ValueError(f"unknown family tag: {spec.family!r}")
    reject_unread(spec, "kijs", _READS[f], f"family {f}")
    if f in _REGIONS:
        return _walks(f, n, spec.i, spec.j)
    if f == "A":
        return _grow(n, 1, "path")
    if f == "D":
        return _grow(n, 1, "path", floor=0, ends=((0, 0),))
    if f == "G":
        return _grow(n, 1, "path", ends=((n % 2, n % 2),))
    if f == "P":
        return _grow(n, 1, "path", floor=0)
    if f == "Pend":
        if spec.s is None or spec.s < 0:
            raise ValueError("family Pend needs s >= 0")
        return _grow(n, 1, "path", floor=0, ends=((spec.s, spec.s),))
    if f == "Aend":
        if spec.s is None:
            raise ValueError("family Aend needs s")
        ends = ((spec.s, spec.s),)
        if spec.i is None:
            return _grow(n, 1, "path", ends=ends)
        if spec.i < spec.s or (spec.i - spec.s) % 2:
            raise ValueError(f"need i >= s with i = s (mod 2), got i={spec.i}, s={spec.s}")
        return _grow(n, 1, "path", ends=ends, low=-(spec.i - spec.s) // 2)
    if f in ("Ak", "Pk", "Gk"):
        require(spec.k is not None, "family {} needs k", f)
        return _nested_tuples(n, spec.k, f == "Pk", n % 2 if f == "Gk" else None)
    if f == "M2":
        i, j = check_ij(n, spec.i, spec.j)
        return _grow(n, 2, mirror=True, ends=((i + j, i + j), (i - j, i - j)))
    if f == "G2":
        if spec.i is None and spec.j is None:
            return _nested_tuples(n, 2, False, n % 2)
        i, j = check_ij(n, spec.i, spec.j)
        return _g2_sector(n, i, j, "tuple")
    # f == "P2"
    if spec.i is None and spec.j is None:
        return _nested_tuples(n, 2, True, None)
    i, j = check_ij(n, spec.i, spec.j)
    return _grow(n, 2, floor=0, ends=((i + j, None), (i - j, i + j)))


def _walks(f: str, n: int, i, j) -> tuple[str, ...]:
    # the walk family f: the pairs of its region, each read as one walk
    region = _REGIONS[f]
    if f in ("O", "Q", "H"):
        return _grow(n, 2, "walk", **region)
    if f in ("Ox", "Qx"):
        return _grow(n, 2, "walk", **region, meet=True)
    if f == "Odiag":
        return _grow(n, 2, "walk", **region, ends=((None, None), (0, 0)))
    if i is None or j is None:
        raise ValueError(f"walk family {f} needs both i and j")
    if f == "Osh":
        require(i >= j >= 0, "need i >= j >= 0, got i={}, j={}", i, j)
        return _grow(n, 2, "walk", **region, ends=((i + j, None), (i - j, i + j)))
    if f == "Hij":
        require(i >= 0 and j >= 0, "need i, j >= 0, got i={}, j={}", i, j)
        return _g2_sector(n, i, j, "walk")
    return _grow(n, 2, "walk", **region, ends=((i + j, i + j), (i - j, i - j)))


# the names the walk families had when they had their own record and
# enumerator; the benchmark harness still calls them
WalkFamilySpec, enumerate_walk_family = FamilySpec, enumerate_family
