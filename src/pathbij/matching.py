"""Facing-step matching for paths over U, D and the horizontal step H.

A U step and a later D step face each other when the horizontal segment
joining their midpoints lies weakly below the path; those pairs form the
unique proper parenthesis matching of the word, with H steps ignored.
The steps left unmatched are the flip kernel: unmatched_steps finds them,
_up_flips picks the ones a forward map flips, and paths.flip_steps flips
them.

With (d, u) = unmatched_steps(t), t ends at height len(u) - len(d) and
never goes below its start exactly when d is empty; its lowest point,
-len(d), is first reached at step d[-1]; and when d is empty its last
point at a height v below its end is u[v] - 1. The maps that need no
other fact read these instead of a height profile.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from ._base import CACHE_SIZE, require
from .paths import _SIGNED


def check_tripath(t: str) -> str:
    if t.encode("ascii", "replace").translate(None, b"UDH"):
        raise ValueError(f"not a U/D/H path: {t!r}")
    return t


@lru_cache(maxsize=CACHE_SIZE)
def tri_heights(t: str) -> tuple[int, ...]:
    """Running heights with U = +1, D = -1, H = 0."""
    check_tripath(t)
    return tuple(itertools.accumulate(memoryview(t.encode().translate(_SIGNED)).cast("b")))


class Matching(NamedTuple):
    """Matched (U, D) index pairs and the leftover steps, all 1-based.

    Every unmatched D sits to the left of every unmatched U; H steps
    never appear in any role.
    """

    pairs: tuple[tuple[int, int], ...]
    unmatched_d: tuple[int, ...]
    unmatched_u: tuple[int, ...]


@lru_cache(maxsize=CACHE_SIZE)
def unmatched_steps(t: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(unmatched_d, unmatched_u) of match_faces(t), 1-based: the flip kernel.

    The same stack scan without the list of matched pairs, which no map
    reads; every map flips some of these steps.
    """
    check_tripath(t)
    stack: list[int] = []
    unmatched_d: list[int] = []
    push, pop = stack.append, stack.pop
    for a, c in enumerate(t, start=1):
        if c == "U":
            push(a)
        elif c == "D":
            if stack:
                pop()
            else:
                unmatched_d.append(a)
    return tuple(unmatched_d), tuple(stack)


def _up_flips(word: str, s: int | None) -> tuple[int, ...]:
    """The forward choice of every map: the leftmost (i-s)/2 of the i
    unmatched U steps of a word with no unmatched D; s = i mod 2 when None.
    xi_s flips them in a prefix, psi_s in a pair's agreement path and
    psi_tilde_s in a walk's agreement path; the inverses flip every
    unmatched D step."""
    unmatched_d, unmatched_u = unmatched_steps(word)
    # an unmatched D step is a new minimum below the start
    require(not unmatched_d, "need a Dyck path prefix, got {!r}", word)
    i = len(unmatched_u)
    if s is None:
        s = i % 2
    require(s >= 0, "need s >= 0, got s={}", s)
    require(i >= s, "need i >= s, got i={}, s={}", i, s)
    require((i - s) % 2 == 0, "need i = s (mod 2), got i={}, s={}", i, s)
    return unmatched_u[: (i - s) // 2]


@lru_cache(maxsize=CACHE_SIZE)
def match_faces(t: str) -> Matching:
    """Stack scan: U pushes, D pops a match if possible, H is skipped.

    The view with the pairs, for rendering and checking; the maps call
    unmatched_steps.
    """
    check_tripath(t)
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    unmatched_d: list[int] = []
    push, pop, match = stack.append, stack.pop, pairs.append
    for a, c in enumerate(t, start=1):
        if c == "U":
            push(a)
        elif c == "D":
            if stack:
                match((pop(), a))
            else:
                unmatched_d.append(a)
    pairs.sort()
    return Matching(tuple(pairs), tuple(unmatched_d), tuple(stack))
