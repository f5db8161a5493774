"""Lattice paths over the steps U = (1,1) and D = (1,-1).

A path is a plain string of 'U' and 'D' characters; the empty string is the
length-0 path. This module owns the word primitives: the height geometry,
step flips, the U < D sort key and the (i, j) sector parameters.
pathbij.families enumerates the path families.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._base import CACHE_SIZE

UP = "U"
DOWN = "D"

_NEGATE = str.maketrans("UD", "DU")
_LEXKEY = str.maketrans("UD", "01")
# each step's height as a signed byte, U +1, D -1 (0xff) and H 0, for the
# profiles of paths and tripaths: a memoryview cast to "b" reads it back
_SIGNED = bytes.maketrans(b"UDH", b"\x01\xff\x00")


def check_path(path: str) -> str:
    """Validate the U/D text encoding and return the path unchanged."""
    # "replace" makes any non-ASCII character, a lone surrogate too, a "?"
    if path.encode("ascii", "replace").translate(None, b"UD"):
        raise ValueError(f"not a U/D path: {path!r}")
    return path


@lru_cache(maxsize=CACHE_SIZE)
def heights(path: str) -> tuple[int, ...]:
    """Height profile (h_1(P), ..., h_n(P)): running sum of +1 per U, -1 per D."""
    check_path(path)
    return tuple(itertools.accumulate(memoryview(path.encode().translate(_SIGNED)).cast("b")))


def end_height(path: str) -> int:
    # U steps minus D steps; needs no profile
    return 2 * check_path(path).count(UP) - len(path)


def same_length(p: str, q: str) -> int:
    """The common length of two words; ValueError if they differ."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return len(p)


def read_ij(ep: int, eq: int) -> tuple[int, int]:
    """(i, j) with h(P) = i+j and h(Q) = i-j: the half sum and half
    difference of two heights, and so the point of a walk."""
    return (ep + eq) // 2, (ep - eq) // 2


def negate(path: str) -> str:
    """Reflect along the x-axis: swap U and D everywhere."""
    return check_path(path).translate(_NEGATE)


def flip_steps(word: str, positions, swap: str = "UD") -> str:
    """Swap the two letters of swap at the given 1-based positions: the one
    applier of unmatched-step flips. A position off the word or on any
    other letter raises ValueError.

    "UD" flips a path; on a walk, "EW" flips both paths of the pair at an
    agreement step and "NS" at a disagreement step.
    """
    first, second = map(ord, swap)
    steps = bytearray(word, "ascii")
    n = len(steps)
    for a in positions:
        if not 1 <= a <= n:
            raise ValueError(f"flip position {a} outside 1..{n}")
        c = steps[a - 1]
        if c == first:
            steps[a - 1] = second
        elif c == second:
            steps[a - 1] = first
        else:
            raise ValueError(f"flip position {a} holds {chr(c)!r}, not {swap[0]} or {swap[1]}")
    return steps.decode()


def swap_fragments(word: str, h: tuple[int, ...], r: int, table) -> str:
    """Translate by table, for each l < r, the steps of word between the
    rightmost points at heights 2l and 2l+1 of the profile h, which must
    end at or above 2r; point 0 is the start.

    After its rightmost point at height v a path that ends above v stays
    above v, so these points come in the order of v, one backward search
    finds them all, and the fragments are disjoint and in order.
    """
    return _swap_fragments(word, h, r, table)[0]


def _swap_fragments(word, h, r, table) -> tuple[str, tuple[int, ...]]:
    # swap_fragments, and the 1-based positions of the r steps after the fragments
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
    return "".join(pieces), tuple(a + 1 for a in last[1::2])


def lexkey(word: str) -> str:
    """Sort key realizing the U < D order ('U' -> '0', 'D' -> '1')."""
    return word.translate(_LEXKEY)


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
        raise ValueError(f"need both i and j, got i={i}, j={j}")
    if not (i >= j >= 0):
        raise ValueError(f"need i >= j >= 0, got i={i}, j={j}")
    if i + j > n:
        raise ValueError(f"need i+j <= n, got i+j={i + j}, n={n}")
    if (i + j) % 2 != n % 2:
        raise ValueError(f"need i+j = n (mod 2), got i+j={i + j}, n={n}")
    return i, j
