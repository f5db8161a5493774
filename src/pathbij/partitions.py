"""Plane partitions in a p x q x k box and their path-tuple encoding.

A plane partition is stored as a tuple of q rows, each a tuple of p
nonnegative integers, weakly decreasing along rows and columns. A nested
k-tuple of paths of length p+q, all ending at height p-q, carries the same
data: layer l of the array is the Young diagram cut out by the l-th path,
the top path holding the smallest diagram.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_right

from ._base import require
from .paths import check_path

PlanePartition = tuple[tuple[int, ...], ...]


def path_to_diagram(path: str, p: int, q: int) -> tuple[int, ...]:
    """Part t counts the U steps after the t-th D step of the path.

    The path must have exactly p U steps and q D steps. Lower paths give
    containing diagrams.
    """
    ups, downs = check_path(path).count("U"), path.count("D")
    require(
        ups == p and downs == q, "need {} U steps and {} D steps, got {} and {}", p, q, ups, downs
    )
    parts: list[int] = []
    seen_u = 0
    for c in reversed(path):
        if c == "U":
            seen_u += 1
        else:
            parts.append(seen_u)
    return tuple(reversed(parts))


def diagram_to_path(parts: tuple[int, ...], p: int, q: int) -> str:
    """Boundary path of a diagram inside the p x q rectangle."""
    require(len(parts) == q, "need {} parts, got {}", q, len(parts))
    require(all(x >= 0 for x in parts), "parts must be nonnegative")
    require(all(parts[t] >= parts[t + 1] for t in range(q - 1)), "parts must weakly decrease")
    require(q == 0 or parts[0] <= p, "parts must be at most {}", p)
    pieces = []
    prev = p
    for part in parts:
        pieces.append("U" * (prev - part))
        pieces.append("D")
        prev = part
    pieces.append("U" * prev)
    return "".join(pieces)


def check_pp(a: PlanePartition, k: int | None = None) -> PlanePartition:
    """Validate rectangularity, row/column monotonicity and the bound k."""
    q = len(a)
    p = len(a[0]) if q else 0
    for row in a:
        require(len(row) == p, "rows must all have the same length")
        require(min(row, default=0) >= 0, "entries must be nonnegative")
        require(all(map(operator.ge, row, row[1:])), "rows must weakly decrease")
        if k is not None:
            require(max(row, default=0) <= k, "entries must be at most {}", k)
    for upper, lower in zip(a, a[1:]):
        require(all(map(operator.ge, upper, lower)), "columns must weakly decrease")
    return a


def tuple_to_pp(paths: tuple[str, ...], p: int, q: int) -> PlanePartition:
    """Stack the diagrams of a nested tuple into a plane partition.

    Every path must end at (p+q, p-q); entry (i, j) counts the layers whose
    diagram contains the cell, so the result fits a p x q x len(paths) box.
    """
    diagrams = [path_to_diagram(path, p, q) for path in paths]
    # with p U and q D steps each, a path is weakly below another exactly
    # when each part of its diagram is at least the matching part of the other's
    for t in range(len(paths) - 1):
        nested = all(map(operator.ge, diagrams[t + 1], diagrams[t]))
        require(nested, "path {} is not weakly below path {}", t + 2, t + 1)
    k = len(paths)
    rows = []
    for r in range(q):
        # the parts grow down the layers, so the columns past the part of
        # layer t-1, up to that of layer t, lie in layers t..k-1 alone
        row = ()
        prev = 0
        for t, d in enumerate(diagrams):
            row += (k - t,) * (d[r] - prev)
            prev = d[r]
        rows.append(row + (0,) * (p - prev))
    return tuple(rows)


def pp_to_tuple(a: PlanePartition, k: int, p: int | None = None) -> tuple[str, ...]:
    """Slice a plane partition into its k boundary paths.

    Layer l (1-based) is the diagram of the cells with entry >= k+1-l. The
    column count p is read off the rows; pass it explicitly when q = 0.
    """
    check_pp(a, k)
    q = len(a)
    if q:
        p = len(a[0])
    else:
        require(p is not None and p >= 0, "need p >= 0 when the array has no rows, got p={}", p)
    paths = []
    for l in range(1, k + 1):
        threshold = k + 1 - l
        # the entries >= threshold lead each weakly decreasing row
        parts = tuple(bisect_right(row, -threshold, key=operator.neg) for row in a)
        paths.append(diagram_to_path(parts, p, q))
    return tuple(paths)


def enumerate_pp(p: int, q: int, k: int) -> tuple[PlanePartition, ...]:
    """All plane partitions in the p x q x k box, sorted by their rows. The
    rows over 0..k ascend, as do the rows under each row, none sorting after it."""
    if p < 0 or q < 0 or k < 0:
        raise ValueError("p, q, k must be nonnegative")
    if q == 0:
        return ((),)
    rows = sorted(itertools.combinations_with_replacement(range(k, -1, -1), p))

    @functools.cache
    def under(top: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [row for row in rows[: bisect_right(rows, top)] if all(map(operator.ge, top, row))]

    boxes = [(row,) for row in rows]
    for _ in range(q - 1):
        boxes = [box + (row,) for box in boxes for row in under(box[-1])]
    return tuple(boxes)


def parse_pp(text: str) -> PlanePartition:
    """Parse the text encoding; ';' is accepted as a row separator too."""
    rows = [r for r in text.replace(";", "\n").splitlines() if r.strip()]
    try:
        return tuple(tuple(int(x) for x in row.split()) for row in rows)
    except ValueError:
        raise ValueError(f"not a plane partition encoding: {text!r}") from None
