"""Reference counts and membership predicates, written without pathbij.

Nothing in this module imports the package under test. The counters are
transfer-matrix dynamic programs: one over height vectors (nested k-tuples
of U/D paths, and the M2/P2/G2 sectors), one over lattice positions (N/S/E/W
walks in a region). The predicates restate the family definitions from the
package documentation directly on the text encodings.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

# Reference counts for large n are stored as residues modulo this prime.
MODULUS = (1 << 61) - 1

_WALK_STEPS = {"E": (1, 0), "N": (0, 1), "S": (0, -1), "W": (-1, 0)}
_PAIR_TO_STEP = {("U", "U"): "E", ("U", "D"): "N", ("D", "U"): "S", ("D", "D"): "W"}
_STEP_TO_PAIR = {step: pair for pair, step in _PAIR_TO_STEP.items()}


# ---------------------------------------------------------------------------
# Paths, pairs and walks


def profile(path: str) -> list[int]:
    """Heights before and after every step, starting with 0."""
    out = [0]
    for c in path:
        out.append(out[-1] + (1 if c == "U" else -1))
    return out


def is_path(text: str, n: int | None = None) -> bool:
    return set(text) <= {"U", "D"} and (n is None or len(text) == n)


def end_height(path: str) -> int:
    return path.count("U") - path.count("D")


def low(path: str) -> int:
    return min(profile(path))


def below(q: str, p: str) -> bool:
    """Q weakly below P at every abscissa."""
    return len(q) == len(p) and all(b <= a for a, b in zip(profile(p), profile(q)))


def agreement_low(p: str, q: str) -> int:
    """Lowest height of (P+Q)/2, the start included."""
    return min((a + b) // 2 for a, b in zip(profile(p), profile(q)))


def valid_ij(n: int) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(n + 1)
        for j in range(i + 1)
        if i + j <= n and (i + j - n) % 2 == 0
    ]


def in_p2(p: str, q: str, i: int, j: int) -> bool:
    return (
        below(q, p)
        and low(q) >= 0
        and i - j <= end_height(q) <= i + j <= end_height(p)
    )


def in_g2s(p: str, q: str, i: int, j: int, s: int) -> bool:
    """Nested pair ending at (s+j, s-j) whose agreement path dips to -(i-s)/2."""
    return (
        below(q, p)
        and end_height(p) == s + j
        and end_height(q) == s - j
        and agreement_low(p, q) == -((i - s) // 2)
    )


def in_g2(p: str, q: str, i: int, j: int) -> bool:
    return in_g2s(p, q, i, j, i % 2)


def encode_walk(p: str, q: str) -> str:
    return "".join(_PAIR_TO_STEP[a, b] for a, b in zip(p, q))


def decode_walk(w: str) -> tuple[str, str]:
    pairs = [_STEP_TO_PAIR[c] for c in w]
    return "".join(a for a, _ in pairs), "".join(b for _, b in pairs)


def walk_points(w: str) -> list[tuple[int, int]]:
    x = y = 0
    out = [(0, 0)]
    for c in w:
        dx, dy = _WALK_STEPS[c]
        x += dx
        y += dy
        out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# Plane partitions


def pp_to_paths(a, k: int, p: int, q: int) -> tuple[str, ...]:
    """Boundary paths of the level sets of a, lowest level last.

    Layer l (1-based) is the diagram of the cells with entry >= k+1-l; its
    path runs along the rectangle's boundary: U for a column edge, D for a
    row edge, reading rows from the first.
    """
    paths = []
    for l in range(1, k + 1):
        parts = [sum(1 for x in row if x >= k + 1 - l) for row in a]
        steps = []
        prev = p
        for part in parts:
            steps.append("U" * (prev - part) + "D")
            prev = part
        steps.append("U" * prev)
        paths.append("".join(steps))
    return tuple(paths)


def is_plane_partition(a, p: int, q: int, k: int) -> bool:
    return (
        len(a) == q
        and all(len(row) == p and all(0 <= x <= k for x in row) for row in a)
        and all(row[c] >= row[c + 1] for row in a for c in range(p - 1))
        and all(a[r][c] >= a[r + 1][c] for r in range(q - 1) for c in range(p))
    )


# ---------------------------------------------------------------------------
# Transfer matrix over height vectors


def tuple_layers(n: int, k: int, floor: bool = False, modulus: int | None = None):
    """Yield, for m = 0..n, the number of nested k-tuples of length m
    reaching each height vector (h_1 >= ... >= h_k); with floor, h_k >= 0."""
    steps = list(itertools.product((1, -1), repeat=k))
    layer = {(0,) * k: 1}
    yield layer
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = defaultdict(int)
        for h, c in layer.items():
            for d in steps:
                g = tuple(a + b for a, b in zip(h, d))
                if all(g[t] <= g[t - 1] for t in range(1, k)) and not (floor and g[-1] < 0):
                    nxt[g] += c
        layer = {h: c % modulus for h, c in nxt.items()} if modulus else dict(nxt)
        yield layer


def tuple_census(n: int, k: int) -> dict[str, int]:
    """|Ak_n|, |Pk_n| and |Gk_n| (every path ends at n mod 2)."""
    *_, last = tuple_layers(n, k)
    *_, floored = tuple_layers(n, k, floor=True)
    d = n % 2
    return {
        "Ak": sum(last.values()),
        "Pk": sum(floored.values()),
        "Gk": last.get((d,) * k, 0),
    }


def grand_tuple_counts(n_max: int, k: int, modulus: int | None = None) -> list[int]:
    """|Gk_n| for n = 0..n_max, meeting in the middle.

    Reversing the second half of a tuple that returns to (d, ..., d) gives
    a nested tuple from (d, ..., d), so |Gk_{2m}| = sum_h f_m(h)^2 and
    |Gk_{2m+1}| = sum_h f_m(h) f_{m+1}(h - 1), f_m counting tuples of
    length m from the origin to h.
    """
    out = [0] * (n_max + 1)
    prev = None
    for m, layer in enumerate(tuple_layers((n_max + 1) // 2, k, modulus=modulus)):
        if 2 * m <= n_max:
            out[2 * m] = sum(c * c for c in layer.values())
        if prev is not None and 2 * m - 1 <= n_max:
            out[2 * m - 1] = sum(
                c * layer.get(tuple(x - 1 for x in h), 0) for h, c in prev.items()
            )
        prev = layer
    return [c % modulus for c in out] if modulus else out


def dyck_counts(m_max: int, modulus: int | None = None) -> list[int]:
    """C_m for m = 0..m_max as the number of Dyck paths of length 2m."""
    out = []
    for length, layer in enumerate(tuple_layers(2 * m_max, 1, floor=True, modulus=modulus)):
        if length % 2 == 0:
            out.append(layer.get((0,), 0))
    return out


def pair_sectors(n: int) -> dict[tuple[int, int], tuple[int, int, int]]:
    """(|M2(n,i;j)|, |P2(n,i;j)|, |G2(n,i;j)|) for every valid (i, j).

    The state of a nested pair is (h(P), h(Q), lowest h(Q), lowest
    agreement height); every sector is a set of end states.
    """
    layer = {(0, 0, 0, 0): 1}
    for _ in range(n):
        nxt: dict[tuple[int, int, int, int], int] = defaultdict(int)
        for (hp, hq, lq, la), c in layer.items():
            for dp in (1, -1):
                for dq in (1, -1):
                    np_, nq = hp + dp, hq + dq
                    if nq <= np_:
                        nxt[np_, nq, min(lq, nq), min(la, (np_ + nq) // 2)] += c
        layer = nxt
    out = {}
    for i, j in valid_ij(n):
        d = i % 2
        m2 = p2 = g2 = 0
        for (hp, hq, lq, la), c in layer.items():
            if la >= 0 and (hp, hq) == (i + j, i - j):
                m2 += c
            if lq >= 0 and i - j <= hq <= i + j <= hp:
                p2 += c
            if (hp, hq) == (j + d, d - j) and la == -(i // 2):
                g2 += c
        out[i, j] = (m2, p2, g2)
    return out


# ---------------------------------------------------------------------------
# Transfer matrix over lattice positions


def octant(x: int, y: int) -> bool:
    return x >= y >= 0


def quadrant(x: int, y: int) -> bool:
    return x >= 0 and y >= 0


def walk_layers(n: int, inside, modulus: int | None = None):
    """Yield, for m = 0..n, the number of walks of length m from the origin
    that stay inside the region, by end point."""
    layer = {(0, 0): 1}
    yield layer
    for _ in range(n):
        nxt: dict[tuple[int, int], int] = defaultdict(int)
        for (x, y), c in layer.items():
            for dx, dy in _WALK_STEPS.values():
                if inside(x + dx, y + dy):
                    nxt[x + dx, y + dy] += c
        layer = {pt: c % modulus for pt, c in nxt.items()} if modulus else dict(nxt)
        yield layer


def octant_counts(n_max: int, modulus: int | None = None) -> dict[str, list[int]]:
    """|O_n|, |Ox_n| (ends on y = 0) and |Odiag_n| (ends on y = x), n <= n_max."""
    out: dict[str, list[int]] = {"O": [], "Ox": [], "Odiag": []}
    for layer in walk_layers(n_max, octant, modulus):
        out["O"].append(sum(layer.values()))
        out["Ox"].append(sum(c for (x, y), c in layer.items() if y == 0))
        out["Odiag"].append(sum(c for (x, y), c in layer.items() if x == y))
    if modulus:
        out = {name: [c % modulus for c in vals] for name, vals in out.items()}
    return out


def origin_quadrant_counts(n_max: int) -> list[int]:
    """|Qend_n(0,0)|: quadrant walks of length n returning to the origin."""
    return [layer.get((0, 0), 0) for layer in walk_layers(n_max, quadrant)]
