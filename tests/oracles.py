"""Slow reference implementations, independent of the package internals.

Everything here recomputes its answer from first principles: heights by
explicit accumulation, matchings from the geometric facing definition, and
family membership by filtering a full ambient product space. These routines
exist so that the fast implementations are never checked against themselves.
The quadrant-walk generator at the end feeds the map tests their long inputs.
"""

import functools
import itertools
from fractions import Fraction

from hypothesis import strategies as st

STEP = {"U": 1, "D": -1, "H": 0}


def profile(word):
    """Heights (h_0, ..., h_n) including the starting h_0 = 0."""
    out = [0]
    for c in word:
        out.append(out[-1] + STEP[c])
    return out


def weakly_below(q, p):
    """h_a(Q) <= h_a(P) for every a: the nesting order."""
    return all(a <= b for a, b in zip(profile(q), profile(p)))


def udkey(words):
    """Sort key for the documented U < D enumeration order."""
    if isinstance(words, str):
        words = (words,)
    return "".join(words).translate(str.maketrans("UD", "01"))


def tunnel_matching(word):
    """Facing pairs by geometry, not by stack scan.

    A U step at position a (bottom at height y) faces the D step at the
    first later position b where the path returns to height y; the
    horizontal segment joining the step midpoints then lies at y + 1/2,
    strictly below the path in between. U steps whose height is never
    revisited stay unmatched, as do D steps no U claims.
    """
    h = profile(word)
    n = len(word)
    pairs = []
    unmatched_u = []
    for a in range(1, n + 1):
        if word[a - 1] != "U":
            continue
        y = h[a - 1]
        b = next((b for b in range(a + 1, n + 1) if h[b] == y), None)
        if b is None:
            unmatched_u.append(a)
        else:
            assert word[b - 1] == "D"
            pairs.append((a, b))
    claimed = {b for _, b in pairs}
    unmatched_d = [
        b for b in range(1, n + 1) if word[b - 1] == "D" and b not in claimed
    ]
    return sorted(pairs), unmatched_d, unmatched_u


def words(n, alphabet="UD"):
    for w in itertools.product(alphabet, repeat=n):
        yield "".join(w)


def naive_single(n, keep):
    """All length-n U/D paths whose profile satisfies keep(h)."""
    return sorted((p for p in words(n) if keep(profile(p))), key=udkey)


def naive_m2(n, i, j):
    out = []
    for p in words(n):
        hp = profile(p)
        if hp[-1] != i + j:
            continue
        for q in words(n):
            hq = profile(q)
            if hq[-1] == i - j and all(-a <= b <= a for a, b in zip(hp, hq)):
                out.append((p, q))
    return sorted(out, key=udkey)


def naive_p2(n, i=None, j=None):
    out = []
    for p in words(n):
        hp = profile(p)
        for q in words(n):
            hq = profile(q)
            if min(hq) < 0 or any(b > a for a, b in zip(hp, hq)):
                continue
            if i is None:
                out.append((p, q))
            elif i - j <= hq[-1] <= i + j <= hp[-1]:
                out.append((p, q))
    return sorted(out, key=udkey)


def naive_g2(n, i, j, s=None):
    """Nested pairs ending at s+j and s-j, s = i mod 2 by default, whose
    lowest agreement height (h(P)+h(Q))/2 is -(i-s)/2."""
    s = i % 2 if s is None else s
    out = []
    for p in words(n):
        hp = profile(p)
        if hp[-1] != j + s:
            continue
        for q in words(n):
            hq = profile(q)
            if hq[-1] != -j + s or any(b > a for a, b in zip(hp, hq)):
                continue
            if min((a + b) // 2 for a, b in zip(hp, hq)) == -((i - s) // 2):
                out.append((p, q))
    return sorted(out, key=udkey)


def naive_tuples(n, k, floor=False, end=None):
    """Nested k-tuples by filtering the full k-fold product."""
    out = []
    for tup in itertools.product(words(n), repeat=k):
        hs = [profile(p) for p in tup]
        if any(
            b > a for upper, lower in zip(hs, hs[1:]) for a, b in zip(upper, lower)
        ):
            continue
        if floor and min(hs[-1]) < 0:
            continue
        if end is not None and any(h[-1] != end for h in hs):
            continue
        out.append(tup)
    return sorted(out, key=udkey)


def naive_pp(p, q, k):
    """Plane partitions in the p x q x k box by filtering every q x p array
    over 0..k for weakly decreasing rows and columns, sorted."""
    out = []
    for cells in itertools.product(range(k + 1), repeat=p * q):
        a = tuple(cells[r * p : (r + 1) * p] for r in range(q))
        rows_fall = all(row[c] >= row[c + 1] for row in a for c in range(p - 1))
        cols_fall = all(a[r][c] >= a[r + 1][c] for r in range(q - 1) for c in range(p))
        if rows_fall and cols_fall:
            out.append(a)
    return tuple(sorted(out))


def macmahon_triple(p, q, k):
    """The box count as the triple product (i+j+l-1)/(i+j+l-2) over the
    cells 1 <= i <= p, 1 <= j <= q, 1 <= l <= k, in exact fractions."""
    value = Fraction(1)
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            for l in range(1, k + 1):
                value *= Fraction(i + j + l - 1, i + j + l - 2)
    assert value.denominator == 1
    return value.numerator


WALK_STEP = {"E": (1, 0), "N": (0, 1), "S": (0, -1), "W": (-1, 0)}


def walk_points(w):
    """Visited points including the origin."""
    x = y = 0
    pts = [(0, 0)]
    for c in w:
        dx, dy = WALK_STEP[c]
        x, y = x + dx, y + dy
        pts.append((x, y))
    return pts


@functools.lru_cache(maxsize=None)
def _all_walks(n):
    # every length-n walk with its visited points, computed once per n
    return tuple((w, walk_points(w)) for w in words(n, "ENSW"))


def naive_walks(n, keep):
    """All length-n N/S/E/W walks whose point list satisfies keep(pts)."""
    out = [w for w, pts in _all_walks(n) if keep(pts)]
    return sorted(out, key=lambda w: w.translate(str.maketrans("ENSW", "0123")))


_MOVES = {"E": (1, 0), "N": (0, 1), "S": (0, -1), "W": (-1, 0)}


def quadrant_walk(length, choose):
    """A walk of length steps in the quadrant x, y >= 0 that ends weakly
    below the diagonal. choose (random.Random.choice, say) picks each step
    from the list of moves, in E, N, S, W order, that keep the walk in the
    quadrant; the walk is then mirrored in the diagonal if it ends above it.

    Under omega_inv the walk is an M2 pair (P, Q) with (i, j) its endpoint,
    and P is a prefix, so one walk feeds every map.
    """
    x = y = 0
    steps = []
    for _ in range(length):
        c = choose([c for c, (dx, dy) in _MOVES.items() if x + dx >= 0 and y + dy >= 0])
        steps.append(c)
        x, y = x + _MOVES[c][0], y + _MOVES[c][1]
    w = "".join(steps)
    return w.translate(str.maketrans("ENWS", "NESW")) if y > x else w


@st.composite
def quadrant_walks(draw, max_size):
    """quadrant_walk of up to max_size steps, each picked by a drawn
    integer in 0..3 taken modulo the number of moves allowed."""
    picks = draw(st.lists(st.integers(0, 3), max_size=max_size))
    pick = iter(picks)
    return quadrant_walk(len(picks), lambda moves: moves[next(pick) % len(moves)])
