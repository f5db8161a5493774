"""Exact counting: closed formulas and the brute-force censuses they are
checked against.

Every routine returns a plain Python integer computed exactly, in integer
arithmetic except the box product, which goes through Fraction; any
non-integral residue is a hard error rather than a rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the Pascal triangle."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def catalan(m: int) -> int:
    """C_m = binom(2m, m) / (m+1), exactly."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    value, residue = divmod(math.comb(2 * m, m), m + 1)
    if residue:
        raise ArithmeticError("Catalan division left a residue")
    return value


def _det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; all divisions are exact."""
    a = [row[:] for row in rows]
    k = len(a)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(k - 1):
        if a[t][t] == 0:
            for r in range(t + 1, k):
                if a[r][t]:
                    a[t], a[r] = a[r], a[t]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[t][t]
        for r in range(t + 1, k):
            for c in range(t + 1, k):
                a[r][c] = (a[r][c] * pivot - a[r][t] * a[t][c]) // prev
            a[r][t] = 0
        prev = pivot
    return sign * a[-1][-1]


def count_grand_tuples_det(n: int, k: int) -> int:
    """Number of nested k-tuples of Grand Dyck paths of length n:
    det(binom(n, floor(n/2) - i + j)) over i, j = 1..k."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    half = n // 2
    rows = [[binom(n, half - i + j) for j in range(1, k + 1)] for i in range(1, k + 1)]
    return _det_bareiss(rows)


def count_macmahon(p: int, q: int, k: int) -> int:
    """Plane partitions in a p x q x k box: the triple product
    (i+j+l-1)/(i+j+l-2) over 1 <= i <= p, 1 <= j <= q, 1 <= l <= k."""
    if p < 0 or q < 0 or k < 0:
        raise ValueError("p, q, k must be nonnegative")
    value = Fraction(1)
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            for l in range(1, k + 1):
                value *= Fraction(i + j + l - 1, i + j + l - 2)
    if value.denominator != 1:
        raise ArithmeticError("MacMahon product did not cancel to an integer")
    return value.numerator


def count_g2_sum(n: int) -> int:
    """Sum form of the nested Grand Dyck pair count:
    sum over l of multinomial(n; l, l, floor(n/2)-l, ceil(n/2)-l) / (l+1),
    each term taken as binom(n, 2l) C_l binom(n-2l, floor(n/2)-l)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    half = n // 2
    return sum(
        math.comb(n, 2 * l) * catalan(l) * math.comb(n - 2 * l, half - l) for l in range(half + 1)
    )


def count_octant_xaxis(n: int) -> int:
    """Octant walks of length n ending on the x-axis:
    C_m * C_{m+1} for n = 2m, C_{m+1}^2 for n = 2m+1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n // 2
    return catalan(m) * catalan(m + 1) if n % 2 == 0 else catalan(m + 1) ** 2


def count_octant_diag(m: int) -> int:
    """Octant walks of length 2m ending on the diagonal: C_m * C_{m+1}."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return catalan(m) * catalan(m + 1)


def count_octant_total(n: int) -> int:
    """All octant walks of length n: (2m+1) C_m^2 for n = 2m,
    (2m+1) C_m C_{m+1} for n = 2m+1; equals |P2_n| and |G2_n|."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n // 2
    if n % 2 == 0:
        return (2 * m + 1) * catalan(m) ** 2
    return (2 * m + 1) * catalan(m) * catalan(m + 1)


def brute_count(spec) -> int:
    """Cardinality by exhaustive generation, no formulas; refuses a family too big to enumerate."""
    # the enumerators load here, so the closed forms run without them
    from .families import FamilySpec, WalkFamilySpec, enumerate_family, enumerate_walk_family

    if not isinstance(spec, (FamilySpec, WalkFamilySpec)):
        raise TypeError(f"not a family spec: {spec!r}")
    if isinstance(spec, WalkFamilySpec):
        return len(enumerate_walk_family(spec))
    return len(enumerate_family(spec))
