"""Exact counting: closed formulas, the brute-force census they are checked
against, and count, the one entry point to both that `pathbij count` and
every counting identity of `pathbij verify` call.

Every routine returns a plain Python integer computed exactly, in integer
arithmetic except the box product, which goes through Fraction; any
non-integral residue is a hard error rather than a rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._base import MAX_FORMULA_N, MAX_K, need, reject_unread, require


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
    from .families import enumerate_family  # on use, so the closed forms run without it

    return len(enumerate_family(spec))


def _qend(n: int, i: int, j: int) -> int:
    """Quadrant walks of length 2m returning to the origin: C_m * C_{m+1}."""
    require((i, j) == (0, 0), "the closed form covers walks returning to the origin only")
    return 0 if n % 2 else catalan(n // 2) * catalan(n // 2 + 1)


# the closed forms by (family, method), each a function of n and then of the
# fields it reads, in their order here
_FORMULAS = {
    ("A", "formula"): (lambda n: 2**n, ""),
    ("D", "formula"): (lambda n: 0 if n % 2 else catalan(n // 2), ""),
    ("G", "formula"): (lambda n: binom(n, n // 2), ""),
    ("G2", "sum"): (count_g2_sum, ""),
    ("Gk", "det"): (count_grand_tuples_det, "k"),
    ("Gk", "product"): (lambda n, k: count_macmahon((n + 1) // 2, n // 2, k), "k"),
    ("O", "formula"): (count_octant_total, ""),
    ("Ox", "formula"): (count_octant_xaxis, ""),
    ("Odiag", "formula"): (lambda n: 0 if n % 2 else count_octant_diag(n // 2), ""),
    ("Qend", "formula"): (_qend, "ij"),
}
# the closed forms that count a family besides its own, with the fields they
# fix: P, P2 and Pk are counted as G, G2 and Gk, the sets the bijections map
# them onto, and G2 is Gk at k = 2
_COUNTED_AS = {
    "P": {"G": {}}, "P2": {"G2": {}, "Gk": {"k": 2}}, "G2": {"Gk": {"k": 2}}, "Pk": {"Gk": {}}
}
# the largest n, and k for Gk, that each closed form takes, so that no call
# runs unbounded. formula: MAX_FORMULA_N. det, product and sum: a whole
# call at the limits, k included, takes 0.7 to 1.4 s (2-vCPU Linux,
# Python 3.11), against 0.1 s (det) and 0.3 s (product) at k = 2
_MAX_N_K = {
    "formula": (MAX_FORMULA_N, None),
    "det": (10_000, MAX_K),
    "product": (300, MAX_K),
    "sum": (3_000, None),
}


def count(spec, method: str = "brute") -> int:
    """|family| by method: brute enumerates the family, every other method
    is a closed form of _FORMULAS. spec is any object with the fields
    family and n and, where the count reads them, k, i, j and s: a
    FamilySpec or the arguments of pathbij count. Raises
    ValueError for n < 0, an unknown family or method, an input past the
    method's bound, or a field the count lacks or does not read."""
    family, n = spec.family, spec.n
    require(n >= 0, "--n must be nonnegative, got {}", n)
    fields = {f: getattr(spec, f, None) for f in "kijs"}
    if method == "brute":
        from .families import FamilySpec  # here, so the closed forms run without the enumerators

        return brute_count(FamilySpec(family, n, **fields))
    options = {family: {}, **_COUNTED_AS.get(family, {})}
    found = [(_FORMULAS[t, method], fix) for t, fix in options.items() if (t, method) in _FORMULAS]
    if not found:
        have = sorted({m for t, m in _FORMULAS if t in options} | {"brute"})
        raise ValueError(f"family {family} has no method {method!r}; available: {', '.join(have)}")
    (fn, reads), fixed = found[0]
    max_n, max_k = _MAX_N_K[method]
    require(n <= max_n, "--method {} takes --n up to {}, got {}", method, max_n, n)
    unfixed, k = "".join(c for c in reads if c not in fixed), fields["k"]
    in_range = "k" not in unfixed or k is None or 1 <= k <= max_k
    require(in_range, "--method {} takes --k from 1 to {}, got {}", method, max_k, k)
    reject_unread(spec, "kijs", unfixed, f"--method {method}, which counts a full family,")
    return fn(n, *(fixed[c] if c in fixed else need(spec, c) for c in reads))
