"""Bijections on pairs of paths: the flip-below step, phi and psi.

The pair sets are parameterized by (i, j) with i >= j >= 0, i+j <= n and
i+j = n (mod 2):

  M2(n,i;j): -P <= Q <= P with h(P) = i+j, h(Q) = i-j
  P2(n,i;j): P >= Q >= 0 with i-j <= h(Q) <= i+j <= h(P)
  G2(n,i;j): nested pairs with ell(P,Q) = -floor(i/2), h(P) = j + d,
             h(Q) = -j + d, where d = i mod 2; ell(P,Q) is the lowest
             height of the agreement path (P+Q)/2, its start included

phi maps M2 onto P2 through an intermediate flip of Q's below-axis steps
followed by flipping the unmatched D steps of the disagreement path in both
coordinates; psi maps M2 onto G2 by flipping unmatched U steps of the
agreement path in both coordinates.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from ._base import map_step_pairs, require, step_pair_table
from .matching import _up_flips, unmatched_steps
from .paths import (
    _NEGATE,
    _flip_below,
    _swap_fragments,
    check_ij,
    check_path,
    end_height,
    flip_steps,
    heights,
    read_ij,
    same_length,
)


def _profiles(p: str, q: str):
    """(n, h(P) profile, h(Q) profile) of an equal-length pair."""
    return same_length(p, q), heights(p), heights(q)


def _end(h: tuple[int, ...]) -> int:
    return h[-1] if h else 0


def _below(lower, upper) -> bool:
    """Whether each height of lower is at most the one of upper."""
    return all(map(operator.le, lower, upper))


def _require_nested(nested: bool) -> None:
    require(nested, "Q is not weakly below P")


# step pair (P, Q) -> step of (P-Q)/2 and of (P+Q)/2
_DISAGREE = step_pair_table({"UD": "U", "DU": "D", "UU": "H", "DD": "H"})
_AGREE = step_pair_table({"UU": "U", "DD": "D", "UD": "H", "DU": "H"})


def _disagreement(p: str, q: str) -> str:
    return map_step_pairs(p, q, _DISAGREE)


def _agreement(p: str, q: str) -> str:
    return map_step_pairs(p, q, _AGREE)


def disagreement(p: str, q: str) -> str:
    """The path (P-Q)/2: U where (U,D), D where (D,U), H where the steps agree."""
    same_length(p, q)
    check_path(p), check_path(q)
    return _disagreement(p, q)


def agreement(p: str, q: str) -> str:
    """The path (P+Q)/2: the common step where P and Q agree, H elsewhere."""
    same_length(p, q)
    check_path(p), check_path(q)
    return _agreement(p, q)


def _check_m2(n: int, ep: int, eq: int, i: int, j: int, nested: bool, above: bool) -> None:
    """Raise naming the first violated M2(n,i;j) predicate, from the end
    heights of P and Q and whether Q <= P (nested) and -P <= Q (above)."""
    check_ij(n, i, j)
    require(ep == i + j, "h(P) = {}, need i+j = {}", ep, i + j)
    require(eq == i - j, "h(Q) = {}, need i-j = {}", eq, i - j)
    _require_nested(nested)
    require(above, "-P is not weakly below Q")


def _check_p2(n: int, hp: tuple[int, ...], hq: tuple[int, ...], i: int, j: int) -> None:
    """Raise naming the first violated P2(n,i;j) predicate."""
    check_ij(n, i, j)
    require(min(hq, default=0) >= 0, "Q goes below the x-axis")
    _require_nested(_below(hq, hp))
    ep, eq = _end(hp), _end(hq)
    require(i - j <= eq, "h(Q) = {}, need at least i-j = {}", eq, i - j)
    require(eq <= i + j, "h(Q) = {}, need at most i+j = {}", eq, i + j)
    require(i + j <= ep, "h(P) = {}, need at least i+j = {}", ep, i + j)


class FlipRecord(NamedTuple):
    """Positions touched by the flip steps, for invariant introspection.

    chi: positions flipped in both coordinates (empty when not applicable);
    lower_returns: U steps of Q ending exactly on the x-axis; r = their count.
    """

    chi: tuple[int, ...]
    lower_returns: tuple[int, ...]
    r: int


def flip_below(q: str) -> tuple[str, FlipRecord]:
    """Flip the steps of Q that end strictly below the x-axis.

    Requires h(Q) >= 0. The result is a prefix with h = h(Q) + 2r, where the
    r lower returns of Q are its U steps ending at height 0 exactly.
    """
    h = heights(q)
    require(_end(h) >= 0, "flip_below needs h(Q) >= 0, got {}", _end(h))
    qp, returns = _flip_below(q, h, _NEGATE)
    return qp, FlipRecord((), returns, len(returns))


def _flip_below_inv(qp: str, h: tuple[int, ...], r: int) -> tuple[str, tuple[int, ...]]:
    """Q and its lower returns: in Q each fragment flipped back ends at
    height -1, and the step after it rises to the x-axis."""
    require(min(h, default=0) >= 0, "flip_below_inv needs a prefix")
    end = _end(h)
    require(end >= 2 * r, "need h(Q') >= 2r, got h(Q') = {}, r = {}", end, r)
    return _swap_fragments(qp, h, r, _NEGATE)


def flip_below_inv(qp: str, r: int) -> str:
    """Recover Q from Q' and its number of lower returns.

    For l = 0..r-1, flips the fragment of Q' between the rightmost point at
    height 2l and the rightmost point at height 2l+1; those fragments are
    disjoint and in left-to-right order.
    """
    require(r >= 0, "need r >= 0, got {}", r)
    return _flip_below_inv(qp, heights(qp), r)[0]


def _flip_both(p: str, q: str, flips: tuple[int, ...]):
    return flip_steps(p, flips), flip_steps(q, flips), flips


def phi(p: str, q: str, i: int | None = None, j: int | None = None):
    """Map an M2(n,i;j) pair to its P2(n,i;j) image.

    Q is first straightened by flip_below; then chi, the unmatched D steps of
    the disagreement path (P-Q')/2, is flipped in both coordinates. Returns
    (P~, Q~, record). i and j are inferred from the ending heights when
    omitted.
    """
    n, hp, hq = _profiles(p, q)
    ep, eq = _end(hp), _end(hq)
    if i is None and j is None:
        i, j = read_ij(ep, eq)
    # -P <= Q: no height of P + Q is below 0
    _check_m2(n, ep, eq, i, j, _below(hq, hp), min(map(operator.add, hp, hq), default=0) >= 0)
    qp, returns = _flip_below(q, hq, _NEGATE)
    chi = unmatched_steps(_disagreement(p, qp))[0]
    return flip_steps(p, chi), flip_steps(qp, chi), FlipRecord(chi, returns, len(returns))


def phi_inv(pt: str, qt: str, i: int, j: int):
    """Map a P2(n,i;j) pair back to its M2(n,i;j) preimage.

    chi is the leftmost (h(P~)-i-j)/2 unmatched U steps of (P~-Q~)/2; after
    flipping it in both coordinates, Q is recovered by undoing r fragment
    flips with r = (h(Q') - i + j)/2. Returns (P, Q, record).
    """
    n, hp, hq = _profiles(pt, qt)
    _check_p2(n, hp, hq, i, j)
    c = (_end(hp) - i - j) // 2
    unmatched_u = unmatched_steps(_disagreement(pt, qt))[1]
    require(
        len(unmatched_u) >= c,
        "need {} unmatched U steps in the disagreement path, found {}",
        c,
        len(unmatched_u),
    )
    chi = unmatched_u[:c]
    p = flip_steps(pt, chi)
    qp = flip_steps(qt, chi)
    hqp = heights(qp)
    r = (_end(hqp) - i + j) // 2
    q, returns = _flip_below_inv(qp, hqp, r)
    return p, q, FlipRecord(chi, returns, r)


def _psi_s(p: str, q: str, s: int | None):
    """psi_s, and psi when s is None: the flip kernel on the agreement path,
    a prefix ending at height i for an M2(n,i;j) pair.

    Q <= P and -P <= Q hold when the disagreement and the agreement path
    have no unmatched D step, so the M2 check reads their kernels, not
    profiles. The flips leave the disagreement path as it is, so the
    inverse finds its kernel in the cache.
    """
    n = same_length(p, q)
    ep, eq = end_height(p), end_height(q)
    agree = _agreement(p, q)
    nested = not unmatched_steps(_disagreement(p, q))[0]
    above = not unmatched_steps(agree)[0]
    _check_m2(n, ep, eq, *read_ij(ep, eq), nested, above)
    return _flip_both(p, q, _up_flips(agree, s))


def _psi_s_inv(ps: str, qs: str, bottom: bool):
    """Flip every unmatched D step of the agreement path in both coordinates.

    The agreement path ends at s and has -ell unmatched D steps, its new
    minima, so i = s + 2 * (-ell).
    """
    n = same_length(ps, qs)
    s, j = read_ij(end_height(ps), end_height(qs))
    require(s >= 0, "agreement path must end at height >= 0, got {}", s)
    require(j >= 0, "Q must end weakly below P")
    _require_nested(not unmatched_steps(_disagreement(ps, qs))[0])
    flips = unmatched_steps(_agreement(ps, qs))[0]
    if bottom:  # a psi image: s = i mod 2
        require(s <= 1, "agreement path must end at 0 or 1, got {}", s)
    check_ij(n, 2 * len(flips) + s, j)  # the preimage's (i, j) is a sector
    return _flip_both(ps, qs, flips)


def psi(p: str, q: str):
    """Map an M2(n,i;j) pair to its G2(n,i;j) image.

    Flips, in both coordinates, the leftmost floor(i/2) unmatched U steps of
    the agreement path (P+Q)/2: psi is psi_s with s = i mod 2. Returns
    (P^, Q^, flipped positions).
    """
    return _psi_s(p, q, None)


def psi_inv(ph: str, qh: str):
    """Map a G2(n,i;j) pair back to M2(n,i;j); i is recovered internally.

    i = 2 * (-ell) + d, where d is the agreement path's ending height (0 or
    1); the flips are all unmatched D steps of the agreement path.
    """
    return _psi_s_inv(ph, qh, True)


def psi_s(p: str, q: str, s: int):
    """The ending-height-s variant of psi: apply xi_s to the agreement path.

    Flips the leftmost (i-s)/2 unmatched U steps of (P+Q)/2 in both
    coordinates; the images end at heights s+j and s-j and their agreement
    path has minimum -(i-s)/2.
    """
    return _psi_s(p, q, s)


def psi_s_inv(ps: str, qs: str):
    """Undo psi_s; s and i are read off the pair itself.

    s is the agreement path's ending height, i = s + 2 * (-ell), and the
    flips are all unmatched D steps of the agreement path. Raises
    ValueError for a pair that is no psi_s image, such as one with i < j.
    """
    return _psi_s_inv(ps, qs, False)
