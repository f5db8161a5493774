"""Plane walks with N/S/E/W steps and the path-pair correspondence omega.

omega sends a pair of equal-length U/D paths to a walk, one step per
position: UU -> E, UD -> N, DU -> S, DD -> W. After l steps the walk sits at
((h_l(P)+h_l(Q))/2, (h_l(P)-h_l(Q))/2), which turns nesting and endpoint
conditions on pairs into region and endpoint conditions on walks. The maps
phi_tilde, psi_tilde and psi_tilde_s are the walk-level forms of phi, psi
and psi_s, implemented directly on walks, and so are their inverses: they
read the pair maps' derived words on the walk, so a flip position is a walk
position.
"""

from __future__ import annotations

from ._base import map_step_pairs, require, step_pair_table
from .matching import _up_flips, unmatched_steps
from .paths import _flip_below, check_ij, check_path, flip_steps, heights, same_length, swap_fragments

_PAIR_TO_STEP = step_pair_table({"UU": "E", "UD": "N", "DU": "S", "DD": "W"})
_STEP_TO_P = str.maketrans("ENSW", "UUDD")
_STEP_TO_Q = str.maketrans("ENSW", "UDUD")
# swapping N with E and S with W is a flip of Q alone
_FLIP_Q = str.maketrans("NESW", "ENWS")
# the derived words of the pair omega_inv(w), read on w itself: the y-walk
# is the disagreement path (P-Q)/2 and the agreement path is (P+Q)/2
_Y_WALK = str.maketrans("NSEW", "UDHH")
_AGREEMENT = str.maketrans("ENSW", "UHHD")


def check_walk(w: str) -> str:
    if w.encode("ascii", "replace").translate(None, b"NSEW"):
        raise ValueError(f"not an N/S/E/W walk: {w!r}")
    return w


def omega(p: str, q: str) -> str:
    """Encode a pair of paths as a plane walk, one step per position."""
    same_length(p, q)
    check_path(p)
    check_path(q)
    return map_step_pairs(p, q, _PAIR_TO_STEP)


def omega_inv(w: str) -> tuple[str, str]:
    """Decode a plane walk back into its path pair."""
    check_walk(w)
    return w.translate(_STEP_TO_P), w.translate(_STEP_TO_Q)


def _quadrant(w: str) -> tuple[str, int, int]:
    """The agreement path of a quadrant walk and the walk's end (x, y).

    The agreement path is the walk's x-coordinate and the y-walk its
    y-coordinate, so the walk stays in the quadrant when neither has an
    unmatched D step, and then ends at x and y = their unmatched U steps.
    """
    agree = check_walk(w).translate(_AGREEMENT)
    left, rights = unmatched_steps(agree)
    below, ups = unmatched_steps(w.translate(_Y_WALK))
    require(not left and not below, "walk leaves the first quadrant")
    return agree, len(rights), len(ups)


def phi_tilde(w: str) -> str:
    """Walk-level phi: octant image of a quadrant walk.

    phi read on the walk. Step 1 swaps N with E and S with W on every step
    ending strictly above the diagonal: a flip of Q alone on the steps where
    its height, x - y, is below 0, as flip_below does to Q. Step 2 turns
    the S steps of the result that reach a new minimum y-coordinate, the
    unmatched D steps of its y-walk, into N steps. The walk must end weakly
    below the diagonal, where the map is injective and phi_tilde_inv undoes
    it.
    """
    _, x, y = _quadrant(w)
    # above the diagonal step 1 would not be injective: phi_tilde("N") would be "E"
    require(x >= y, "walk must end weakly below the diagonal, got ({}, {})", x, y)
    w1 = _flip_below(w, heights(w.translate(_STEP_TO_Q)), _FLIP_Q)[0]
    return flip_steps(w1, unmatched_steps(w1.translate(_Y_WALK))[0], "NS")


def phi_tilde_inv(w2: str, i: int, j: int) -> str:
    """Inverse of phi_tilde on the octant walks of length n ending in sh(i,j).

    phi_inv read on the walk: under omega the disagreement path is the
    y-walk (N as U, S as D, E and W as H), a flip in both paths turns N into
    S, a flip in Q alone swaps E with N and S with W, and the height of Q is
    x - y. So the leftmost (x+y-i-j)/2 unmatched N steps of the y-walk turn
    into S steps, which leaves the end at x - y = 2x-i-j; then, for each
    l < r = x - i, the steps between the rightmost points at x - y = 2l and
    at x - y = 2l+1 swap back.
    """
    check_ij(len(check_walk(w2)), i, j)
    below, ups = unmatched_steps(w2.translate(_Y_WALK))
    require(not below, "walk goes below the x-axis")
    diag = heights(w2.translate(_STEP_TO_Q))  # x - y after each step
    require(min(diag, default=0) >= 0, "walk crosses above the diagonal")
    y = len(ups)
    x = y + (diag[-1] if diag else 0)
    require(shadow_contains(i, j, x, y), "walk must end in sh({}, {}), got ({}, {})", i, j, x, y)
    # x - y <= i+j, so the y-walk has y >= (x+y-i-j)/2 unmatched N steps
    w1 = flip_steps(w2, ups[: (x + y - i - j) // 2], "NS")
    return swap_fragments(w1, heights(w1.translate(_STEP_TO_Q)), x - i, _FLIP_Q)


def _psi_tilde_s(w: str, s: int | None) -> str:
    """psi_tilde_s, and psi_tilde when s is None: the flip kernel on the
    agreement path of a quadrant walk, E as U, W as D, N and S as H; a flip
    there turns E into W in place. The flips leave the y-walk as it is, so
    the inverse finds its kernel in the cache.
    """
    return flip_steps(w, _up_flips(_quadrant(w)[0], s), "EW")


def _psi_tilde_s_inv(wh: str, bottom: bool) -> str:
    """Apply xi_s_inv to the agreement path of an upper-half-plane walk,
    flipping its unmatched W steps; with bottom, the walk must end at x = 0
    or 1, as psi_tilde images do.

    The walk stays in the upper half-plane when its y-walk has no unmatched
    D step; it then ends at y = the y-walk's unmatched U steps, and at x =
    the agreement path's unmatched U steps less its unmatched D steps.
    """
    below, ups = unmatched_steps(check_walk(wh).translate(_Y_WALK))
    require(not below, "walk leaves the upper half-plane")
    flips, rights = unmatched_steps(wh.translate(_AGREEMENT))
    end = (len(rights) - len(flips), len(ups))
    if bottom:
        require(end[0] in (0, 1), "walk must end at x = 0 or 1, got {}", end)
    else:
        require(end[0] >= 0, "walk must end at x >= 0, got {}", end)
    return flip_steps(wh, flips, "EW")


def psi_tilde(w: str) -> str:
    """Walk-level psi: apply xi to the agreement path, E as U, W as D, N
    and S as H."""
    return _psi_tilde_s(w, None)


def psi_tilde_inv(wh: str) -> str:
    """Inverse of psi_tilde: apply xi_inv to the agreement path."""
    return _psi_tilde_s_inv(wh, True)


def psi_tilde_s(w: str, s: int) -> str:
    """Ending-abscissa-s variant: apply xi_s to the agreement path.

    The image ends at (s, j) and its leftmost point lies on x = -(i-s)/2.
    """
    return _psi_tilde_s(w, s)


def psi_tilde_s_inv(wh: str) -> str:
    """Inverse of psi_tilde_s; s and i are read off the walk itself."""
    return _psi_tilde_s_inv(wh, False)


def shadow_contains(i: int, j: int, x: int, y: int) -> bool:
    """Membership of (x, y) in sh(i,j) = {i-j <= x-y <= i+j <= x+y}."""
    require(i >= j >= 0, "need i >= j >= 0, got i={}, j={}", i, j)
    return i - j <= x - y <= i + j <= x + y
