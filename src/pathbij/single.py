"""Single-path bijections built on the facing-step matching.

xi sends Dyck path prefixes to Grand Dyck paths by flipping unmatched U
steps; xi_s is the ending-height-s refinement. nu is the split-and-reflect
companion bijection; its odd-length images end at height -1, so the
codomain is documented as "ends at -(n mod 2)" throughout.
"""

from __future__ import annotations

from ._base import require
from .matching import Matching, match_faces
from .paths import check_path, flip_steps, heights, negate


def _prefix_matching(p: str, name: str) -> Matching:
    """Matching of a prefix P; its unmatched U steps number h(P)."""
    check_path(p)
    m = match_faces(p)
    # an unmatched D step is a new minimum below the start
    require(not m.unmatched_d, "{} needs a Dyck path prefix", name)
    return m


def xi(p: str) -> str:
    """Flip the leftmost floor(j/2) unmatched U steps, j = h(P).

    Maps prefixes of length n onto Grand Dyck paths (ending height n mod 2)
    and keeps the set of facing pairs unchanged.
    """
    unmatched_u = _prefix_matching(p, "xi").unmatched_u
    return flip_steps(p, unmatched_u[: len(unmatched_u) // 2])


def xi_inv(g: str) -> str:
    """Flip every unmatched D step; inverse of xi on Grand Dyck paths."""
    check_path(g)
    m = match_faces(g)
    end = len(m.unmatched_u) - len(m.unmatched_d)
    require(end == len(g) % 2, "xi_inv needs a Grand Dyck path, got end height {}", end)
    return flip_steps(g, m.unmatched_d)


def xi_s(p: str, s: int) -> str:
    """Flip the leftmost (i-s)/2 unmatched U steps of a prefix with h(P) = i.

    The image ends at height s and has minimum height -(i-s)/2.
    """
    unmatched_u = _prefix_matching(p, "xi_s").unmatched_u
    i = len(unmatched_u)
    require(s >= 0, "need s >= 0, got s={}", s)
    require(i >= s, "need h(P) >= s, got h(P)={}, s={}", i, s)
    require((i - s) % 2 == 0, "need h(P) = s (mod 2), got h(P)={}, s={}", i, s)
    return flip_steps(p, unmatched_u[: (i - s) // 2])


def xi_s_inv(r: str) -> str:
    """Flip every unmatched D step of r; undoes xi_s without extra data.

    The ending height s and the minimum height of r pin down i, so the
    preimage under xi_s is the prefix returned here.
    """
    check_path(r)
    return flip_steps(r, match_faces(r).unmatched_d)


def _reflect(piece: str) -> str:
    # reflection along a vertical axis: reverse the word, swap U and D
    return negate(piece[::-1])


def nu(p: str) -> str:
    """Split at the last point at height floor(h(P)/2), reflect the right
    piece and put it in front."""
    profile = (0,) + heights(p)
    require(min(profile) >= 0, "nu needs a Dyck path prefix")
    half = profile[-1] // 2
    cut = len(p) - profile[::-1].index(half)
    return _reflect(p[cut:]) + p[:cut]


def nu_inv(g: str) -> str:
    """Split at the leftmost lowest point, reflect the left piece and
    append it; inverse of nu on paths ending at -(n mod 2)."""
    profile = (0,) + heights(g)
    target = -(len(g) % 2)
    require(profile[-1] == target, "nu_inv needs end height {}, got {}", target, profile[-1])
    cut = profile.index(min(profile))
    return g[cut:] + _reflect(g[:cut])
