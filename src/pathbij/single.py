"""Single-path bijections built on the facing-step matching.

xi sends Dyck path prefixes to Grand Dyck paths by flipping unmatched U
steps; xi_s is the ending-height-s refinement. nu is the split-and-reflect
companion bijection; its odd-length images end at height -1, so the
codomain is documented as "ends at -(n mod 2)" throughout.
"""

from __future__ import annotations

from ._base import require
from .matching import _up_flips, unmatched_steps
from .paths import check_path, flip_steps, negate


def _xi_s_inv(r: str, grand: bool) -> str:
    """Flip every unmatched D step of r; r must end at n mod 2 with grand,
    else at height >= 0, as every image of xi_s does."""
    unmatched_d, unmatched_u = unmatched_steps(check_path(r))
    end = len(unmatched_u) - len(unmatched_d)
    if grand:
        require(end == len(r) % 2, "xi_inv needs a Grand Dyck path, got end height {}", end)
    require(end >= 0, "xi_s_inv needs end height >= 0, got {}", end)
    return flip_steps(r, unmatched_d)


def xi(p: str) -> str:
    """Flip the leftmost floor(j/2) unmatched U steps, j = h(P).

    Maps prefixes of length n onto Grand Dyck paths (ending height n mod 2)
    and keeps the set of facing pairs unchanged; xi is xi_s with s = j mod 2.
    """
    return flip_steps(check_path(p), _up_flips(p, None))


def xi_inv(g: str) -> str:
    """Flip every unmatched D step; inverse of xi on Grand Dyck paths."""
    return _xi_s_inv(g, True)


def xi_s(p: str, s: int) -> str:
    """Flip the leftmost (i-s)/2 unmatched U steps of a prefix with h(P) = i.

    The image ends at height s and has minimum height -(i-s)/2.
    """
    return flip_steps(check_path(p), _up_flips(p, s))


def xi_s_inv(r: str) -> str:
    """Flip every unmatched D step of r; undoes xi_s without extra data.

    The ending height s and the minimum height of r pin down i, so the
    preimage under xi_s is the prefix returned here. Raises ValueError when
    r ends below height 0, where it is no image of xi_s.
    """
    return _xi_s_inv(r, False)


def _reflect(piece: str) -> str:
    # reflection along a vertical axis: reverse the word, swap U and D
    return negate(piece[::-1])


def nu(p: str) -> str:
    """Split at the last point at height floor(h(P)/2), reflect the right
    piece and put it in front.

    A prefix has no unmatched D step, and its last point at a height v
    below its end h(P) is where its unmatched U step number v+1 starts.
    """
    unmatched_d, unmatched_u = unmatched_steps(check_path(p))
    require(not unmatched_d, "nu needs a Dyck path prefix")
    half = len(unmatched_u) // 2
    cut = unmatched_u[half] - 1 if unmatched_u else len(p)
    return _reflect(p[cut:]) + p[:cut]


def nu_inv(g: str) -> str:
    """Split at the leftmost lowest point, reflect the left piece and
    append it; inverse of nu on paths ending at -(n mod 2).

    The lowest point lies d steps below the start, d the number of
    unmatched D steps, and is first reached by the last of them.
    """
    unmatched_d, unmatched_u = unmatched_steps(check_path(g))
    target, end = -(len(g) % 2), len(unmatched_u) - len(unmatched_d)
    require(end == target, "nu_inv needs end height {}, got {}", target, end)
    cut = unmatched_d[-1] if unmatched_d else 0
    return g[cut:] + _reflect(g[:cut])
