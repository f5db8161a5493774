"""The bijections as map/inverse pairs, one row per pair, read by `pathbij
apply` and by the bijection checks of pathbij.verify. call looks each map
up in the package namespace when it runs, so a map patched there is the
map every caller uses."""

from __future__ import annotations

from collections import namedtuple

import pathbij

# forward, the kind of object it takes (path, pair, walk, paths: a tuple of
# paths, pp: a plane partition), the parameters it reads after the object in
# call order; then the same for the inverse. pp_to_tuple reads the layer
# count k and the path length n, which stands in for the column count p,
# needed only when the array has no rows; tuple_to_pp reads the box sides
ROWS = (
    ("xi", "path", "", "xi_inv", "path", ""),
    ("xi_s", "path", "s", "xi_s_inv", "path", ""),
    ("nu", "path", "", "nu_inv", "path", ""),
    ("phi", "pair", "ij", "phi_inv", "pair", "ij"),
    ("psi", "pair", "", "psi_inv", "pair", ""),
    ("psi_s", "pair", "s", "psi_s_inv", "pair", ""),
    ("omega", "pair", "", "omega_inv", "walk", ""),
    ("phi_tilde", "walk", "", "phi_tilde_inv", "walk", "ij"),
    ("psi_tilde", "walk", "", "psi_tilde_inv", "walk", ""),
    ("psi_tilde_s", "walk", "s", "psi_tilde_s_inv", "walk", ""),
    ("pp_to_tuple", "pp", "kn", "tuple_to_pp", "paths", "pq"),
)

Map = namedtuple("Map", "kind reads inverse")
MAPS = {
    name: Map(kind, reads, inverse)
    for f, f_kind, f_reads, g, g_kind, g_reads in ROWS
    for name, kind, reads, inverse in ((f, f_kind, f_reads, g), (g, g_kind, g_reads, f))
}


def call(name: str, x, *params):
    """The image of x under the map name, given the parameters it reads, and
    the third value a map from pairs to pairs returns with it, else None."""
    kind, _, inverse = MAPS[name]
    out = getattr(pathbij, name)(*(x if kind == "pair" else (x,)), *params)
    if kind == MAPS[inverse].kind == "pair":
        return out[:2], out[2]
    return out, None
