"""Lattice path bijections, plane walk correspondences, and exact counting.

The package loads each submodule on first use (PEP 562): `pathbij.xi` or
`from pathbij import xi` imports `pathbij.single` then, so a process pays
only for the modules it touches.
"""

import importlib

# submodule -> the public names it provides to the package namespace
_EXPORTS = {
    "counting": (
        "brute_count",
        "catalan",
        "count_g2_sum",
        "count_grand_tuples_det",
        "count_macmahon",
        "count_octant_diag",
        "count_octant_total",
        "count_octant_xaxis",
    ),
    "families": ("FamilySpec", "WalkFamilySpec", "enumerate_family", "enumerate_walk_family"),
    "matching": ("Matching", "match_faces", "tri_heights"),
    "pairs": (
        "FlipRecord",
        "agreement",
        "disagreement",
        "flip_below",
        "flip_below_inv",
        "phi",
        "phi_inv",
        "psi",
        "psi_inv",
        "psi_s",
        "psi_s_inv",
    ),
    "partitions": (
        "enumerate_pp",
        "parse_pp",
        "path_to_diagram",
        "pp_to_tuple",
        "tuple_to_pp",
    ),
    "paths": (
        "end_height",
        "heights",
        "negate",
        "valid_ij",
    ),
    "single": ("nu", "nu_inv", "xi", "xi_inv", "xi_s", "xi_s_inv"),
    "walks": (
        "omega",
        "omega_inv",
        "phi_tilde",
        "phi_tilde_inv",
        "psi_tilde",
        "psi_tilde_inv",
        "psi_tilde_s",
        "psi_tilde_s_inv",
        "shadow_contains",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the public names and the submodules that provide them
__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
