"""The package namespace loads submodules on first use, and each CLI verb
imports only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathbij

SUBMODULES = ("counting", "families", "matching", "pairs", "partitions", "paths", "single", "walks")
PUBLIC = (
    "FamilySpec", "FlipRecord", "Matching", "WalkFamilySpec",
    "agreement", "brute_count", "catalan", "count_g2_sum",
    "count_grand_tuples_det", "count_macmahon", "count_octant_diag",
    "count_octant_total", "count_octant_xaxis", "disagreement",
    "end_height", "enumerate_family", "enumerate_pp", "enumerate_walk_family",
    "flip_below", "flip_below_inv", "heights",
    "match_faces", "negate", "nu", "nu_inv", "omega", "omega_inv", "parse_pp",
    "path_to_diagram", "phi", "phi_inv", "phi_tilde", "phi_tilde_inv",
    "pp_to_tuple", "psi", "psi_inv", "psi_s", "psi_s_inv", "psi_tilde",
    "psi_tilde_inv", "psi_tilde_s", "psi_tilde_s_inv", "shadow_contains",
    "tri_heights", "tuple_to_pp", "valid_ij", "xi", "xi_inv",
    "xi_s", "xi_s_inv",
)


def test_all_lists_the_public_names_and_their_submodules():
    assert len(PUBLIC) == 50
    assert pathbij.__all__ == sorted(PUBLIC + SUBMODULES)


def test_every_public_name_is_its_submodule_object():
    for name in PUBLIC:
        obj = getattr(pathbij, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.split(".")[1] in SUBMODULES, name
        assert getattr(home, name) is obj, name
    for name in SUBMODULES:
        assert getattr(pathbij, name) is sys.modules[f"pathbij.{name}"]


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from pathbij import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pathbij.__all__)
    assert set(pathbij.__all__) <= set(dir(pathbij))
    with pytest.raises(AttributeError, match="no_such_name"):
        pathbij.no_such_name
    with pytest.raises(ImportError):
        from pathbij import no_such_name  # noqa: F401


# runs the CLI on its arguments, if any, then lists every loaded module
_PROBE = """
import sys
import pathbij, pathbij.cli
if sys.argv[1:]:
    pathbij.cli.main(sys.argv[1:])
print("modules:", *sorted(sys.modules))
"""


def _loaded(*argv):
    src = str(Path(pathbij.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "modules:"
    return set(last[1:])


def test_each_call_loads_only_what_it_runs():
    assert {m for m in _loaded() if m.startswith("pathbij")} == {"pathbij", "pathbij.cli"}

    loaded = _loaded("count", "--family", "O", "--n", "6", "--method", "formula")
    assert "pathbij.counting" in loaded
    for name in ("families", "paths", "walks", "verify", "render"):
        assert f"pathbij.{name}" not in loaded, name
    assert "dataclasses" not in loaded and "fractions" not in loaded
    assert "concurrent.futures" not in loaded and "multiprocessing" not in loaded

    loaded = _loaded("apply", "--map", "xi", "--input", "UUDDUUDUUDDUUUDU")
    assert "pathbij.single" in loaded
    for name in ("pathbij.families", "pathbij.verify", "pathbij.render", "pathbij.counting"):
        assert name not in loaded, name
    assert "json" not in loaded and "dataclasses" not in loaded
    assert "concurrent.futures" not in loaded and "multiprocessing" not in loaded

    # phi_tilde and the phi_tilde_inv of its round trip both run on the walk
    loaded = _loaded("apply", "--map", "phi_tilde", "--input", "NSEN")
    assert "pathbij.walks" in loaded
    assert "pathbij.pairs" not in loaded
    assert "pathbij.families" not in loaded
