"""The identity checks fail when the map they certify is broken.

The acceptance gate rests on pathbij.verify's checks, so each sweep check is
run once against a corrupted map: the map, as the check sees it, answers one
domain input with the image of another input of the same sector, which keeps
every output valid but breaks injectivity.
"""

import pytest

from pathbij import verify

# (check, bound, map patched in pathbij.verify, input to corrupt, input whose image it gets)
CASES = [
    (verify._check_xi, 2, "xi", ("UU",), ("UD",)),
    (verify._check_nu, 2, "nu", ("UU",), ("UD",)),
    (verify._check_phi_sector, 2, "phi", ("UD", "DU", 0, 0), ("UD", "UD", 0, 0)),
    (verify._check_psi_sector, 2, "psi", ("UD", "DU"), ("UD", "UD")),
    (verify._check_flip_records, 2, "phi", ("UD", "DU", 0, 0), ("UD", "UD", 0, 0)),
    (verify._check_conjugation, 2, "phi_tilde", ("NS",), ("EW",)),
    (verify._check_floor_pairs, 2, "psi_s", ("UD", "DU", 0), ("UD", "UD", 0)),
    (verify._check_origin_walks, 1, "phi_tilde", ("NS",), ("EW",)),
    (verify._check_psi_tilde_s_union, 2, "psi_tilde_s", ("NS", 0), ("EW", 0)),
]


@pytest.mark.parametrize(
    "check, bound, name, victim, donor", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_check_catches_a_corrupted_map(monkeypatch, check, bound, name, victim, donor):
    real = getattr(verify, name)
    assert check(bound) is None
    monkeypatch.setattr(verify, name, lambda *a: real(*(donor if a == victim else a)))
    assert check(bound) is not None
