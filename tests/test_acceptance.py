"""Acceptance gate: eleven end-to-end guarantees, one test per criterion.

Criteria 2-11 run the identity checks of pathbij.verify, the same code
`pathbij verify` certifies with, at the bounds given here. Each check
re-derives its identity from exhaustive enumeration or closed forms and
returns None or the first counterexample, so a pass certifies the shipped
behavior, not a fixture. The goldens stay plain asserts. conftest.py prints
a per-criterion verdict line after the run.
"""

from pathbij import verify
from pathbij.counting import (
    count_grand_tuples_det,
    count_octant_diag,
    count_octant_total,
    count_octant_xaxis,
)
from pathbij.single import nu, xi

FIG_IN = "UUDDUUDUUDDUUUDU"


def _all_pass(*calls):
    """Run each (check, *bounds) call in worker processes, as `pathbij
    verify` does, and fail with every counterexample found."""
    table = tuple((fn.__name__, "", fn, tuple(bounds)) for fn, *bounds in calls)
    bad = [r.line() for r in verify._run_checks(table) if not r.passed]
    assert not bad, bad


def test_c01_figure_goldens():
    assert xi(FIG_IN) == "UUDDDUDUUDDDUUDU"
    assert nu(FIG_IN) == "DUDDUUDDUUDUUDDU"


def test_c02_nesting_map_bijection():
    """phi maps every M2(n,i;j) sector onto P2(n,i;j), n <= 10.

    phi_inv o phi is the identity on the whole domain and the image is the
    whole codomain, so phi o phi_inv is the identity on the codomain too;
    no separate reverse pass is needed.
    """
    assert verify._check_phi_sector(10) is None


def test_c03_agreement_map_bijection():
    """psi maps every M2(n,i;j) sector onto G2(n,i;j), n <= 10, with the
    endpoint and depth postconditions. As in c02, the round trip on the
    whole domain and the image equal to the codomain make psi o psi_inv the
    identity on the codomain."""
    assert verify._check_psi_sector(10) is None


def test_c04_five_way_counts():
    """|P2| = |G2| = det through n = 12 by enumeration, and det = box
    product = sum formula."""
    _all_pass(
        (verify._check_tuple_counts, {2: 12}),
        (verify._check_det_vs_box, 12, 2),
        (verify._check_g2_sum, 12),
    )
    assert count_grand_tuples_det(4, 2) == 20


def test_c05_flip_record_identities():
    _all_pass((verify._check_flip_records, 10), (verify._check_flip_heights, 12))


def test_c06_conjugation_and_dictionary():
    _all_pass(
        (verify._check_conjugation, 10),
        (verify._check_step_dictionary, 10),
        (verify._check_shadow, 12),
    )


def test_c07_octant_census():
    assert count_octant_total(2) == 3
    assert count_octant_xaxis(4) == 10
    assert count_octant_diag(2) == 10
    assert count_octant_total(4) == 20
    assert verify._check_octant_census(11) is None


def test_c08_floor_bijection():
    assert verify._check_floor_pairs(10) is None


def test_c09_origin_vs_diagonal():
    assert verify._check_origin_walks(5) is None


def test_c10_plane_partitions():
    """Round trips both ways at p, q <= 3 and k <= 3; box and melon counts
    at p, q <= 4."""
    assert verify._check_pp(3, 3, 4) is None


def test_c11_triple_counts():
    assert verify._check_tuple_counts({3: 8}) is None
