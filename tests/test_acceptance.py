"""Acceptance gate: eleven end-to-end guarantees, one test per criterion.

Criteria 2-11 read one run of pathbij.verify.verify_suite(10, 3), the code
`pathbij verify --max-n 10 --k 3` runs, in worker processes as the command
does (the session-wide `suite_report` fixture in conftest.py). Every bound
lives in verify's table, not here. Each check re-derives
its identity from exhaustive enumeration or closed forms and reports None
or the first counterexample, so a pass certifies the shipped behavior, not
a fixture. Each criterion asserts that its named report lines passed, and
a failing line outside them fails the run too. The goldens stay plain
asserts. conftest.py prints a per-criterion verdict line after the run.
"""

from pathbij.counting import (
    count_grand_tuples_det,
    count_octant_diag,
    count_octant_total,
    count_octant_xaxis,
)
from pathbij.single import nu, xi

FIG_IN = "UUDDUUDUUDDUUUDU"


def _passed(report, *names):
    bad = [report[name].line() for name in names if not report[name].passed]
    assert not bad, bad




def test_c01_figure_goldens():
    assert xi(FIG_IN) == "UUDDDUDUUDDDUUDU"
    assert nu(FIG_IN) == "DUDDUUDDUUDUUDDU"


def test_c02_nesting_map_bijection(suite_report):
    """phi maps every M2(n,i;j) sector onto P2(n,i;j).

    phi_inv o phi is the identity on the whole domain and the image is the
    whole codomain, so phi o phi_inv is the identity on the codomain too;
    no separate reverse pass is needed.
    """
    _passed(suite_report, "phi_sector_bijection")


def test_c03_agreement_map_bijection(suite_report):
    """psi maps every M2(n,i;j) sector onto G2(n,i;j); the endpoint and
    depth postconditions are membership in G2(n,i;j). As in c02, the round
    trip on the whole domain and the image equal to the codomain make
    psi o psi_inv the identity on the codomain."""
    _passed(suite_report, "psi_sector_bijection")


def test_c04_five_way_counts(suite_report):
    """|P2| = |G2| = det by enumeration, and det = box product = sum
    formula."""
    _passed(
        suite_report, "tuple_count_agreement", "det_vs_box_product", "g2_sum_formula"
    )
    assert count_grand_tuples_det(4, 2) == 20


def test_c05_flip_record_identities(suite_report):
    _passed(suite_report, "flip_record_bounds", "flip_height_profile")


def test_c06_conjugation_and_dictionary(suite_report):
    _passed(suite_report, "walk_conjugation", "step_dictionary", "shadow_region")


def test_c07_octant_census(suite_report):
    assert count_octant_total(2) == 3
    assert count_octant_xaxis(4) == 10
    assert count_octant_diag(2) == 10
    assert count_octant_total(4) == 20
    _passed(suite_report, "octant_census_formulas")


def test_c08_floor_bijection(suite_report):
    _passed(suite_report, "floor_pair_bijection")


def test_c09_origin_vs_diagonal(suite_report):
    _passed(suite_report, "origin_walk_bijection")


def test_c10_plane_partitions(suite_report):
    """Round trip and image = melon set, and box and melon counts."""
    _passed(suite_report, "pp_box_roundtrip")


def test_c11_triple_counts(suite_report):
    """|P^3| = |G^3|, the k = 3 rows of the tuple census."""
    _passed(suite_report, "tuple_count_agreement")


def test_every_report_line_passes(suite_report):
    _passed(suite_report, *suite_report)
