"""Closed counting formulas against each other and against brute censuses."""

import time

import pytest

from pathbij import (
    FamilySpec,
    WalkFamilySpec,
    brute_count,
    catalan,
    count_g2_sum,
    count_grand_tuples_det,
    count_macmahon,
    count_octant_diag,
    count_octant_total,
    count_octant_xaxis,
)
from pathbij.counting import binom
from pathbij.families import enumerate_family


def test_binom():
    assert binom(4, 2) == 6
    assert binom(0, 0) == 1
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-2, 0) == 0


def test_catalan_sequence():
    assert [catalan(m) for m in range(10)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862,
    ]
    with pytest.raises(ValueError):
        catalan(-1)


def test_determinant_examples():
    assert count_grand_tuples_det(4, 2) == 20
    assert count_grand_tuples_det(2, 2) == 3
    assert count_grand_tuples_det(0, 3) == 1
    with pytest.raises(ValueError):
        count_grand_tuples_det(4, 0)
    with pytest.raises(ValueError):
        count_grand_tuples_det(-1, 1)


def test_determinant_collapses_to_central_binomial_at_k1():
    for n in range(13):
        assert count_grand_tuples_det(n, 1) == binom(n, n // 2)


def test_macmahon_examples():
    assert count_macmahon(1, 1, 1) == 2
    assert count_macmahon(1, 1, 2) == 3
    assert count_macmahon(2, 2, 2) == 20
    assert count_macmahon(3, 3, 3) == 980
    assert count_macmahon(4, 4, 3) == 24696
    assert count_macmahon(0, 5, 7) == 1
    with pytest.raises(ValueError):
        count_macmahon(-1, 1, 1)


def test_macmahon_is_symmetric_in_the_box_sides():
    import itertools

    for p, q, k in ((1, 2, 3), (2, 2, 4), (3, 1, 5)):
        counts = {
            count_macmahon(*perm) for perm in itertools.permutations((p, q, k))
        }
        assert len(counts) == 1


def test_determinant_equals_macmahon():
    for n in range(21):
        for k in range(1, 5):
            assert count_grand_tuples_det(n, k) == count_macmahon(
                (n + 1) // 2, n // 2, k
            )


def test_sum_formula_equals_determinant():
    assert count_g2_sum(4) == 20
    for n in range(21):
        assert count_g2_sum(n) == count_grand_tuples_det(n, 2)


def test_octant_formula_examples():
    assert count_octant_total(2) == 3
    assert count_octant_total(4) == 20
    assert count_octant_xaxis(4) == 10
    assert count_octant_diag(2) == 10
    assert count_octant_total(0) == 1
    assert count_octant_xaxis(0) == 1
    assert count_octant_diag(0) == 1


def test_octant_formulas_against_brute_census():
    for n in range(9):
        assert brute_count(WalkFamilySpec("O", n)) == count_octant_total(n)
        assert brute_count(WalkFamilySpec("Ox", n)) == count_octant_xaxis(n)
        if n % 2 == 0:
            assert brute_count(WalkFamilySpec("Odiag", n)) == count_octant_diag(
                n // 2
            )
        else:
            assert brute_count(WalkFamilySpec("Odiag", n)) == 0


def test_octant_total_matches_pair_families():
    """The same number counts octant walks, nested prefix pairs and nested
    grand pairs; the first two are brute-forced independently."""
    for n in range(9):
        total = count_octant_total(n)
        assert brute_count(FamilySpec("P2", n)) == total
        assert brute_count(FamilySpec("G2", n)) == total


def test_nested_tuple_counts_match_determinant():
    for k in (1, 2, 3):
        for n in range(9 - k):
            det = count_grand_tuples_det(n, k)
            assert brute_count(FamilySpec("Gk", n, k=k)) == det
            assert brute_count(FamilySpec("Pk", n, k=k)) == det


def test_quadrant_origin_walks_cor_count():
    for m in range(4):
        assert brute_count(WalkFamilySpec("Qend", 2 * m, i=0, j=0)) == catalan(
            m
        ) * catalan(m + 1)


def test_brute_count_examples():
    assert brute_count(FamilySpec("P2", 4)) == 20
    assert brute_count(FamilySpec("A", 3)) == 8
    hij = brute_count(WalkFamilySpec("Hij", 4, i=2, j=0))
    assert hij == brute_count(FamilySpec("G2", 4, i=2, j=0)) == 9


def test_brute_count_budget_and_type_errors():
    """The enumeration budget bounds the work of a family, whatever its n
    or k: 2^19 paths fit and 2^20 do not, and neither 5,200,300 nested pairs
    of length 12 nor nested 10-tuples of length 200 are built."""
    assert brute_count(FamilySpec("A", 19)) == 2**19
    with pytest.raises(ValueError, match="too large"):
        brute_count(FamilySpec("A", 20))
    with pytest.raises(ValueError, match="too large"):
        enumerate_family(FamilySpec("Ak", 12, k=2))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        brute_count(FamilySpec("Gk", 200, k=10))
    assert time.perf_counter() - start < 30
    with pytest.raises(ValueError, match="k <= 10"):
        enumerate_family(FamilySpec("Pk", 1, k=11))
    with pytest.raises(TypeError):
        brute_count("A4")
