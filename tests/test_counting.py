"""Closed counting formulas: examples, edge cases and the brute census.

The identity suite compares the closed forms with each other and with the
brute census over whole ranges (pathbij.verify, the counting checks)."""

import argparse
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
from pathbij.counting import binom, count
from pathbij.families import enumerate_family

import oracles


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
    assert count_g2_sum(4) == 20
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


def test_macmahon_double_product_is_the_triple_product():
    for p in range(9):
        for q in range(9):
            for k in range(6):
                assert count_macmahon(p, q, k) == oracles.macmahon_triple(p, q, k), (p, q, k)


def test_octant_formula_examples():
    assert count_octant_total(2) == 3
    assert count_octant_total(4) == 20
    assert count_octant_xaxis(4) == 10
    assert count_octant_diag(2) == 10
    assert count_octant_total(0) == 1
    assert count_octant_xaxis(0) == 1
    assert count_octant_diag(0) == 1


def test_octant_total_matches_pair_families():
    """The same number counts octant walks, nested prefix pairs and nested
    grand pairs; the first two are brute-forced independently."""
    for n in range(9):
        total = count_octant_total(n)
        assert brute_count(FamilySpec("P2", n)) == total
        assert brute_count(FamilySpec("G2", n)) == total


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


def test_count_takes_any_spec_and_rejects_what_its_method_does_not_read():
    assert count(FamilySpec("P2", 4)) == count(FamilySpec("P2", 4), "det") == 20
    assert count(WalkFamilySpec("Qend", 6, i=0, j=0), "formula") == 70
    args = argparse.Namespace(family="Pk", n=4, k=3, i=None, j=None, s=None)
    assert count(args, "product") == count(args, "brute") == 50
    with pytest.raises(ValueError, match="nonnegative"):
        count(WalkFamilySpec("O", -1), "formula")
    with pytest.raises(ValueError, match="has no method 'det'; available: brute, formula"):
        count(WalkFamilySpec("O", 4), "det")
    with pytest.raises(ValueError, match="does not read k"):
        count(FamilySpec("G2", 4, k=2), "det")
    with pytest.raises(ValueError, match="family O does not read k"):
        count(argparse.Namespace(family="O", n=4, k=2, i=None, j=None, s=None))
