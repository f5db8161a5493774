"""Plane partitions in a box and their nested-path encoding."""

import itertools

import pytest
from hypothesis import given, strategies as st

from pathbij import (
    count_macmahon,
    enumerate_pp,
    parse_pp,
    path_to_diagram,
    pp_to_tuple,
    tuple_to_pp,
)
from pathbij.partitions import check_pp, diagram_to_path
from pathbij.families import _nested_tuples

import oracles


def test_path_to_diagram_examples():
    assert path_to_diagram("UD", 1, 1) == (0,)
    assert path_to_diagram("DU", 1, 1) == (1,)
    assert path_to_diagram("UDUD", 2, 2) == (1, 0)
    assert path_to_diagram("", 0, 0) == ()
    with pytest.raises(ValueError):
        path_to_diagram("UU", 1, 1)


def test_diagram_to_path_examples():
    assert diagram_to_path((0,), 1, 1) == "UD"
    assert diagram_to_path((1,), 1, 1) == "DU"
    assert diagram_to_path((1, 0), 2, 2) == "UDUD"
    with pytest.raises(ValueError):
        diagram_to_path((0, 1), 2, 2)
    with pytest.raises(ValueError):
        diagram_to_path((3,), 2, 1)
    with pytest.raises(ValueError):
        diagram_to_path((1, 0), 2, 3)


def test_path_diagram_roundtrip():
    for p in range(5):
        for q in range(5):
            for path in itertools.permutations("U" * p + "D" * q):
                word = "".join(path)
                d = path_to_diagram(word, p, q)
                assert diagram_to_path(d, p, q) == word


def test_nesting_is_diagram_containment():
    """The lower path cuts out the larger diagram, and conversely."""
    for p in range(5):
        for q in range(5):
            if p + q > 8:
                continue
            words = sorted(set(itertools.permutations("U" * p + "D" * q)))
            for wa in words:
                a = "".join(wa)
                da = path_to_diagram(a, p, q)
                for wb in words:
                    b = "".join(wb)
                    db = path_to_diagram(b, p, q)
                    contains = all(x >= y for x, y in zip(da, db))
                    assert contains == oracles.weakly_below(a, b)


def test_check_pp():
    check_pp(((2, 1), (1, 1)))
    check_pp((), k=0)
    with pytest.raises(ValueError, match="same length"):
        check_pp(((1, 1), (1,)))
    with pytest.raises(ValueError, match="rows must weakly decrease"):
        check_pp(((1, 2),))
    with pytest.raises(ValueError, match="columns must weakly decrease"):
        check_pp(((1, 1), (2, 1)))
    with pytest.raises(ValueError, match="at most"):
        check_pp(((3,),), k=2)
    with pytest.raises(ValueError, match="nonnegative"):
        check_pp(((-1,),))


def test_tuple_to_pp_examples():
    assert tuple_to_pp(("UD", "DU"), 1, 1) == ((1,),)
    assert tuple_to_pp(("UD", "UD"), 1, 1) == ((0,),)
    assert tuple_to_pp(("DU", "DU"), 1, 1) == ((2,),)
    with pytest.raises(ValueError, match="not weakly below"):
        tuple_to_pp(("DU", "UD"), 1, 1)
    with pytest.raises(ValueError):
        tuple_to_pp(("UU", "UU"), 1, 1)


def test_pp_to_tuple_examples():
    assert pp_to_tuple(((1,),), 2) == ("UD", "DU")
    assert pp_to_tuple(((0,),), 2) == ("UD", "UD")
    assert pp_to_tuple(((2,),), 2) == ("DU", "DU")
    assert pp_to_tuple((), 2, p=3) == ("UUU", "UUU")
    with pytest.raises(ValueError):
        pp_to_tuple((), 2)
    with pytest.raises(ValueError, match="p >= 0"):
        pp_to_tuple((), 2, p=-3)
    with pytest.raises(ValueError):
        pp_to_tuple(((3,),), 2)


def test_pp_roundtrip_both_ways():
    """Arrays to path tuples and back, then tuples to arrays and back,
    exhaustively over boxes with p, q, k <= 3."""
    for p in range(4):
        for q in range(4):
            for k in range(4):
                for a in enumerate_pp(p, q, k):
                    t = pp_to_tuple(a, k, p=p)
                    assert len(t) == k
                    assert tuple_to_pp(t, p, q) == a
                if k == 0:
                    continue
                for t in _nested_tuples(p + q, k, False, p - q):
                    a = tuple_to_pp(t, p, q)
                    assert check_pp(a, k) == a
                    assert pp_to_tuple(a, k, p=p) == t


def test_enumerate_pp_counts():
    assert len(enumerate_pp(1, 1, 1)) == 2
    assert len(enumerate_pp(1, 1, 2)) == 3
    assert enumerate_pp(2, 2, 0) == (((0, 0), (0, 0)),)
    for p in range(4):
        for q in range(4):
            for k in range(4):
                got = enumerate_pp(p, q, k)
                assert len(got) == count_macmahon(p, q, k)
                assert len(set(got)) == len(got)
                assert sorted(got) == list(got)
                for a in got:
                    check_pp(a, k)


def test_enumerate_pp_is_the_filtered_array_set():
    """The box, order included, against every array that fits it, for
    p * q <= 6 and k <= 3."""
    for p in range(7):
        for q in range(7):
            if p * q > 6:
                continue
            for k in range(4):
                assert enumerate_pp(p, q, k) == oracles.naive_pp(p, q, k), (p, q, k)


def test_watermelon_census_matches_macmahon():
    """Nested k-tuples joining (0,0) to (p+q, p-q) are counted by the box
    product formula, including boxes with p < q."""
    for p in range(5):
        for q in range(5):
            for k in range(1, 4):
                census = len(_nested_tuples(p + q, k, False, p - q))
                assert census == count_macmahon(p, q, k)


def test_format_parse_roundtrip():
    a = ((3, 1), (2, 0))
    assert parse_pp("\n".join(" ".join(map(str, row)) for row in a)) == a
    assert parse_pp("3 1\n2 0") == a
    assert parse_pp("3 1; 2 0") == a
    assert parse_pp("") == ()
    with pytest.raises(ValueError):
        parse_pp("3 x")


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_random_pp_roundtrip(p, q, k, data):
    box = enumerate_pp(p, q, k)
    a = data.draw(st.sampled_from(box))
    assert tuple_to_pp(pp_to_tuple(a, k, p=p), p, q) == a
