"""Facing-step matchings on U/D/H words."""

import itertools

import pytest
from hypothesis import given, strategies as st

from pathbij import Matching, match_faces, tri_heights
from pathbij.matching import check_tripath, unmatched_steps

import oracles

tripaths = st.text(alphabet="UDH", max_size=60)

_STEP = {"U": 1, "D": -1, "H": 0}


def test_check_tripath():
    check_tripath("UDH")
    check_tripath("")
    with pytest.raises(ValueError):
        check_tripath("UDX")


def test_tri_heights_against_oracle():
    assert tri_heights("UHD") == (1, 1, 0)
    for n in range(7):
        for w in oracles.words(n, "UDH"):
            assert list(tri_heights(w)) == oracles.profile(w)[1:]


def test_match_faces_examples():
    m = match_faces("UUDD")
    assert set(m.pairs) == {(2, 3), (1, 4)}
    assert m.pairs == ((1, 4), (2, 3))
    assert m.unmatched_d == () and m.unmatched_u == ()

    m = match_faces("UDDU")
    assert m.pairs == ((1, 2),)
    assert m.unmatched_d == (3,)
    assert m.unmatched_u == (4,)

    m = match_faces("UHD")
    assert m.pairs == ((1, 3),)
    assert m.unmatched_d == () and m.unmatched_u == ()

    m = match_faces("")
    assert m == Matching((), (), ())


def test_match_faces_long_example():
    m = match_faces("UUDDUUDUUDDUUUDU")
    assert m.unmatched_d == ()
    assert m.unmatched_u == (5, 12, 13, 16)


def test_matching_is_immutable_and_hashable():
    m = match_faces("UD")
    with pytest.raises(AttributeError):
        m.pairs = ()
    assert hash(m) == hash(Matching(((1, 2),), (), ()))


def test_stack_scan_equals_tunnel_oracle():
    """Two independent matching definitions must agree.

    The library scans with a stack; the oracle pairs each U with the first
    later return to its starting height. Checked on all plain paths of
    length <= 10 and all U/D/H words of length <= 7.
    """
    for n in range(11):
        for w in oracles.words(n):
            _assert_matches_oracle(w)
    for n in range(8):
        for w in oracles.words(n, "UDH"):
            _assert_matches_oracle(w)


def _assert_matches_oracle(w):
    pairs, ud, uu = oracles.tunnel_matching(w)
    m = match_faces(w)
    assert list(m.pairs) == pairs
    assert list(m.unmatched_d) == ud
    assert list(m.unmatched_u) == uu


@given(tripaths)
def test_random_words_match_oracle(w):
    _assert_matches_oracle(w)


@given(st.text(alphabet="UDH", max_size=256))
def test_flip_kernel_finds_the_unmatched_steps_of_match_faces(w):
    m = match_faces(w)
    assert unmatched_steps(w) == (m.unmatched_d, m.unmatched_u)


def test_unmatched_structure_exhaustive():
    """Exhaustive sweep over all U/D/H words of length <= 12.

    Checks that the unmatched letters, read left to right, form D...DU...U,
    that unmatched D positions are exactly the strict record minima of the
    height profile, and that unmatched_d is empty iff the word never dips
    below its start.
    """
    for n in range(13):
        for t in itertools.product("UDH", repeat=n):
            w = "".join(t)
            m = match_faces(w)
            if m.unmatched_d and m.unmatched_u:
                assert m.unmatched_d[-1] < m.unmatched_u[0]
            assert all(w[b - 1] == "D" for b in m.unmatched_d)
            assert all(w[a - 1] == "U" for a in m.unmatched_u)

            records = []
            h = low = 0
            for pos, c in enumerate(t, start=1):
                h += _STEP[c]
                if h < low:
                    low = h
                    records.append(pos)
            assert list(m.unmatched_d) == records
            assert (m.unmatched_d == ()) == (low >= 0)
        if n >= 10:
            match_faces.cache_clear()
    match_faces.cache_clear()


def test_h_insertion_invariance():
    """Inserting an H shifts later indices by one and changes nothing else."""
    for n in range(9):
        for t in itertools.product("UDH", repeat=n):
            w = "".join(t)
            m = match_faces(w)
            for cut in range(n + 1):
                shifted = match_faces(w[:cut] + "H" + w[cut:])
                bump = lambda a: a + 1 if a > cut else a
                assert shifted.pairs == tuple(
                    (bump(a), bump(b)) for a, b in m.pairs
                )
                assert shifted.unmatched_d == tuple(bump(a) for a in m.unmatched_d)
                assert shifted.unmatched_u == tuple(bump(a) for a in m.unmatched_u)
    match_faces.cache_clear()


@given(tripaths)
def test_unmatched_counts_measure_depth_and_rise(w):
    h = oracles.profile(w)
    m = match_faces(w)
    low = min(h)
    assert len(m.unmatched_d) == -min(low, 0)
    assert len(m.unmatched_u) == h[-1] - min(low, 0)


@given(st.text(alphabet="UDH", max_size=256))
def test_kernel_gives_the_end_the_lowest_point_and_the_last_points(w):
    """The facts the maps read off the flip kernel instead of a profile."""
    h = oracles.profile(w)
    unmatched_d, unmatched_u = unmatched_steps(w)
    assert h[-1] == len(unmatched_u) - len(unmatched_d)
    # the lowest point, and the step that first reaches it
    assert min(h) == -len(unmatched_d)
    assert h.index(min(h)) == (unmatched_d[-1] if unmatched_d else 0)
    if not unmatched_d:
        for v in range(h[-1]):
            last = len(h) - 1 - h[::-1].index(v)
            assert last == unmatched_u[v] - 1


# a walk's x-coordinate is its agreement path, E as U and W as D, and its
# y-coordinate the y-walk, N as U and S as D
_X_PATH = str.maketrans("ENSW", "UHHD")
_Y_PATH = str.maketrans("ENSW", "HUDH")


@given(st.one_of(oracles.quadrant_walks(256), st.text(alphabet="NSEW", max_size=256)))
def test_walk_regions_and_endpoint_come_from_two_kernels(w):
    x_down, x_up = unmatched_steps(w.translate(_X_PATH))
    y_down, y_up = unmatched_steps(w.translate(_Y_PATH))
    pts = oracles.walk_points(w)
    assert pts[-1] == (len(x_up) - len(x_down), len(y_up) - len(y_down))
    assert all(x >= 0 and y >= 0 for x, y in pts) == (not x_down and not y_down)
    assert all(y >= 0 for _, y in pts) == (not y_down)
