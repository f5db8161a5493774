"""Plane walks: the encoding omega and the walk-level bijections."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pathbij import (
    WalkFamilySpec,
    enumerate_walk_family,
    heights,
    omega,
    omega_inv,
    phi_inv,
    phi_tilde,
    phi_tilde_inv,
    psi_s,
    psi_s_inv,
    psi_tilde,
    psi_tilde_inv,
    psi_tilde_s,
    psi_tilde_s_inv,
    shadow_contains,
    valid_ij,
)
from pathbij.walks import check_walk

import oracles

walks = st.text(alphabet="ENSW", max_size=30)


def test_check_walk():
    check_walk("ENSW")
    check_walk("")
    with pytest.raises(ValueError):
        check_walk("ENU")


def test_omega_examples():
    assert omega("UU", "UD") == "EN"
    assert omega("UD", "DU") == "NS"
    assert omega("", "") == ""
    with pytest.raises(ValueError):
        omega("U", "UD")


def test_omega_inv_examples():
    assert omega_inv("") == ("", "")
    assert omega_inv("NS") == ("UD", "DU")


def test_omega_is_a_bijection_onto_walks():
    for n in range(9):
        seen = set()
        for p in oracles.words(n):
            for q in oracles.words(n):
                w = omega(p, q)
                seen.add(w)
                assert omega_inv(w) == (p, q)
        assert len(seen) == 4**n


def test_step_dictionary():
    """Walk-side restatements of path facts: position coordinates are the
    half-sum and half-difference of the two height profiles, so nesting,
    floors and endpoints translate as the seven documented equivalences."""
    for n in range(8):
        for p in oracles.words(n):
            hp = (0,) + heights(p)
            for q in oracles.words(n):
                hq = (0,) + heights(q)
                w = omega(p, q)
                pts = oracles.walk_points(w)
                assert all(
                    2 * x == a + b and 2 * y == a - b
                    for (x, y), a, b in zip(pts, hp, hq)
                )
                x, y = pts[-1]
                # the seven Table rows, both sides computed independently
                assert (all(a >= b for a, b in zip(hp, hq))) == (
                    min(yy for _, yy in pts) >= 0
                )
                assert (min(hq) >= 0) == (all(xx >= yy for xx, yy in pts))
                assert (all(-a <= b for a, b in zip(hp, hq))) == (
                    min(xx for xx, _ in pts) >= 0
                )
                assert (hp[-1] == hq[-1]) == (y == 0)
                assert hq[-1] == x - y
                assert hp[-1] == x + y
                for i, j in valid_ij(4):
                    assert (i - j <= hq[-1] <= i + j <= hp[-1]) == shadow_contains(
                        i, j, x, y
                    )


def test_phi_tilde_examples():
    assert phi_tilde("E") == "E"
    assert phi_tilde("NS") == "EN"
    with pytest.raises(ValueError):
        phi_tilde("N")  # ends above the diagonal
    with pytest.raises(ValueError):
        phi_tilde("W")
    with pytest.raises(ValueError):
        phi_tilde("SN")


def test_phi_tilde_inv_examples():
    assert phi_tilde_inv("E", 1, 0) == "E"
    assert phi_tilde_inv("EN", 0, 0) == "NS"
    assert phi_tilde_inv("EN", 1, 1) == "EN"


def _phi_inv_conjugated(w2, i, j):
    """The reference: phi_inv on the pair that omega sends to w2."""
    return omega(*phi_inv(*omega_inv(w2), i, j)[:2])


@settings(deadline=None)
@given(oracles.quadrant_walks(256))
def test_phi_tilde_inv_undoes_phi_tilde_as_the_pair_inverse_does(w):
    i, j = oracles.walk_points(w)[-1]
    w2 = phi_tilde(w)
    assert phi_tilde_inv(w2, i, j) == w == _phi_inv_conjugated(w2, i, j)


@settings(deadline=None)
@given(
    st.one_of(walks, oracles.quadrant_walks(30).map(phi_tilde)),
    st.integers(-1, 12),
    st.integers(-1, 12),
)
def test_phi_tilde_inv_rejects_what_the_pair_inverse_rejects(w2, i, j):
    try:
        expected = _phi_inv_conjugated(w2, i, j)
    except ValueError:
        with pytest.raises(ValueError):
            phi_tilde_inv(w2, i, j)
    else:
        assert phi_tilde_inv(w2, i, j) == expected


def test_phi_tilde_inv_error_messages():
    with pytest.raises(ValueError, match="below the x-axis"):
        phi_tilde_inv("ES", 0, 0)
    with pytest.raises(ValueError, match="above the diagonal"):
        phi_tilde_inv("NE", 0, 0)
    with pytest.raises(ValueError, match=r"sh\(0, 0\)"):
        phi_tilde_inv("EE", 0, 0)
    with pytest.raises(ValueError, match="i >= j"):
        phi_tilde_inv("EN", 0, 1)


def test_phi_tilde_fixes_octant_walks_on_the_axis(suite_report):
    line = suite_report["phi_tilde_axis_identity"]
    assert line.passed, line.line()


def test_psi_tilde_examples():
    assert psi_tilde("NS") == "NS"
    assert psi_tilde("EE") == "WE"
    assert psi_tilde("ENSE") == "WNSE"
    assert psi_tilde_inv("WE") == "EE"
    assert psi_tilde_inv("NS") == "NS"
    with pytest.raises(ValueError):
        psi_tilde("WE")
    with pytest.raises(ValueError):
        psi_tilde_inv("EEE")


def test_psi_tilde_s_examples():
    assert psi_tilde_s("EE", 2) == "EE"
    assert psi_tilde_s("EE", 0) == "WE"
    assert psi_tilde_s("EEE", 1) == "WEE"
    assert psi_tilde_s_inv("WEE") == "EEE"
    pts = oracles.walk_points("WEE")
    assert pts[-1] == (1, 0) and min(x for x, _ in pts) == -1


@settings(deadline=None)
@given(oracles.quadrant_walks(256))
def test_psi_tilde_s_is_psi_s_read_on_the_walk(w):
    """psi_tilde_s and its inverse are psi_s and psi_s_inv conjugated by
    omega, for every valid s of a walk of up to 256 steps."""
    p, q = omega_inv(w)
    i = oracles.walk_points(w)[-1][0]
    for s in range(i % 2, i + 1, 2):
        wh = psi_tilde_s(w, s)
        assert wh == omega(*psi_s(p, q, s)[:2])
        assert psi_tilde_s_inv(wh) == omega(*psi_s_inv(*omega_inv(wh))[:2]) == w


def test_psi_tilde_maps_endpoint_classes():
    """psi_tilde carries quadrant walks ending at (i, j) onto upper-half
    walks ending at (i mod 2, j) with leftmost abscissa -floor(i/2), for
    every reachable endpoint, including those above the diagonal."""
    for n in range(9):
        buckets = {}
        for w in enumerate_walk_family(WalkFamilySpec("Q", n)):
            buckets.setdefault(oracles.walk_points(w)[-1], []).append(w)
        for (i, j), dom in buckets.items():
            image = [psi_tilde(w) for w in dom]
            assert len(set(image)) == len(image)
            assert set(image) == set(
                enumerate_walk_family(WalkFamilySpec("Hij", n, i=i, j=j))
            )
            for w, wh in zip(dom, image):
                assert psi_tilde_inv(wh) == w


def test_hij_walks_encode_grand_pair_sectors(suite_report):
    line = suite_report["hij_walks_vs_g2"]
    assert line.passed, line.line()


def test_psi_tilde_s_union_bijection(suite_report):
    """For each endpoint column (s, j), psi_tilde_s glues the quadrant
    endpoint classes with matching parity into all upper-half walks ending
    at (s, j), bijectively; exhaustive to the bound in verify's table."""
    line = suite_report["psi_tilde_s_union"]
    assert line.passed, line.line()


def test_shadow_contains():
    assert shadow_contains(1, 1, 3, 1)
    assert not shadow_contains(1, 1, 0, 0)
    assert shadow_contains(0, 0, 2, 2)
    with pytest.raises(ValueError):
        shadow_contains(1, 2, 0, 0)


def test_walk_family_enumeration_against_oracle():
    def octant(pts):
        return all(x >= y >= 0 for x, y in pts)

    def quadrant(pts):
        return all(x >= 0 and y >= 0 for x, y in pts)

    def upper(pts):
        return all(y >= 0 for _, y in pts)

    for n in range(7):
        cases = {
            WalkFamilySpec("O", n): octant,
            WalkFamilySpec("Ox", n): lambda pts: octant(pts) and pts[-1][1] == 0,
            WalkFamilySpec("Odiag", n): lambda pts: octant(pts)
            and pts[-1][0] == pts[-1][1],
            WalkFamilySpec("Q", n): quadrant,
            WalkFamilySpec("Qx", n): lambda pts: quadrant(pts) and pts[-1][1] == 0,
            WalkFamilySpec("H", n): upper,
        }
        # every endpoint near the walk's reach, of either parity, so the
        # start-state and off-parity prunes are pinned as well
        for i, j in itertools.product(range(-1, n + 2), repeat=2):
            cases[WalkFamilySpec("Qend", n, i=i, j=j)] = (
                lambda pts, i=i, j=j: quadrant(pts) and pts[-1] == (i, j)
            )
            cases[WalkFamilySpec("Hend", n, i=i, j=j)] = (
                lambda pts, i=i, j=j: upper(pts) and pts[-1] == (i, j)
            )
            if i >= 0 and j >= 0:
                cases[WalkFamilySpec("Hij", n, i=i, j=j)] = (
                    lambda pts, i=i, j=j: upper(pts)
                    and pts[-1] == (i % 2, j)
                    and min(x for x, _ in pts) == -(i // 2)
                )
            if i >= j >= 0:
                cases[WalkFamilySpec("Osh", n, i=i, j=j)] = (
                    lambda pts, i=i, j=j: octant(pts)
                    and shadow_contains(i, j, *pts[-1])
                )
        for spec, keep in cases.items():
            assert list(enumerate_walk_family(spec)) == oracles.naive_walks(n, keep)


def test_walk_family_rejects_bad_specs():
    with pytest.raises(ValueError):
        enumerate_walk_family(WalkFamilySpec("Qend", 4))
    with pytest.raises(ValueError):
        enumerate_walk_family(WalkFamilySpec("Osh", 4, i=1, j=2))
    with pytest.raises(ValueError):
        enumerate_walk_family(WalkFamilySpec("X", 4))


@st.composite
def path_pairs(draw):
    p = draw(st.text(alphabet="UD", max_size=30))
    q = draw(st.text(alphabet="UD", min_size=len(p), max_size=len(p)))
    return p, q


@given(path_pairs())
def test_random_pairs_roundtrip_omega(pq):
    p, q = pq
    assert omega_inv(omega(p, q)) == (p, q)
