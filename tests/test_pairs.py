"""The sector bijections phi and psi on nested path pairs.

A 21-step pair is used as a worked example throughout: it lives in
M2(21,4;1), has two lower returns, and exercises every flip stage of both
maps with nontrivial chi.
"""

import pytest
from hypothesis import given, strategies as st

from pathbij import (
    FamilySpec,
    agreement,
    disagreement,
    end_height,
    enumerate_family,
    flip_below,
    flip_below_inv,
    heights,
    phi,
    phi_inv,
    psi,
    psi_inv,
    psi_s,
    psi_s_inv,
    valid_ij,
    verify,
)
from pathbij.matching import tri_heights

WP = "UUDUUUUDUUUDDUDDDUDUU"
WQ = "DUDDUUUUUUUDUUDDDDUDU"
WQP = "UUUUDUUUUUUDUUDDDDUDU"  # WQ with its below-axis steps flipped
WPT = "UUUUUUUDUUUDUUDDDUDUU"  # phi image of (WP, WQ), upper path
WQT = "UUDUDUUUUUUDDUDDDDUDU"  # phi image of (WP, WQ), lower path
WPH = "UUDUDDUDUUUDDUDDDUDUU"  # psi image of (WP, WQ), upper path
WQH = "DUDDDDUUUUUDUUDDDDUDU"  # psi image of (WP, WQ), lower path


def test_disagreement_and_agreement_examples():
    assert disagreement("UU", "UD") == "HU"
    assert disagreement("UD", "DU") == "UD"
    assert agreement("UU", "UD") == "UH"
    assert agreement("UD", "DU") == "HH"
    with pytest.raises(ValueError):
        disagreement("U", "UD")
    with pytest.raises(ValueError):
        agreement("U", "UD")


def test_halving_identities():
    """Disagreement and agreement heights are half the difference and half
    the sum of the two profiles, whenever Q is weakly below P."""
    for n in range(7):
        for i, j in valid_ij(n):
            for p, q in enumerate_family(FamilySpec("M2", n, i=i, j=j)):
                hp, hq = heights(p), heights(q)
                assert tri_heights(disagreement(p, q)) == tuple(
                    (a - b) // 2 for a, b in zip(hp, hq)
                )
                assert tri_heights(agreement(p, q)) == tuple(
                    (a + b) // 2 for a, b in zip(hp, hq)
                )


def ell(p, q):
    """The lowest height of the agreement path, its start included."""
    return min((0,) + tri_heights(agreement(p, q)))


def test_ell_examples():
    assert ell("UD", "DU") == 0
    assert ell("DU", "DU") == -1
    assert ell("UU", "UU") == 0
    assert ell("", "") == 0


def test_infer_ij():
    # phi reads (i, j) off the ending heights, h(P) = i+j and h(Q) = i-j
    for p, q, ij in (("UU", "UD", (1, 1)), ("UD", "UD", (0, 0)), (WP, WQ, (4, 1))):
        assert phi(p, q) == phi(p, q, *ij)


def test_check_m2_names_the_violated_predicate():
    phi("UD", "UD")
    with pytest.raises(ValueError, match="Q is not weakly below"):
        phi("DUUD", "UDUD", 0, 0)
    with pytest.raises(ValueError, match="-P is not weakly below"):
        phi("UDUD", "DDUU", 0, 0)
    with pytest.raises(ValueError, match="h\\(P\\)"):
        phi("UD", "UD", 1, 1)
    with pytest.raises(ValueError, match="h\\(Q\\)"):
        phi("UU", "UU", 1, 1)
    with pytest.raises(ValueError, match="i >= j"):
        phi("UD", "UU")


def test_check_p2_names_the_violated_predicate():
    phi_inv("UU", "UD", 1, 1)
    with pytest.raises(ValueError, match="below the x-axis"):
        phi_inv("UD", "DU", 0, 0)
    with pytest.raises(ValueError, match="h\\(Q\\)"):
        phi_inv("UUUU", "UUDD", 2, 0)
    with pytest.raises(ValueError, match="h\\(P\\)"):
        phi_inv("UDUD", "UDUD", 2, 2)


def test_flip_below_examples():
    qp, rec = flip_below("UD")
    assert (qp, rec.lower_returns, rec.r) == ("UD", (), 0)
    qp, rec = flip_below("DU")
    assert (qp, rec.lower_returns, rec.r) == ("UU", (2,), 1)
    qp, rec = flip_below("DDUU")
    assert (qp, rec.lower_returns, rec.r) == ("UUDU", (4,), 1)
    assert flip_below(WQ)[0] == WQP
    assert flip_below(WQ)[1].lower_returns == (2, 6)
    with pytest.raises(ValueError):
        flip_below("D")


def test_flip_below_inv_examples():
    assert flip_below_inv("UU", 1) == "DU"
    assert flip_below_inv("UUDU", 1) == "DDUU"
    assert flip_below_inv("UD", 0) == "UD"
    assert flip_below_inv(WQP, 2) == WQ
    with pytest.raises(ValueError):
        flip_below_inv("UU", 2)
    with pytest.raises(ValueError):
        flip_below_inv("DU", 0)
    with pytest.raises(ValueError):
        flip_below_inv("UD", -1)


def test_flip_below_inv_then_forward():
    """Every (prefix, r) with 2r <= h is hit by exactly one eligible path."""
    for n in range(11):
        for qp in enumerate_family(FamilySpec("P", n)):
            for r in range(end_height(qp) // 2 + 1):
                q = flip_below_inv(qp, r)
                back, rec = flip_below(q)
                assert back == qp
                assert rec.r == r


def test_phi_examples():
    assert phi("U", "U", 1, 0)[:2] == ("U", "U")
    assert phi("UD", "DU", 0, 0)[:2] == ("UU", "UD")
    assert phi("UUU", "DUU", 2, 1)[:2] == ("UUU", "UUU")


def test_phi_worked_example():
    pt, qt, rec = phi(WP, WQ)
    assert (pt, qt) == (WPT, WQT)
    assert rec.chi == (3, 13)
    assert rec.lower_returns == (2, 6)
    assert rec.r == 2


def test_phi_inv_examples():
    assert phi_inv("U", "U", 1, 0)[:2] == ("U", "U")
    assert phi_inv("UU", "UD", 0, 0)[:2] == ("UD", "DU")
    assert phi_inv("UUU", "UUU", 2, 1)[:2] == ("UUU", "DUU")
    p, q, rec = phi_inv(WPT, WQT, 4, 1)
    assert (p, q) == (WP, WQ)
    assert rec.chi == (3, 13)
    assert rec.lower_returns == (2, 6)
    assert rec.r == 2


def test_phi_inv_gives_back_the_record_of_phi():
    """phi_inv reads Q's lower returns off the fragments it unflips; they
    are the ones phi finds on Q itself, on every M2 pair of <= 8 steps."""
    for n in range(9):
        for i, j in valid_ij(n):
            for p, q in enumerate_family(FamilySpec("M2", n, i=i, j=j)):
                pt, qt, rec = phi(p, q, i, j)
                assert phi_inv(pt, qt, i, j) == (p, q, rec)


def test_psi_examples():
    assert psi("UD", "UD")[:2] == ("UD", "UD")
    assert psi("UU", "UU")[:2] == ("DU", "DU")
    assert psi("UU", "UD")[:2] == ("UU", "UD")


def test_psi_worked_example():
    ph, qh, flips = psi(WP, WQ)
    assert (ph, qh) == (WPH, WQH)
    assert flips == (5, 6)
    assert agreement(WP, WQ) == "HUDHUUUHUUUDHUDDDHHHU"
    assert ell(WPH, WQH) == -2
    p, q, back = psi_inv(WPH, WQH)
    assert (p, q) == (WP, WQ)
    assert back == (5, 6)


def test_psi_inv_examples():
    assert psi_inv("UD", "UD")[:2] == ("UD", "UD")
    assert psi_inv("DU", "DU")[:2] == ("UU", "UU")
    assert psi_inv("UU", "UD")[:2] == ("UU", "UD")


def test_psi_s_examples():
    assert psi_s("UU", "UU", 2)[:2] == ("UU", "UU")
    assert psi_s("UU", "UU", 0)[:2] == ("DU", "DU")
    assert psi_s("UUU", "UUU", 1)[:2] == ("DUU", "DUU")


def test_psi_s_rejects_bad_targets():
    with pytest.raises(ValueError):
        psi_s("UU", "UU", 1)
    with pytest.raises(ValueError):
        psi_s("UU", "UU", 4)
    with pytest.raises(ValueError):
        psi_s("UU", "UU", -2)


def test_psi_s_sector_properties():
    """psi_s lowers the agreement path's end to s, dipping to -(i-s)/2,
    and coincides with psi at the bottom target."""
    for n in range(9):
        for i, j in valid_ij(n):
            for p, q in enumerate_family(FamilySpec("M2", n, i=i, j=j)):
                for s in range(i % 2, i + 1, 2):
                    ps, qs, _ = psi_s(p, q, s)
                    assert end_height(ps) == s + j
                    assert end_height(qs) == s - j
                    agree = agreement(ps, qs)
                    assert min(tri_heights(agree) + (0,)) == -(i - s) // 2
                    assert psi_s_inv(ps, qs)[:2] == (p, q)
                assert psi_s(p, q, i % 2)[:2] == psi(p, q)[:2]


def test_composed_map_is_a_global_bijection():
    """Fixing j = 0 and letting i run over end heights, psi after phi_inv
    carries the full nested-prefix-pair family onto the grand-pair family:
    each P2(n,i;0) onto G2(n,i;0), sectors that over i make up P2(n) and
    G2(n)."""
    assert verify._one_row("composed_map_bijection", 12) is None


@st.composite
def m2_members(draw):
    n = draw(st.integers(0, 9))
    i, j = draw(st.sampled_from(valid_ij(n)))
    sector = enumerate_family(FamilySpec("M2", n, i=i, j=j))
    p, q = draw(st.sampled_from(sector))
    return p, q, i, j


@given(m2_members())
def test_random_pair_roundtrips(member):
    p, q, i, j = member
    pt, qt, rec = phi(p, q, i, j)
    assert phi_inv(pt, qt, i, j)[:2] == (p, q)
    assert rec.r - j <= len(rec.chi) <= rec.r
    ph, qh, _ = psi(p, q)
    assert psi_inv(ph, qh)[:2] == (p, q)
