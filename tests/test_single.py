"""The prefix-to-grand bijections xi, xi_s and the folding bijection nu."""

import pytest
from hypothesis import given, strategies as st

from pathbij import end_height, heights, match_faces, nu, nu_inv, verify
from pathbij import xi, xi_inv, xi_s, xi_s_inv


@st.composite
def prefixes(draw):
    """Random nonneg-height paths: lift every step that would dip below 0."""
    raw = draw(st.text(alphabet="UD", max_size=40))
    out = []
    h = 0
    for c in raw:
        if c == "D" and h == 0:
            c = "U"
        h += 1 if c == "U" else -1
        out.append(c)
    return "".join(out)


FIG_PREFIX = "UUDDUUDUUDDUUUDU"
FIG_XI = "UUDDDUDUUDDDUUDU"
FIG_NU = "DUDDUUDDUUDUUDDU"


def test_xi_examples():
    assert xi(FIG_PREFIX) == FIG_XI
    assert xi("UD") == "UD"
    assert xi("UU") == "DU"
    assert xi("") == ""


def test_xi_rejects_non_prefix():
    with pytest.raises(ValueError):
        xi("DU")


def test_xi_inv_examples():
    assert xi_inv(FIG_XI) == FIG_PREFIX
    assert xi_inv("DU") == "UU"
    assert xi_inv("") == ""


def test_xi_inv_rejects_wrong_end_height():
    with pytest.raises(ValueError):
        xi_inv("UU")
    with pytest.raises(ValueError):
        xi_inv("U" * 3)


def test_xi_is_a_bijection_onto_grand_paths():
    """xi maps the prefixes of each length n < 15 onto the grand paths and
    keeps every facing pair; the round trip on the whole domain and the
    image equal to the codomain make xi o xi_inv the identity there too."""
    assert verify._one_row("xi_bijection", 14) is None


def test_xi_s_examples():
    assert xi_s("UU", 2) == "UU"
    assert xi_s("UU", 0) == "DU"
    assert xi_s("UUUU", 2) == "DUUU"
    assert min(heights("DUUU")) == -1


def test_xi_s_rejects_bad_targets():
    with pytest.raises(ValueError):
        xi_s("UU", 1)  # parity
    with pytest.raises(ValueError):
        xi_s("UU", 4)  # above the end height
    with pytest.raises(ValueError):
        xi_s("UU", -2)
    with pytest.raises(ValueError):
        xi_s("DU", 0)  # not a prefix


def test_xi_s_bijection_by_sector():
    """xi_s maps prefixes ending at i onto paths ending at s with minimum
    exactly -(i-s)/2, bijectively, for every valid pair (i, s), n < 13."""
    assert verify._one_row("xi_s_bijection", 12) is None


def test_nu_examples():
    assert nu(FIG_PREFIX) == FIG_NU
    assert nu("") == ""
    assert nu("UUU") == "DDU"


def test_nu_inv_examples():
    assert nu_inv(FIG_NU) == FIG_PREFIX
    assert nu_inv("DDU") == "UUU"
    assert nu_inv("") == ""


def test_nu_inv_rejects_wrong_end_height():
    with pytest.raises(ValueError):
        nu_inv("U")
    with pytest.raises(ValueError):
        nu_inv("UD" * 3 + "UU")


def test_nu_is_a_bijection():
    """Even lengths fold onto Grand Dyck paths; odd lengths end at -1;
    n < 15."""
    assert verify._one_row("nu_bijection", 14) is None


@given(prefixes())
def test_random_prefix_roundtrips(p):
    assert xi_inv(xi(p)) == p
    assert nu_inv(nu(p)) == p
    i = end_height(p)
    for s in range(i % 2, i + 1, 2):
        assert xi_s_inv(xi_s(p, s)) == p


@given(prefixes())
def test_xi_preserves_facing_pairs(p):
    """Random prefixes up to length 40; verify's xi_bijection row sweeps
    every prefix of length n < 15."""
    assert match_faces(xi(p)).pairs == match_faces(p).pairs


@given(prefixes())
def test_xi_specializes_xi_s(p):
    assert xi(p) == xi_s(p, end_height(p) % 2)
