"""Height geometry, the nesting order, and family enumeration."""

import itertools

import pytest
from hypothesis import given, strategies as st

import pathbij
from pathbij import (
    FamilySpec,
    WalkFamilySpec,
    end_height,
    enumerate_family,
    enumerate_walk_family,
    heights,
    negate,
    valid_ij,
)
from pathbij.counting import binom, catalan
from pathbij.families import _g2_sector, _nested_tuples
from pathbij.paths import _NEGATE, _flip_below, check_ij, check_path, flip_steps, lexkey, swap_fragments
from pathbij.walks import _FLIP_Q, _STEP_TO_Q

import oracles

paths = st.text(alphabet="UD", max_size=40)


def test_check_path_rejects_foreign_letters():
    check_path("UDU")
    check_path("")
    with pytest.raises(ValueError):
        check_path("UXD")
    with pytest.raises(ValueError):
        check_path("UHD")


def test_heights_examples():
    assert heights("UUDD") == (1, 2, 1, 0)
    assert heights("DU") == (-1, 0)
    assert heights("") == ()


def test_end_and_min_height():
    assert end_height("UUDD") == 0
    assert end_height("") == 0
    # the lowest height, the start at 0 included
    assert min((0,) + heights("UD")) == 0
    assert min((0,) + heights("DU")) == -1
    assert min((0,) + heights("")) == 0


@given(paths)
def test_heights_match_oracle(p):
    assert list(heights(p)) == oracles.profile(p)[1:]


def test_negate_examples():
    assert negate("UD") == "DU"
    assert negate("") == ""


@given(paths)
def test_negate_involution_and_heights(p):
    assert negate(negate(p)) == p
    assert heights(negate(p)) == tuple(-h for h in heights(p))


def test_flip_steps_examples():
    assert flip_steps("UUDD", [2, 3]) == "UDUD"
    assert flip_steps("UD", []) == "UD"
    with pytest.raises(ValueError):
        flip_steps("UD", [3])
    with pytest.raises(ValueError):
        flip_steps("UD", [0])
    assert flip_steps("UHD", [1, 3]) == "DHU"
    with pytest.raises(ValueError, match="not U or D"):
        flip_steps("UHD", [2])
    # on a walk, E/W flips both paths at an agreement step, N/S at a
    # disagreement step; the other steps stay where they are
    assert flip_steps("ENWS", [1, 3], "EW") == "WNES"
    assert flip_steps("ENWS", [2, 4], "NS") == "ESWN"
    with pytest.raises(ValueError, match="outside 1..3"):
        flip_steps("ENW", [4], "EW")
    with pytest.raises(ValueError, match="not E or W"):
        flip_steps("ENW", [2], "EW")
    with pytest.raises(ValueError, match="not N or S"):
        flip_steps("ENW", [1], "NS")


@given(paths, st.data())
def test_flip_steps_involution(p, data):
    pos = data.draw(
        st.lists(st.integers(1, max(len(p), 1)), unique=True, max_size=len(p))
    )
    pos = [a for a in pos if a <= len(p)]
    assert flip_steps(flip_steps(p, pos), pos) == p
    w = data.draw(st.text(alphabet="ENSW", max_size=40))
    for swap in ("EW", "NS"):
        pos = [a for a, c in enumerate(w, 1) if c in swap and data.draw(st.booleans())]
        flipped = flip_steps(w, pos, swap)
        assert flip_steps(flipped, pos, swap) == w
        assert [a for a, (b, c) in enumerate(zip(w, flipped), 1) if b != c] == pos


@given(paths, st.data())
def test_swap_fragments_against_a_scan(p, data):
    h = heights(p)
    r = data.draw(st.integers(0, max(end_height(p), 0) // 2))
    # last[v]: the rightmost point at height v, point 0 being the start
    last = {v: a for a, v in enumerate([0, *h])}
    flips = [a for l in range(r) for a in range(last[2 * l] + 1, last[2 * l + 1] + 1)]
    assert swap_fragments(p, h, r, str.maketrans("UD", "DU")) == flip_steps(p, flips)


@given(paths, st.text(alphabet="ENSW", max_size=40))
def test_flip_below_against_a_scan(p, w):
    """The fragment flip on a U/D path's profile and on a walk's x - y
    profile: it translates exactly the steps that end below 0, returns the
    steps that rise back to 0, and swap_fragments undoes it."""
    for word, table, profile in (
        (p, _NEGATE, heights),
        (w, _FLIP_Q, lambda v: heights(v.translate(_STEP_TO_Q))),
    ):
        if profile(word)[-1:] < (0,):
            word = word.translate(table)  # the profile must end at or above 0
        h = profile(word)
        flipped, returns = _flip_below(word, h, table)
        assert flipped == "".join(c.translate(table) if v < 0 else c for c, v in zip(word, h))
        points = [0, *h]
        assert returns == tuple(a for a in range(1, len(points)) if points[a] == 0 > points[a - 1])
        assert swap_fragments(flipped, profile(flipped), len(returns), table) == word


def test_nesting_is_a_partial_order():
    """Reflexive, antisymmetric, transitive, checked exhaustively at n = 8.

    Transitivity is checked through bitmask rows of the relation matrix:
    the order is transitive iff whenever q is below p, everything below q
    is also below p.
    """
    for n in range(9):
        ps = enumerate_family(FamilySpec("A", n))
        below = []
        for p in ps:
            row = 0
            for idx, q in enumerate(ps):
                if oracles.weakly_below(q, p):
                    row |= 1 << idx
            below.append(row)
        for idx, p in enumerate(ps):
            assert below[idx] >> idx & 1
        for ip, p in enumerate(ps):
            for iq in range(len(ps)):
                if below[ip] >> iq & 1:
                    assert below[iq] & ~below[ip] == 0
                    if below[iq] >> ip & 1:
                        assert ip == iq


def test_negate_reverses_nesting():
    for n in range(9):
        for p, q in itertools.combinations(enumerate_family(FamilySpec("A", n)), 2):
            assert oracles.weakly_below(q, p) == oracles.weakly_below(negate(p), negate(q))


def test_family_cardinalities():
    for n in range(15):
        m = n // 2
        assert len(enumerate_family(FamilySpec("A", n))) == 2**n
        assert len(enumerate_family(FamilySpec("P", n))) == binom(n, m)
        assert len(enumerate_family(FamilySpec("G", n))) == binom(n, m)
        if n % 2 == 0:
            assert len(enumerate_family(FamilySpec("D", n))) == catalan(m)
        else:
            assert enumerate_family(FamilySpec("D", n)) == ()


def test_family_examples():
    assert enumerate_family(FamilySpec("D", 4)) == ("UUDD", "UDUD")
    assert enumerate_family(FamilySpec("M2", 2, i=0, j=0)) == (
        ("UD", "UD"),
        ("UD", "DU"),
    )
    got = set(enumerate_family(FamilySpec("P2", 2, i=0, j=0)))
    assert got == {("UD", "UD"), ("UU", "UD")}


def test_single_family_enumeration_against_oracle():
    for n in range(9):
        assert list(enumerate_family(FamilySpec("A", n))) == oracles.naive_single(
            n, lambda h: True
        )
        assert list(enumerate_family(FamilySpec("P", n))) == oracles.naive_single(
            n, lambda h: min(h) >= 0
        )
        assert list(enumerate_family(FamilySpec("G", n))) == oracles.naive_single(
            n, lambda h: h[-1] == n % 2
        )
        assert list(enumerate_family(FamilySpec("D", n))) == oracles.naive_single(
            n, lambda h: min(h) >= 0 and h[-1] == 0
        )


def test_valid_ij_example():
    assert valid_ij(4) == ((0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (4, 0))
    assert valid_ij(0) == ((0, 0),)
    for n in range(13):
        for i, j in valid_ij(n):
            check_ij(n, i, j)


def test_check_ij_rejects_each_constraint():
    with pytest.raises(ValueError):
        check_ij(4, 1, 2)  # i < j
    with pytest.raises(ValueError):
        check_ij(4, 3, -1)  # negative j
    with pytest.raises(ValueError):
        check_ij(4, 4, 2)  # i + j > n
    with pytest.raises(ValueError):
        check_ij(4, 2, 1)  # parity


@pytest.mark.parametrize(
    "call",
    [
        lambda: pathbij.phi("UU", "UU", i=2),
        lambda: pathbij.phi_inv("UU", "UU", 2, None),
        lambda: pathbij.phi_tilde_inv("EE", 2, None),
        lambda: enumerate_family(FamilySpec("M2", 2, i=2)),
        lambda: enumerate_family(FamilySpec("P2", 2, i=2)),
        lambda: enumerate_family(FamilySpec("G2", 2, i=2)),
    ],
    ids=["phi", "phi_inv", "phi_tilde_inv", "M2", "P2", "G2"],
)
def test_check_ij_names_both_values_for_every_caller(call):
    """A map that reads (i, j) and a family spec both reach check_ij, so its
    message blames no family and names the two values it got."""
    with pytest.raises(ValueError, match=r"^need both i and j, got i=2, j=None$"):
        call()


def test_pair_sector_enumeration_against_oracle():
    for n in range(8):
        for i, j in valid_ij(n):
            m2 = enumerate_family(FamilySpec("M2", n, i=i, j=j))
            p2 = enumerate_family(FamilySpec("P2", n, i=i, j=j))
            g2 = enumerate_family(FamilySpec("G2", n, i=i, j=j))
            assert list(m2) == oracles.naive_m2(n, i, j)
            assert list(p2) == oracles.naive_p2(n, i, j)
            assert list(g2) == oracles.naive_g2(n, i, j)


def test_g2_floor_sectors_against_oracle():
    """The G2 sector with floor s: pairs ending at (s+j, s-j) whose lowest
    agreement height is -(i-s)/2, for each s = i (mod 2) up to i. At j = 0
    those of i >= s split the nested pairs ending at s: psi_s's codomain,
    sector by sector, in floor_pair_bijection. As walks, i < j included,
    the sector is the upper half-plane walks ending at (s, j) whose lowest x
    is -(i-s)/2, and those of i >= s split the H walks ending at (s, j):
    psi_tilde_s's codomains, column by column, in psi_tilde_s_union."""
    for n in range(8):
        by_floor, walks_by_end = {}, {}
        for i, j in valid_ij(n):
            for s in range(i % 2, i + 1, 2):
                sector = _g2_sector(n, i, j, "tuple", s)
                assert list(sector) == oracles.naive_g2(n, i, j, s)
                if j == 0:
                    by_floor.setdefault(s, []).extend(sector)
        for s in range(n % 2, n + 1, 2):
            assert sorted(by_floor[s]) == sorted(_nested_tuples(n, 2, False, s))
        for i, j in itertools.product(range(n + 1), repeat=2):
            if i + j > n or (n - i - j) % 2:
                continue
            for s in range(i % 2, i + 1, 2):

                def keep(pts, end=(s, j), low=-((i - s) // 2)):
                    xs, ys = zip(*pts)
                    return pts[-1] == end and min(ys) >= 0 and min(xs) == low

                sector = _g2_sector(n, i, j, "walk", s)
                assert list(sector) == oracles.naive_walks(n, keep)
                walks_by_end.setdefault((s, j), []).extend(sector)
        for (s, j), walks in walks_by_end.items():
            assert sorted(walks) == sorted(enumerate_family(FamilySpec("Hend", n, i=s, j=j)))


def test_pair_ambient_enumeration_against_oracle():
    """P2/G2 without (i, j) are the plain nested-pair families.

    The (i, j) sectors overlap for P2, so no union statement is made here;
    the ambient sets are checked directly against product-space filters.
    """
    for n in range(8):
        p2 = enumerate_family(FamilySpec("P2", n))
        assert list(p2) == oracles.naive_p2(n)
        g2 = enumerate_family(FamilySpec("G2", n))
        assert list(g2) == oracles.naive_tuples(n, 2, end=n % 2)


def test_tuple_enumeration_against_oracle():
    for k in (1, 2, 3):
        for n in range(7 - k):
            ak = enumerate_family(FamilySpec("Ak", n, k=k))
            pk = enumerate_family(FamilySpec("Pk", n, k=k))
            gk = enumerate_family(FamilySpec("Gk", n, k=k))
            assert list(ak) == oracles.naive_tuples(n, k)
            assert list(pk) == oracles.naive_tuples(n, k, floor=True)
            assert list(gk) == oracles.naive_tuples(n, k, end=n % 2)


def test_end_constrained_families_against_oracle():
    for n in range(9):
        for s in range(n % 2, n + 1, 2):
            got = enumerate_family(FamilySpec("Pend", n, s=s))
            assert list(got) == oracles.naive_single(
                n, lambda h: min(h) >= 0 and h[-1] == s
            )
            aend = enumerate_family(FamilySpec("Aend", n, s=s))
            assert list(aend) == oracles.naive_single(n, lambda h: h[-1] == s)
        for i, _ in valid_ij(n):
            for s in range(i % 2, i + 1, 2):
                got = enumerate_family(FamilySpec("Aend", n, s=s, i=i))
                floor = -(i - s) // 2
                assert list(got) == oracles.naive_single(
                    n, lambda h: h[-1] == s and min(h) == floor
                )


def test_enumeration_is_sorted_and_duplicate_free():
    for n in range(9):
        for fam in ("A", "D", "G", "P"):
            out = enumerate_family(FamilySpec(fam, n))
            keys = [lexkey(p) for p in out]
            assert keys == sorted(keys)
            assert len(set(out)) == len(out)


def test_enumerators_reject_fields_their_family_does_not_read():
    for spec in (
        FamilySpec("A", 4, s=2),
        FamilySpec("D", 4, i=1, j=1),
        FamilySpec("Gk", 4, k=2, i=3),
        FamilySpec("M2", 4, i=2, j=0, k=5),
        FamilySpec("Pend", 4, s=2, i=1),
        FamilySpec("G2", 4, s=0),
    ):
        with pytest.raises(ValueError, match="does not read"):
            enumerate_family(spec)
    for spec in (WalkFamilySpec("O", 4, i=1), WalkFamilySpec("Q", 4, i=0, j=0)):
        with pytest.raises(ValueError, match="does not read"):
            enumerate_walk_family(spec)
    # the fields a family does read still work, and a walk family reads neither k nor s
    assert enumerate_family(FamilySpec("Aend", 4, s=0, i=2)) == ("UDDU", "DUUD", "DUDU")
    for spec in (FamilySpec("O", 4, s=0), FamilySpec("Qend", 4, k=2, i=0, j=0)):
        with pytest.raises(ValueError, match="does not read"):
            enumerate_family(spec)


def test_walk_families_share_the_one_record_and_enumerator():
    assert WalkFamilySpec is FamilySpec
    assert enumerate_walk_family is enumerate_family


def test_enumerate_family_rejects_bad_specs():
    assert enumerate_family(FamilySpec("D", 3)) == ()
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("M2", 4, i=2, j=1))
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("M2", 4))
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("Z", 4))
    with pytest.raises(ValueError, match="unknown family tag"):
        enumerate_family(FamilySpec("Z9", 3, k=2))
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("Pk", 4))
