"""The map/inverse table of pathbij._maps: on long inputs, for every row,
the inverse gives back what the forward map was given; on every small
input, valid or not, each map's image or error text is pinned."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pathbij import _maps, cli, end_height, enumerate_pp, match_faces, omega_inv, xi
from pathbij.matching import check_tripath
from pathbij.paths import check_path
from pathbij.walks import check_walk

import oracles
from oracles import quadrant_walks


@st.composite
def _boxes(draw):
    """A plane partition in a p x q x k box, with the box: each entry is
    drawn, then capped by the entries above it and to its left."""
    p, q, k = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 10))
    drawn = iter(draw(st.lists(st.integers(0, k), min_size=p * q, max_size=p * q)))
    rows: list[tuple[int, ...]] = []
    for r in range(q):
        row: list[int] = []
        for c in range(p):
            row.append(min(next(drawn), rows[-1][c] if r else k, row[-1] if c else k))
        rows.append(tuple(row))
    return tuple(rows), p, q, k


def _image(name, x, params):
    return _maps.call(name, x, *[params[c] for c in _maps.MAPS[name].reads])[0]


@settings(deadline=None)
@given(quadrant_walks(256), st.integers(0, 2**16), _boxes())
def test_every_row_gives_its_input_back(w, t, box):
    p, q = omega_inv(w)
    hp, hq = end_height(p), end_height(q)
    i, j = (hp + hq) // 2, (hp - hq) // 2
    # s: an end height at or below the prefix's end for xi_s, at or below i
    # for psi_s and psi_tilde_s, of the same parity
    on_walk = {"s": i - 2 * (t % (i // 2 + 1)), "i": i, "j": j}
    a, cols, rows, k = box
    inputs = {
        "path": (p, {"s": hp - 2 * (t % (hp // 2 + 1))}),
        "pair": ((p, q), on_walk),
        "walk": (w, on_walk),
        "pp": (a, {"k": k, "n": cols + rows, "p": cols, "q": rows}),
    }
    for forward, kind, _, inverse, _, _ in _maps.ROWS:
        x, params = inputs[kind]
        assert _image(inverse, _image(forward, x, params), params) == x, (forward, x, params)


def test_every_inverse_accepts_only_images():
    """Each inverse of _maps.ROWS that reads no parameter, on every U/D word,
    equal-length pair and N/S/E/W walk of at most 6 steps that it accepts:
    the forward map, given what `pathbij apply` reads off that input (the
    end height, the agreement path's end or the end abscissa), gives the
    input back. So an inverse refuses every input that is no image."""
    paths = [w for n in range(7) for w in oracles.words(n)]
    inputs = {
        "path": paths,
        "pair": [(p, q) for p in paths for q in paths if len(p) == len(q)],
        "walk": [w for n in range(7) for w in oracles.words(n, "NSEW")],
    }
    wrong = []
    for forward, _, reads, inverse, kind, inverse_reads in _maps.ROWS:
        for y in inputs[kind] if not inverse_reads else ():
            try:
                x = _maps.call(inverse, y)[0]
            except ValueError:
                continue
            given = cli._given_back(kind, y)
            try:
                back = _maps.call(forward, x, *[given[c] for c in reads])[0]
            except ValueError as exc:
                back = exc
            if back != y:
                wrong.append((inverse, y))
    assert not wrong, (len(wrong), wrong[:5])


def _small_inputs():
    """(kind, input) for every U/D word and equal-length pair of at most 5
    steps, every N/S/E/W walk of at most 5 steps, the plane partitions in
    boxes of sides at most 2 and the nested pairs of at most 4 steps, with
    foreign letters, length mismatches and arrays that are no plane
    partition."""
    paths = [w for n in range(6) for w in oracles.words(n)]
    yield from (("path", p) for p in paths + ["X", "UX", "HU", "u", "NE"])
    yield from (("pair", (p, q)) for p in paths for q in paths if len(p) == len(q))
    bad_pairs = [("UD", "U"), ("U", "UD"), ("UX", "UD"), ("UD", "UX"), ("X", ""), ("H", "H")]
    yield from (("pair", x) for x in bad_pairs)
    walks = [w for n in range(6) for w in oracles.words(n, "NSEW")]
    yield from (("walk", w) for w in walks + ["U", "NX", "nE", "EH"])
    boxes = [a for p in range(3) for q in range(3) for k in range(3) for a in enumerate_pp(p, q, k)]
    bad = [((1, 2),), ((2,), (3,)), ((1,), ()), ((-1,),), ((3,),)]
    yield from (("pp", a) for a in sorted(set(boxes)) + bad)
    short = [p for p in paths if len(p) <= 4]
    tuples = [()] + [(p,) for p in short]
    tuples += [(p, q) for p in short for q in short if len(p) == len(q)]
    yield from (("paths", t) for t in tuples + [("UX",), ("UD", "U")])


def _params(reads, x):
    """Every assignment of the parameters read, valid or not: each runs from
    -1 to one past the input's length (or size), k from 0 to 3."""
    n = len(x[0]) if isinstance(x, tuple) and x and isinstance(x[0], str) else len(x)
    ranges = {c: range(0, 4) if c == "k" else range(-1, n + 2) for c in reads}
    return list(itertools.product(*(ranges[c] for c in reads)))


def test_every_map_keeps_its_outputs_and_error_texts():
    """Each map and inverse of _maps.ROWS on every small input and every
    parameter assignment of _params: the image, or the ValueError text,
    hashed together, so a change to any image or to the text or order of
    any check shows here."""
    names = [name for row in _maps.ROWS for name in (row[0], row[3])]
    digest = hashlib.sha256()
    calls = 0
    for kind, x in _small_inputs():
        for name in names:
            entry = _maps.MAPS[name]
            if entry.kind != kind:
                continue
            for params in _params(entry.reads, x):
                try:
                    out = repr(_maps.call(name, x, *params))
                except ValueError as exc:
                    out = f"ValueError: {exc}"
                digest.update(f"{name} {x!r} {params!r} {out}\n".encode())
                calls += 1
    assert (calls, digest.hexdigest()) == (
        294420,
        "7cee0ecb0351c4711398eb4acfd10ededf51d6fd349761d4fedf8ffb342abb84",
    )


# each alphabet's check, a map that runs it and its error text's head
_CHECKS = (
    (check_path, xi, "not a U/D path"),
    (check_tripath, match_faces, "not a U/D/H path"),
    (check_walk, omega_inv, "not an N/S/E/W walk"),
)
# foreign ASCII letters, NUL, non-ASCII letters, and the lone surrogate that
# a command line's byte 0xFF becomes, each with its repr in the error text
_FOREIGN = (
    ("UXD", "'UXD'"),
    ("NEx", "'NEx'"),
    ("\x00", "'\\x00'"),
    ("U\x00D", "'U\\x00D'"),
    ("UÜD", "'UÜD'"),
    ("ΝΕ", "'ΝΕ'"),
    ("U\udcffD", "'U\\udcffD'"),
    ("\ud800", "'\\ud800'"),
)


@pytest.mark.parametrize("check, through, head", _CHECKS)
@pytest.mark.parametrize("x, shown", _FOREIGN)
def test_a_foreign_character_fails_with_the_alphabets_text(check, through, head, x, shown):
    """The three alphabet checks, alone and inside a map, raise a plain
    ValueError with the same text for every character outside the
    alphabet, non-ASCII ones and lone surrogates included."""
    for f in (check, through):
        with pytest.raises(ValueError) as caught:
            f(x)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"{head}: {shown}"
