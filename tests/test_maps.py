"""The map/inverse table of pathbij._maps on long inputs: for every row,
the inverse gives back what the forward map was given."""

from hypothesis import given, settings, strategies as st

from pathbij import _maps, end_height, omega_inv

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
