"""SVG rendering: structure, decorations, determinism, frozen goldens, and
time linear in the input's length."""

import random
import re
import time

import pytest

from pathbij.render import UNIT, VALID_DECORATIONS, render_svg

# Frozen on first render, then pinned: any byte change is a determinism break.
STYLE = (
    "<style>line.grid{stroke:#dddddd;stroke-width:1}"
    "line.axis{stroke:#444444;stroke-width:2}"
    "line.step{fill:none;stroke-width:2;stroke-linecap:round}"
    "line.step.flip{stroke-width:5}"
    "line.tunnel{stroke-width:1;stroke-dasharray:2 3}"
    "circle.flip{fill:#ffffff;stroke-width:2}"
    "circle.chi{fill:#333333}"
    "circle.start{fill:#222222}"
    "polygon.shadow{fill:#f5d0a9;fill-opacity:0.55;stroke:none}</style>"
)

PAIR_GOLDEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="100" '
    'height="100" viewBox="0 0 100 100">' + STYLE +
    '<line class="grid" x1="30" y1="70" x2="30" y2="30"/>'
    '<line class="grid" x1="50" y1="70" x2="50" y2="30"/>'
    '<line class="grid" x1="70" y1="70" x2="70" y2="30"/>'
    '<line class="grid" x1="30" y1="70" x2="70" y2="70"/>'
    '<line class="axis" x1="30" y1="50" x2="70" y2="50"/>'
    '<line class="grid" x1="30" y1="30" x2="70" y2="30"/>'
    '<line class="step" x1="30" y1="50" x2="50" y2="70" stroke="#c43d3d"/>'
    '<line class="step" x1="50" y1="70" x2="70" y2="50" stroke="#c43d3d"/>'
    '<line class="step" x1="30" y1="50" x2="50" y2="30" stroke="#1f66a8"/>'
    '<line class="step" x1="50" y1="30" x2="70" y2="50" stroke="#1f66a8"/>'
    '<circle class="flip" cx="40" cy="60" r="5" stroke="#c43d3d"/>'
    '<circle class="flip" cx="40" cy="40" r="5" stroke="#1f66a8"/>'
    '<circle class="flip" cx="60" cy="60" r="5" stroke="#c43d3d"/>'
    '<circle class="flip" cx="60" cy="40" r="5" stroke="#1f66a8"/>'
    "</svg>"
)

WALK_GOLDEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="120" '
    'height="100" viewBox="0 0 120 100">' + STYLE +
    '<polygon class="shadow" points="50,50 70,70 130,10 110,-10"/>'
    '<line class="grid" x1="30" y1="70" x2="30" y2="30"/>'
    '<line class="grid" x1="50" y1="70" x2="50" y2="30"/>'
    '<line class="grid" x1="70" y1="70" x2="70" y2="30"/>'
    '<line class="grid" x1="90" y1="70" x2="90" y2="30"/>'
    '<line class="axis" x1="30" y1="70" x2="90" y2="70"/>'
    '<line class="grid" x1="30" y1="50" x2="90" y2="50"/>'
    '<line class="grid" x1="30" y1="30" x2="90" y2="30"/>'
    '<line class="axis" x1="30" y1="70" x2="30" y2="30"/>'
    '<line class="step" x1="30" y1="70" x2="50" y2="70" stroke="#1f66a8"/>'
    '<line class="step" x1="50" y1="70" x2="50" y2="50" stroke="#1f66a8"/>'
    '<circle class="start" cx="30" cy="70" r="4"/>'
    "</svg>"
)

# The three decorations of a drawn word: tunnels, thick flip steps and the
# colour of each kind.
PATH_GOLDEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="380" '
    'height="140" viewBox="0 0 380 140">' + STYLE +
    '<line class="grid" x1="30" y1="110" x2="30" y2="30"/>'
    '<line class="grid" x1="50" y1="110" x2="50" y2="30"/>'
    '<line class="grid" x1="70" y1="110" x2="70" y2="30"/>'
    '<line class="grid" x1="90" y1="110" x2="90" y2="30"/>'
    '<line class="grid" x1="110" y1="110" x2="110" y2="30"/>'
    '<line class="grid" x1="130" y1="110" x2="130" y2="30"/>'
    '<line class="grid" x1="150" y1="110" x2="150" y2="30"/>'
    '<line class="grid" x1="170" y1="110" x2="170" y2="30"/>'
    '<line class="grid" x1="190" y1="110" x2="190" y2="30"/>'
    '<line class="grid" x1="210" y1="110" x2="210" y2="30"/>'
    '<line class="grid" x1="230" y1="110" x2="230" y2="30"/>'
    '<line class="grid" x1="250" y1="110" x2="250" y2="30"/>'
    '<line class="grid" x1="270" y1="110" x2="270" y2="30"/>'
    '<line class="grid" x1="290" y1="110" x2="290" y2="30"/>'
    '<line class="grid" x1="310" y1="110" x2="310" y2="30"/>'
    '<line class="grid" x1="330" y1="110" x2="330" y2="30"/>'
    '<line class="grid" x1="350" y1="110" x2="350" y2="30"/>'
    '<line class="axis" x1="30" y1="110" x2="350" y2="110"/>'
    '<line class="grid" x1="30" y1="90" x2="350" y2="90"/>'
    '<line class="grid" x1="30" y1="70" x2="350" y2="70"/>'
    '<line class="grid" x1="30" y1="50" x2="350" y2="50"/>'
    '<line class="grid" x1="30" y1="30" x2="350" y2="30"/>'
    '<line class="step" x1="30" y1="110" x2="50" y2="90" stroke="#1f66a8"/>'
    '<line class="step" x1="50" y1="90" x2="70" y2="70" stroke="#1f66a8"/>'
    '<line class="step" x1="70" y1="70" x2="90" y2="90" stroke="#1f66a8"/>'
    '<line class="step" x1="90" y1="90" x2="110" y2="110" stroke="#1f66a8"/>'
    '<line class="step flip" x1="110" y1="110" x2="130" y2="90" stroke="#1f66a8"/>'
    '<line class="step" x1="130" y1="90" x2="150" y2="70" stroke="#1f66a8"/>'
    '<line class="step" x1="150" y1="70" x2="170" y2="90" stroke="#1f66a8"/>'
    '<line class="step" x1="170" y1="90" x2="190" y2="70" stroke="#1f66a8"/>'
    '<line class="step" x1="190" y1="70" x2="210" y2="50" stroke="#1f66a8"/>'
    '<line class="step" x1="210" y1="50" x2="230" y2="70" stroke="#1f66a8"/>'
    '<line class="step" x1="230" y1="70" x2="250" y2="90" stroke="#1f66a8"/>'
    '<line class="step flip" x1="250" y1="90" x2="270" y2="70" stroke="#1f66a8"/>'
    '<line class="step flip" x1="270" y1="70" x2="290" y2="50" stroke="#1f66a8"/>'
    '<line class="step" x1="290" y1="50" x2="310" y2="30" stroke="#1f66a8"/>'
    '<line class="step" x1="310" y1="30" x2="330" y2="50" stroke="#1f66a8"/>'
    '<line class="step flip" x1="330" y1="50" x2="350" y2="30" stroke="#1f66a8"/>'
    '<line class="tunnel" x1="40" y1="100" x2="100" y2="100" stroke="#1f66a8"/>'
    '<line class="tunnel" x1="60" y1="80" x2="80" y2="80" stroke="#1f66a8"/>'
    '<line class="tunnel" x1="140" y1="80" x2="160" y2="80" stroke="#1f66a8"/>'
    '<line class="tunnel" x1="180" y1="80" x2="240" y2="80" stroke="#1f66a8"/>'
    '<line class="tunnel" x1="200" y1="60" x2="220" y2="60" stroke="#1f66a8"/>'
    '<line class="tunnel" x1="300" y1="40" x2="320" y2="40" stroke="#1f66a8"/>'
    "</svg>"
)


TRIPATH_GOLDEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="160" '
    'height="100" viewBox="0 0 160 100">' + STYLE +
    '<line class="grid" x1="30" y1="70" x2="30" y2="30"/>'
    '<line class="grid" x1="50" y1="70" x2="50" y2="30"/>'
    '<line class="grid" x1="70" y1="70" x2="70" y2="30"/>'
    '<line class="grid" x1="90" y1="70" x2="90" y2="30"/>'
    '<line class="grid" x1="110" y1="70" x2="110" y2="30"/>'
    '<line class="grid" x1="130" y1="70" x2="130" y2="30"/>'
    '<line class="grid" x1="30" y1="70" x2="130" y2="70"/>'
    '<line class="axis" x1="30" y1="50" x2="130" y2="50"/>'
    '<line class="grid" x1="30" y1="30" x2="130" y2="30"/>'
    '<line class="step" x1="30" y1="50" x2="50" y2="30" stroke="#2a7f4f"/>'
    '<line class="step" x1="50" y1="30" x2="70" y2="30" stroke="#2a7f4f"/>'
    '<line class="step" x1="70" y1="30" x2="90" y2="50" stroke="#2a7f4f"/>'
    '<line class="step flip" x1="90" y1="50" x2="110" y2="70" stroke="#2a7f4f"/>'
    '<line class="step flip" x1="110" y1="70" x2="130" y2="50" stroke="#2a7f4f"/>'
    '<line class="tunnel" x1="40" y1="40" x2="80" y2="40" stroke="#2a7f4f"/>'
    "</svg>"
)


PAIR_MATCHING_GOLDEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="140" '
    'height="120" viewBox="0 0 140 120">' + STYLE +
    '<line class="grid" x1="30" y1="90" x2="30" y2="30"/>'
    '<line class="grid" x1="50" y1="90" x2="50" y2="30"/>'
    '<line class="grid" x1="70" y1="90" x2="70" y2="30"/>'
    '<line class="grid" x1="90" y1="90" x2="90" y2="30"/>'
    '<line class="grid" x1="110" y1="90" x2="110" y2="30"/>'
    '<line class="grid" x1="30" y1="90" x2="110" y2="90"/>'
    '<line class="axis" x1="30" y1="70" x2="110" y2="70"/>'
    '<line class="grid" x1="30" y1="50" x2="110" y2="50"/>'
    '<line class="grid" x1="30" y1="30" x2="110" y2="30"/>'
    '<line class="step" x1="30" y1="70" x2="50" y2="90" stroke="#c43d3d"/>'
    '<line class="step" x1="50" y1="90" x2="70" y2="70" stroke="#c43d3d"/>'
    '<line class="step" x1="70" y1="70" x2="90" y2="90" stroke="#c43d3d"/>'
    '<line class="step" x1="90" y1="90" x2="110" y2="70" stroke="#c43d3d"/>'
    '<line class="tunnel" x1="60" y1="80" x2="80" y2="80" stroke="#c43d3d"/>'
    '<line class="step" x1="30" y1="70" x2="50" y2="50" stroke="#1f66a8"/>'
    '<line class="step" x1="50" y1="50" x2="70" y2="30" stroke="#1f66a8"/>'
    '<line class="step" x1="70" y1="30" x2="90" y2="50" stroke="#1f66a8"/>'
    '<line class="step" x1="90" y1="50" x2="110" y2="30" stroke="#1f66a8"/>'
    '<line class="tunnel" x1="60" y1="40" x2="80" y2="40" stroke="#1f66a8"/>'
    '<circle class="flip" cx="40" cy="80" r="5" stroke="#c43d3d"/>'
    '<circle class="flip" cx="40" cy="60" r="5" stroke="#1f66a8"/>'
    "</svg>"
)


def test_unit_is_stable():
    assert UNIT == 20


def test_path_structure():
    svg = render_svg("path", "UD")
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
    assert svg.count('<line class="step"') == 2
    assert svg.count('<line class="axis"') == 1
    assert svg.endswith("</svg>")


def test_pair_flip_golden():
    assert render_svg("pair", "UD,DU", show_flips=True) == PAIR_GOLDEN


def test_walk_shadow_golden():
    assert render_svg("walk", "EN", show_shadow=True, i=1, j=1) == WALK_GOLDEN


@pytest.mark.parametrize(
    "kind, text, golden",
    [
        ("path", "UUDDUUDUUDDUUUDU", PATH_GOLDEN),
        ("tripath", "UHDDU", TRIPATH_GOLDEN),
        ("pair", "UUDU,DUDU", PAIR_MATCHING_GOLDEN),
    ],
)
def test_matching_and_flip_goldens(kind, text, golden):
    assert render_svg(kind, text, show_matching=True, show_flips=True) == golden


@pytest.mark.parametrize("kind", ["path", "pair"])
def test_long_input_renders_in_linear_time(kind):
    # a quadratic renderer takes tens of seconds here; a linear one about one
    rng = random.Random(2014)
    text = "U" * 100_000
    if kind == "pair":
        p, q = ("".join(rng.choice("UD") for _ in range(100_000)) for _ in range(2))
        text = f"{p},{q}"
    start = time.perf_counter()
    svg = render_svg(kind, text, show_flips=True)
    assert time.perf_counter() - start < 10
    assert svg.count('<line class="step') == len(text.replace(",", ""))


def test_byte_determinism():
    calls = (
        lambda: render_svg("path", "UUDDUUDUUDDUUUDU", show_flips=True, show_matching=True),
        lambda: render_svg("tripath", "UHDDU", show_matching=True),
        lambda: render_svg("pair", "UUDU,DUDU", show_flips=True, show_matching=True),
        lambda: render_svg("walk", "ENNESSWN", show_shadow=True, i=2, j=0),
    )
    for call in calls:
        assert call() == call()


def test_flip_decoration_thickens_unmatched_steps():
    plain = render_svg("path", "UUD")
    fancy = render_svg("path", "UUD", show_flips=True)
    assert plain.count("step flip") == 0
    assert fancy.count('class="step flip"') == 1  # one unmatched U
    assert fancy.count('<line class="step"') == 2


def test_matching_tunnels():
    svg = render_svg("path", "UUDD", show_matching=True)
    assert svg.count('class="tunnel"') == 2
    deep = render_svg("tripath", "UHUDHD", show_matching=True)
    assert deep.count('class="tunnel"') == 2


def test_pair_marker_classes():
    svg = render_svg("pair", "UDDD,DUUU", show_flips=True)
    # steps 3 and 4 are unmatched descents of the disagreement word
    assert svg.count('"flip chi"') == 4
    assert svg.count("<circle") == 8


def test_walk_without_shadow_has_no_polygon():
    assert "<polygon" not in render_svg("walk", "ENWS")


def test_decoration_validity():
    assert set(VALID_DECORATIONS) == {"path", "pair", "tripath", "walk"}
    with pytest.raises(ValueError, match="does not apply"):
        render_svg("walk", "EN", show_flips=True)
    with pytest.raises(ValueError, match="does not apply"):
        render_svg("path", "UD", show_shadow=True)
    with pytest.raises(ValueError, match="needs i and j"):
        render_svg("walk", "EN", show_shadow=True)
    with pytest.raises(ValueError, match="i \\+ j <= 2, the walk's length"):
        render_svg("walk", "EN", show_shadow=True, i=3, j=0)
    with pytest.raises(ValueError, match="unknown render kind"):
        render_svg("diagram", "UD")
    with pytest.raises(ValueError, match="comma"):
        render_svg("pair", "UD")
    with pytest.raises(ValueError, match="equal length"):
        render_svg("pair", "UD,DUD")
    with pytest.raises(ValueError, match="not a"):
        render_svg("path", "UH")
    with pytest.raises(ValueError, match="not a"):
        render_svg("walk", "UD")


def test_all_coordinates_are_integers():
    svg = render_svg("pair", "UUDU,DUDU", show_flips=True, show_matching=True)
    for attr in re.findall(r'(?:x1|x2|y1|y2|cx|cy|r)="([^"]+)"', svg):
        int(attr)
    for pts in re.findall(r'points="([^"]+)"', svg):
        for token in pts.split():
            x, y = token.split(",")
            int(x), int(y)
