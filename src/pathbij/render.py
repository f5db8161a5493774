"""Deterministic SVG pictures of paths, path pairs, tripaths and walks.

Every drawing lives on a 20px unit grid with integer pixel coordinates, so
identical inputs always produce byte-identical documents. Steps are separate
line elements (class "step"), which keeps per-step decoration trivial:
matched faces get dotted tunnel segments halfway up the step, flip candidates
get thicker strokes or circle markers, and walks can shade the wedge of
reachable sector endpoints.
"""

from __future__ import annotations

from ._base import require
from .matching import check_tripath, match_faces, tri_heights
from .pairs import disagreement
from .paths import check_path
from .walks import check_walk, positions, shadow_contains

UNIT = 20
PAD = 30

_STYLE = (
    "line.grid{stroke:#dddddd;stroke-width:1}"
    "line.axis{stroke:#444444;stroke-width:2}"
    "line.step{fill:none;stroke-width:2;stroke-linecap:round}"
    "line.step.flip{stroke-width:5}"
    "line.tunnel{stroke-width:1;stroke-dasharray:2 3}"
    "circle.flip{fill:#ffffff;stroke-width:2}"
    "circle.chi{fill:#333333}"
    "circle.start{fill:#222222}"
    "polygon.shadow{fill:#f5d0a9;fill-opacity:0.55;stroke:none}"
)

_P_COLOR = "#1f66a8"
_Q_COLOR = "#c43d3d"
_T_COLOR = "#2a7f4f"

VALID_DECORATIONS = {
    "path": ("show-matching", "show-flips"),
    "tripath": ("show-matching", "show-flips"),
    "pair": ("show-matching", "show-flips"),
    "walk": ("show-shadow",),
}


class _Canvas:
    """Collects SVG elements over a y-up integer coordinate box."""

    def __init__(self, xmin, xmax, ymin, ymax):
        self.xmin, self.ymax = xmin, ymax
        self.width = (xmax - xmin) * UNIT + 2 * PAD
        self.height = (ymax - ymin) * UNIT + 2 * PAD
        self.body: list[str] = []

    def px(self, x, y):
        # doubled coordinates let half-unit geometry stay integral
        return (
            PAD + (2 * x - 2 * self.xmin) * UNIT // 2,
            PAD + (2 * self.ymax - 2 * y) * UNIT // 2,
        )

    def line(self, cls, x1, y1, x2, y2, color=None):
        a, b = self.px(x1, y1)
        c, d = self.px(x2, y2)
        paint = "" if color is None else f' stroke="{color}"'
        self.body.append(
            f'<line class="{cls}" x1="{a}" y1="{b}" x2="{c}" y2="{d}"{paint}/>'
        )

    def circle(self, cls, x, y, r, color=None):
        a, b = self.px(x, y)
        paint = "" if color is None else f' stroke="{color}"'
        self.body.append(f'<circle class="{cls}" cx="{a}" cy="{b}" r="{r}"{paint}/>')

    def polygon(self, cls, points):
        text = " ".join("{},{}".format(*self.px(x, y)) for x, y in points)
        self.body.append(f'<polygon class="{cls}" points="{text}"/>')

    def grid(self, xmin, xmax, ymin, ymax):
        for x in range(xmin, xmax + 1):
            self.line("grid", x, ymin, x, ymax)
        for y in range(ymin, ymax + 1):
            cls = "axis" if y == 0 else "grid"
            self.line(cls, xmin, y, xmax, y)

    def document(self):
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">'
            f"<style>{_STYLE}</style>" + "".join(self.body) + "</svg>"
        )


def _draw_profile(cv, word, color, flips=(), matching=False):
    """One path or tripath as per-step lines plus optional decorations."""
    h = (0,) + tri_heights(word)
    for a in range(1, len(word) + 1):
        cls = "step flip" if a in flips else "step"
        cv.line(cls, a - 1, h[a - 1], a, h[a], color)
    if matching:
        m = match_faces(word)
        for a, b in m.pairs:
            y2 = 2 * h[a - 1] + 1  # tunnel sits half a unit above the takeoff
            cv.body.append(_half_line(cv, "tunnel", 2 * a - 1, y2, 2 * b - 1, y2, color))


def _half_line(cv, cls, x2, y2, x3, y3, color):
    a = PAD + (x2 - 2 * cv.xmin) * UNIT // 2
    b = PAD + (2 * cv.ymax - y2) * UNIT // 2
    c = PAD + (x3 - 2 * cv.xmin) * UNIT // 2
    d = PAD + (2 * cv.ymax - y3) * UNIT // 2
    return f'<line class="{cls}" x1="{a}" y1="{b}" x2="{c}" y2="{d}" stroke="{color}"/>'


def _marker(cv, word, a, color, cls="flip"):
    h = (0,) + tri_heights(word)
    x = PAD + (2 * a - 1 - 2 * cv.xmin) * UNIT // 2
    y = PAD + (2 * cv.ymax - h[a - 1] - h[a]) * UNIT // 2
    cv.body.append(f'<circle class="{cls}" cx="{x}" cy="{y}" r="5" stroke="{color}"/>')


def _profile_canvas(words):
    n = max(len(w) for w in words)
    ys = [0]
    for w in words:
        ys.extend(tri_heights(w))
    cv = _Canvas(0, max(n, 1), min(ys), max(ys))
    cv.grid(0, max(n, 1), min(ys), max(ys))
    return cv


def _render_single(word, kind, show_matching, show_flips):
    color = _T_COLOR if kind == "tripath" else _P_COLOR
    cv = _profile_canvas([word])
    flips = ()
    if show_flips:
        m = match_faces(word)
        flips = m.unmatched_u + m.unmatched_d
    _draw_profile(cv, word, color, flips, show_matching)
    return cv.document()


def _render_pair(p, q, show_matching, show_flips):
    """Markers sit where the paths disagree; filled ones are the unmatched
    descents of the disagreement word, the sites the pair maps may flip."""
    require(len(p) == len(q), "paths in a pair must have equal length")
    cv = _profile_canvas([p, q])
    _draw_profile(cv, q, _Q_COLOR, (), show_matching)
    _draw_profile(cv, p, _P_COLOR, (), show_matching)
    if show_flips:
        word = disagreement(p, q)
        hot = set(match_faces(word).unmatched_d)
        for a in range(1, len(word) + 1):
            if word[a - 1] == "H":
                continue
            cls = "flip chi" if a in hot else "flip"
            _marker(cv, q, a, _Q_COLOR, cls)
            _marker(cv, p, a, _P_COLOR, cls)
    return cv.document()


def _render_walk(w, show_shadow, i, j):
    pts = ((0, 0),) + positions(w)
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    if show_shadow:
        xs.extend((i, i + j))
        ys.append(0)
    xmin, xmax = min(xs + [0]), max(xs + [1])
    ymin, ymax = min(ys + [0]), max(ys + [1])
    if show_shadow:
        xmax = max(xmax, i + j + 1)
        ymax = max(ymax, j + 1)
    cv = _Canvas(xmin, xmax, ymin, ymax)
    if show_shadow:
        # the wedge i-j <= x-y <= i+j <= x+y, clipped at the canvas corner
        t = (xmax - i) + (ymax - j)
        quad = ((i, j), (i + j, 0), (i + j + t, t), (i + t, j + t))
        for x, y in quad:
            assert shadow_contains(i, j, x, y)
        cv.polygon("shadow", quad)
    cv.grid(xmin, xmax, ymin, ymax)
    if ymin < 0 or ymax > 0:
        cv.line("axis", 0, ymin, 0, ymax)
    for a in range(1, len(pts)):
        (x1, y1), (x2, y2) = pts[a - 1], pts[a]
        cv.line("step", x1, y1, x2, y2, _P_COLOR)
    cv.circle("start", 0, 0, 4)
    return cv.document()


def render_svg(
    kind: str,
    text: str,
    *,
    show_matching: bool = False,
    show_flips: bool = False,
    show_shadow: bool = False,
    i: int | None = None,
    j: int | None = None,
) -> str:
    """Render one object, given in its text encoding, as an SVG document."""
    require(kind in VALID_DECORATIONS, "unknown render kind: {!r}", kind)
    asked = [
        name
        for name, on in (
            ("show-matching", show_matching),
            ("show-flips", show_flips),
            ("show-shadow", show_shadow),
        )
        if on
    ]
    for name in asked:
        require(name in VALID_DECORATIONS[kind], "{} does not apply to a {}", name, kind)
    shadow = show_shadow == (i is not None) == (j is not None)
    require(shadow, "show-shadow needs i and j, which need it")
    if kind == "path":
        return _render_single(check_path(text), kind, show_matching, show_flips)
    if kind == "tripath":
        return _render_single(check_tripath(text), kind, show_matching, show_flips)
    if kind == "pair":
        parts = text.split(",")
        require(len(parts) == 2, "a pair is encoded as two paths joined by a comma")
        p, q = check_path(parts[0]), check_path(parts[1])
        return _render_pair(p, q, show_matching, show_flips)
    w = check_walk(text)
    # the canvas grows with |i| and |j|: bound them as valid_ij bounds a sector
    # of w's length, but for parity
    sector = not show_shadow or i >= j >= 0 and i + j <= len(w)
    require(sector, "show-shadow needs i >= j >= 0 and i + j <= {}, the walk's length", len(w))
    return _render_walk(w, show_shadow, i, j)
