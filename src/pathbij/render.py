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
from .matching import check_tripath, match_faces, tri_heights, unmatched_steps
from .pairs import disagreement
from .paths import check_path, heights, read_ij
from .walks import check_walk, omega_inv, shadow_contains

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
    """Collects SVG elements over a y-up integer box.

    Every coordinate handed to a drawing method is in half units, so step
    midpoints (tunnels, flip markers) stay integral like the lattice points.
    """

    def __init__(self, xmin, xmax, ymin, ymax):
        self.box = xmin, xmax, ymin, ymax
        self.width = (xmax - xmin) * UNIT + 2 * PAD
        self.height = (ymax - ymin) * UNIT + 2 * PAD
        self.body: list[str] = []

    def px(self, x, y):
        xmin, _, _, ymax = self.box
        return PAD + (x - 2 * xmin) * UNIT // 2, PAD + (2 * ymax - y) * UNIT // 2

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

    def grid(self):
        """Unit grid lines over the whole box, the x-axis drawn as an axis."""
        xmin, xmax, ymin, ymax = self.box
        for x in range(xmin, xmax + 1):
            self.line("grid", 2 * x, 2 * ymin, 2 * x, 2 * ymax)
        for y in range(ymin, ymax + 1):
            self.line("axis" if y == 0 else "grid", 2 * xmin, 2 * y, 2 * xmax, 2 * y)

    def document(self):
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">'
            f"<style>{_STYLE}</style>" + "".join(self.body) + "</svg>"
        )


def _render_profiles(words, colors, show_matching, flips=(), sites=()):
    """Equal-length paths or tripaths as per-step lines, in drawing order.

    Steps whose index is in flips are drawn thick; each (a, cls) of sites
    puts a marker of class cls on step a of every word.
    """
    profiles = [(0,) + tri_heights(w) for w in words]
    ys = [y for h in profiles for y in h]
    cv = _Canvas(0, max(len(words[0]), 1), min(ys), max(ys))
    cv.grid()
    for w, h, color in zip(words, profiles, colors):
        for a in range(1, len(h)):
            cls = "step flip" if a in flips else "step"
            cv.line(cls, 2 * a - 2, 2 * h[a - 1], 2 * a, 2 * h[a], color)
        if show_matching:
            for a, b in match_faces(w).pairs:
                y = 2 * h[a - 1] + 1  # tunnel sits half a unit above the takeoff
                cv.line("tunnel", 2 * a - 1, y, 2 * b - 1, y, color)
    for a, cls in sites:
        for h, color in zip(profiles, colors):
            cv.circle(cls, 2 * a - 1, h[a - 1] + h[a], 5, color)
    return cv.document()


def _render_single(word, kind, show_matching, show_flips):
    color = _T_COLOR if kind == "tripath" else _P_COLOR
    flips = set().union(*unmatched_steps(word)) if show_flips else ()
    return _render_profiles([word], [color], show_matching, flips)


def _render_pair(p, q, show_matching, show_flips):
    """Markers sit where the paths disagree; filled ones are the unmatched
    descents of the disagreement word, the sites the pair maps may flip."""
    require(len(p) == len(q), "paths in a pair must have equal length")
    sites = ()
    if show_flips:
        word = disagreement(p, q)
        hot = set(unmatched_steps(word)[0])
        sites = [(a, "flip chi" if a in hot else "flip")
                 for a, c in enumerate(word, 1) if c != "H"]
    return _render_profiles([q, p], [_Q_COLOR, _P_COLOR], show_matching, sites=sites)


def _render_walk(w, show_shadow, i, j):
    # each point: the half sum and half difference of the pair's heights
    p, q = omega_inv(w)
    pts = list(map(read_ij, (0,) + heights(p), (0,) + heights(q)))
    xs, ys = zip(*pts)
    xmin, xmax = min(xs), max(*xs, 1)
    ymin, ymax = min(ys), max(*ys, 1)
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
        cv.polygon("shadow", [(2 * x, 2 * y) for x, y in quad])
    cv.grid()
    cv.line("axis", 0, 2 * ymin, 0, 2 * ymax)  # ymax >= 1, so the y-axis always shows
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        cv.line("step", 2 * x1, 2 * y1, 2 * x2, 2 * y2, _P_COLOR)
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
    for name, on in (
        ("show-matching", show_matching),
        ("show-flips", show_flips),
        ("show-shadow", show_shadow),
    ):
        require(not on or name in VALID_DECORATIONS[kind], "{} does not apply to a {}", name, kind)
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
