"""Seeded inputs for the workloads; the same seed always gives the same inputs.

Generation uses only the benchmark's own encodings (oracles.py). Every
input is valid for the maps it is sent through, and inputs of one kind are
pairwise distinct, so no map sees the same argument twice in a round.
"""

from __future__ import annotations

import random

from maps import MAPS, cli_text
from oracles import decode_walk, end_height, pp_to_paths, walk_points

# certify: verify_suite's budget; the default --max-n 10 --k 2 takes about
# a minute, too long to repeat in every run
CERTIFY_BUDGET = {"max_n": 7, "max_k": 2}

# stream: lengths in the low hundreds; per length, this many inputs of each kind
STREAM_LENGTHS = (128, 192, 256)
STREAM_PER_LENGTH = 90
# stream: nested k-tuples as plane partitions in a p x q x k box
STREAM_TUPLES = 120
TUPLE_SIDES = (10, 20)
TUPLE_LEVELS = (2, 4)

# count: k = 2 points near these n, k = 3 points near these n; each band
# contributes n = c - d and n = c + d for one seeded d, so the cost of a
# round barely depends on the seed
COUNT_BANDS = {2: (150, 300, 450, 600), 3: (40, 72)}
COUNT_SPREAD = {2: 40, 3: 24}

_SWAP_DIAG = str.maketrans("NESW", "ENWS")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def random_prefix(rng: random.Random, n: int) -> str:
    steps = []
    h = 0
    for _ in range(n):
        c = "U" if h == 0 or rng.random() < 0.5 else "D"
        h += 1 if c == "U" else -1
        steps.append(c)
    return "".join(steps)


def random_quadrant_walk(rng: random.Random, n: int) -> str:
    """A quadrant walk ending weakly below the diagonal (x >= y)."""
    steps = []
    x = y = 0
    for _ in range(n):
        options = [c for c, dx, dy in (("E", 1, 0), ("N", 0, 1), ("S", 0, -1), ("W", -1, 0))
                   if x + dx >= 0 and y + dy >= 0]
        c = rng.choice(options)
        x += (c == "E") - (c == "W")
        y += (c == "N") - (c == "S")
        steps.append(c)
    w = "".join(steps)
    # reflecting in the diagonal keeps the walk in the quadrant
    return w.translate(_SWAP_DIAG) if y > x else w


def random_plane_partition(rng: random.Random, p: int, q: int, k: int):
    rows: list[tuple[int, ...]] = []
    for r in range(q):
        row: list[int] = []
        for c in range(p):
            cap = min(rows[r - 1][c] if r else k, row[c - 1] if c else k)
            row.append(rng.randint(0, cap))
        rows.append(tuple(row))
    return tuple(rows)


def _distinct(make, count: int) -> list[dict]:
    seen: set = set()
    out = []
    while len(out) < count:
        item = make()
        if _key(item) not in seen:
            seen.add(_key(item))
            out.append(item)
    return out


def _pick_s(rng: random.Random, i: int) -> int:
    return rng.randrange(i % 2, i + 1, 2)


def prefix_item(rng: random.Random, n: int) -> dict:
    p = random_prefix(rng, n)
    return {"p": p, "s": _pick_s(rng, end_height(p))}


def pair_item(rng: random.Random, n: int) -> dict:
    w = random_quadrant_walk(rng, n)
    i, j = walk_points(w)[-1]
    p, q = decode_walk(w)
    return {"p": p, "q": q, "i": i, "j": j, "s": _pick_s(rng, i)}


def walk_item(rng: random.Random, n: int) -> dict:
    w = random_quadrant_walk(rng, n)
    i, j = walk_points(w)[-1]
    return {"w": w, "i": i, "j": j, "s": _pick_s(rng, i)}


def tuple_item(rng: random.Random, sides: tuple[int, int], levels: tuple[int, int]) -> dict:
    p, q, k = rng.randint(*sides), rng.randint(*sides), rng.randint(*levels)
    a = random_plane_partition(rng, p, q, k)
    return {"paths": pp_to_paths(a, k, p, q), "a": a, "p": p, "q": q, "k": k}


def _key(item: dict) -> tuple:
    return tuple(item.get(f) for f in ("p", "q", "w", "paths"))


def stream_inputs(seed: int) -> list[tuple[str, dict]]:
    """Prefixes, M2 pairs and quadrant walks of every length in
    STREAM_LENGTHS, and nested tuples, shuffled; no two items of a kind
    share their paths or walk."""
    rng = _rng("stream", seed)
    makers = {"prefix": prefix_item, "pair": pair_item, "walk": walk_item}
    items: list[tuple[str, dict]] = []
    for n in STREAM_LENGTHS:
        for kind, make in makers.items():
            items += [(kind, x) for x in _distinct(lambda: make(rng, n), STREAM_PER_LENGTH)]
    tuples = _distinct(lambda: tuple_item(rng, TUPLE_SIDES, TUPLE_LEVELS), STREAM_TUPLES)
    items += [("tuple", x) for x in tuples]
    rng.shuffle(items)
    return items


def count_grid(seed: int) -> list[tuple[int, int]]:
    """(n, k) points for the closed forms, in seeded order."""
    rng = _rng("count", seed)
    grid = []
    for k, centres in COUNT_BANDS.items():
        for c in centres:
            d = rng.randint(0, COUNT_SPREAD[k])
            grid += [(c - d, k), (c + d, k)]
    rng.shuffle(grid)
    return grid


def count_limits() -> dict[int, int]:
    """Largest n the grid can draw, per k."""
    return {k: max(c) + COUNT_SPREAD[k] for k, c in COUNT_BANDS.items()}


# ---------------------------------------------------------------------------
# cli: one round is a fixed mix of calls; the seed picks the inputs and order


# (family, method) counted at a seeded small n; Qend is the return-to-origin case
CLI_COUNTS = (
    ("A", "formula"), ("D", "formula"), ("P", "formula"), ("G", "formula"),
    ("O", "formula"), ("Ox", "formula"), ("Odiag", "formula"), ("Qend", "formula"),
    ("G2", "det"), ("P2", "det"), ("Gk", "det"), ("Pk", "det"),
)

# Count calls with a negative --n print a number and exit 0 today; they
# must exit 2. They do not depend on the seed, so every round fails them.
CLI_NEGATIVE_N = (
    ["count", "--family", "A", "--n", "-1", "--method", "formula"],
    ["count", "--family", "P", "--n", "-1", "--method", "formula"],
    ["count", "--family", "G", "--n", "-1", "--method", "formula"],
    ["count", "--family", "D", "--n", "-1", "--method", "formula"],
    ["count", "--family", "Odiag", "--n", "-1", "--method", "formula"],
    ["count", "--family", "Qend", "--n", "-1", "--i", "0", "--j", "0", "--method", "formula"],
)


def _malformed(rng: random.Random) -> list[list[str]]:
    n = rng.randint(4, 10)
    p = random_prefix(rng, n)
    return [
        ["apply", "--map", "xi", "--input", p[:-1] + "X"],
        ["apply", "--map", "phi", "--input", p, "--i", "0", "--j", "0"],
        ["apply", "--map", "no_such_map", "--input", p],
        ["count", "--family", "Z" + str(n), "--n", str(n)],
        ["count", "--family", "G2", "--n", str(n), "--method", "det", "--i", "1", "--j", "1"],
        ["render", "--kind", "walk", "--input", p],
    ]


def _argv(verb: str, name: str, text: str, flags: dict) -> list[str]:
    argv = [verb, "--map", name, "--input", text]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    return argv


def cli_round(seed: int, pb) -> list[dict]:
    """One round of pathbij calls, each {"argv": [...], "expect": kind}.

    Every map goes forward on a small seeded item and back on the image;
    the image is computed here with `pb`, so the round trip is made by two
    separate processes. Kinds: "apply" (carries the text the call must
    print), "count" (family, n, k), "render", "error" (must exit 2) and
    "negative_n" (must exit 2, but does not today).
    """
    rng = _rng("cli", seed)
    makers = {
        "prefix": lambda: prefix_item(rng, rng.randint(6, 12)),
        "pair": lambda: pair_item(rng, rng.randint(6, 12)),
        "walk": lambda: walk_item(rng, rng.randint(6, 12)),
        "tuple": lambda: tuple_item(rng, (2, 4), (2, 3)),
    }
    calls: list[dict] = []
    for name, m in MAPS.items():
        if not m.cli:
            continue
        x = makers[m.kind]()
        image = cli_text(m.forward(pb, x))
        calls.append({"argv": _argv("apply", name, m.text(x), m.flags(x)),
                      "expect": "apply", "prints": image})
        calls.append({"argv": _argv("apply", m.inverse, image, m.inverse_flags(x)),
                      "expect": "apply", "prints": cli_text(m.back(x))})
    for family, method in CLI_COUNTS:
        n = 2 * rng.randint(2, 6) if family in ("Odiag", "Qend") else rng.randint(2, 12)
        k = rng.randint(2, 4) if family in ("Gk", "Pk") else 2
        argv = ["count", "--family", family, "--n", str(n), "--method", method]
        if family == "Qend":
            argv += ["--i", "0", "--j", "0"]
        if family in ("Gk", "Pk"):
            argv += ["--k", str(k)]
        calls.append({"argv": argv, "expect": "count", "family": family, "n": n, "k": k})
    w = walk_item(rng, rng.randint(6, 12))
    calls.append({"argv": ["render", "--kind", "walk", "--input", w["w"], "--show-shadow",
                           "--i", str(w["i"]), "--j", str(w["j"])], "expect": "render"})
    calls += [{"argv": argv, "expect": "error"} for argv in _malformed(rng)]
    calls += [{"argv": list(argv), "expect": "negative_n"} for argv in CLI_NEGATIVE_N]
    rng.shuffle(calls)
    return calls
