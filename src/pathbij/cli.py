"""Command-line front end: count families, apply maps, verify, render SVG.

Exit codes: 0 on success, 1 when the verification suite finds a failure,
2 on malformed input (bad flags, bad encodings, unsatisfiable parameters).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import lru_cache

# every computational module loads on first use through the package
# namespace, so a call pays only for the modules its verb runs
import pathbij as pb

_PATH_TAGS = ("A", "D", "G", "P", "Pend", "Aend", "M2", "P2", "G2", "Ak", "Pk", "Gk")
_WALK_TAGS = ("Q", "Qx", "Qend", "H", "Hend", "Hij", "O", "Ox", "Odiag", "Osh")


# closed-form counts by (family, method), and the flags besides --n each reads;
# P, P2 and Pk are counted as G, G2 and Gk, the sets the bijections map them onto
_COUNTS = {
    ("A", "formula"): (lambda a: 2**a.n, ""),
    ("D", "formula"): (lambda a: pb.catalan(a.n // 2) if a.n % 2 == 0 else 0, ""),
    ("G", "formula"): (lambda a: pb.counting.binom(a.n, a.n // 2), ""),
    ("G2", "det"): (lambda a: pb.count_grand_tuples_det(a.n, 2), ""),
    ("G2", "product"): (lambda a: pb.count_macmahon((a.n + 1) // 2, a.n // 2, 2), ""),
    ("G2", "sum"): (lambda a: pb.count_g2_sum(a.n), ""),
    ("Gk", "det"): (lambda a: pb.count_grand_tuples_det(a.n, _need(a, "k")), "k"),
    ("Gk", "product"): (lambda a: pb.count_macmahon((a.n + 1) // 2, a.n // 2, _need(a, "k")), "k"),
    ("O", "formula"): (lambda a: pb.count_octant_total(a.n), ""),
    ("Ox", "formula"): (lambda a: pb.count_octant_xaxis(a.n), ""),
    ("Odiag", "formula"): (lambda a: pb.count_octant_diag(a.n // 2) if a.n % 2 == 0 else 0, ""),
    ("Qend", "formula"): (lambda a: _qend(a), "ij"),
}
_SAME_COUNT = {"P": "G", "P2": "G2", "Pk": "Gk"}
# the largest --n, and --k for Gk, that each method takes, so that no call
# runs unbounded. formula: count prints every digit and int-to-str is
# quadratic; at the limit the slowest formula call takes about 0.3 s, and
# printing 2^n at ten times it about 1 s. det, product and sum: a whole
# call at the limits, k included, takes 0.7 to 1.4 s (2-vCPU Linux,
# Python 3.11), against 0.1 s (det) and 0.3 s (product) at k = 2
_MAX_N_K = {
    "formula": (100_000, None),
    "det": (10_000, 10),
    "product": (300, 10),
    "sum": (3_000, None),
}


# the largest --max-n and --k that verify takes, the acceptance gate's
# budget. At the bounds the largest set a check holds is the 226,512 nested
# pairs of length 12 that tuple_count_agreement counts in P2 and G2; at
# --max-n 11 it would count those of length 13, past the enumeration budget
# of pathbij.families, and at --k 4 the 232,848 nested 4-tuples of length 8
_VERIFY_MAX_N_K = (10, 3)


def _need(args, name):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name} is required here")
    return value


def _reject_unread(args, fields, reads, user):
    from ._base import reject_unread  # on use: importing the CLI alone loads no submodule

    reject_unread(args, fields, reads, user)


def _qend(args):
    if (_need(args, "i"), _need(args, "j")) != (0, 0):
        raise ValueError("the closed form covers walks returning to the origin only")
    if args.n % 2:
        return 0
    m = args.n // 2
    return pb.catalan(m) * pb.catalan(m + 1)


def _family_spec(args):
    if args.family in _PATH_TAGS:
        return pb.FamilySpec(args.family, args.n, k=args.k, i=args.i, j=args.j, s=args.s)
    if args.family in _WALK_TAGS:
        if args.k is not None or args.s is not None:
            raise ValueError("--k and --s do not apply to walk families")
        return pb.WalkFamilySpec(args.family, args.n, i=args.i, j=args.j)
    raise ValueError(f"unknown family: {args.family!r}")


def _run_count(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n}")
    if args.method == "brute":
        value = pb.brute_count(_family_spec(args))
    else:
        family = _SAME_COUNT.get(args.family, args.family)
        entry = _COUNTS.get((family, args.method))
        if entry is None:
            have = sorted({m for f, m in _COUNTS if f == family} | {"brute"})
            raise ValueError(
                f"family {args.family} has no method {args.method!r}; available: {', '.join(have)}"
            )
        max_n, max_k = _MAX_N_K[args.method]
        if args.n > max_n:
            raise ValueError(f"--method {args.method} takes --n up to {max_n}, got {args.n}")
        if family == "Gk" and args.k is not None and not 1 <= args.k <= max_k:
            raise ValueError(f"--method {args.method} takes --k from 1 to {max_k}, got {args.k}")
        fn, reads = entry
        _reject_unread(args, "kijs", reads, f"--method {args.method}, which counts a full family,")
        value = fn(args)
    if not args.json:
        print(_exact(str, value))
        return 0
    import json

    record = {"family": args.family, "n": args.n, "method": args.method, "count": value}
    for name in ("k", "i", "j", "s"):
        if getattr(args, name) is not None:
            record[name] = getattr(args, name)
    print(_exact(json.dumps, record))
    return 0


def _exact(fmt, value) -> str:
    """fmt(value) with every digit of the integers in it, past the
    interpreter's int-to-str limit (Python >= 3.11), which is put back."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return fmt(value)
    sys.set_int_max_str_digits(0)
    try:
        return fmt(value)
    finally:
        sys.set_int_max_str_digits(limit)


# the largest --n and --k of apply, read by pp_to_tuple alone: the --n of
# --method formula and the --k of det and product; a call at both takes 0.2 s
_APPLY_MAX_N_K = (100_000, 10)


def _parse(kind, text):
    if kind == "pp":
        return pb.parse_pp(text)
    if kind in ("path", "walk"):
        return text
    paths = tuple(text.split(","))
    if kind == "pair" and len(paths) != 2:
        raise ValueError("a pair is encoded as two paths joined by a comma")
    return paths


def _own(kind, x):
    """The parameters a map reads off its own input: the box sides of a path
    tuple; the path length of an array with rows, whatever --n says."""
    if kind == "paths":
        return {"p": x[0].count("U"), "q": x[0].count("D")}
    return {"n": len(x) + len(x[0])} if kind == "pp" and x else {}


def _given_back(kind, x):
    """The parameters an inverse reads off x, the object it must give back."""
    if kind == "path":
        return {"s": pb.end_height(x)}
    if kind == "pair":
        return {"s": (pb.end_height(x[0]) + pb.end_height(x[1])) // 2}
    if kind == "walk":
        i, j = pb.walk_geometry(x).endpoint
        return {"s": i, "i": i, "j": j}
    return {"k": len(x), "n": len(x[0])} if kind == "paths" else {}


def _text(value) -> str:
    if isinstance(value, str):
        return value
    if all(isinstance(x, str) for x in value):
        return ",".join(value)
    return "; ".join(" ".join(str(x) for x in row) for row in value)


def _run_apply(args) -> int:
    from . import _maps  # on use: importing the CLI alone loads no submodule

    entry = _maps.MAPS.get(args.map)
    if entry is None:
        raise ValueError(f"unknown map {args.map!r}; available: {', '.join(sorted(_maps.MAPS))}")
    kind, reads, inverse = entry
    _reject_unread(args, "nkijs", reads, f"map {args.map}")
    x = _parse(kind, args.input)
    max_n, max_k = _APPLY_MAX_N_K
    if args.k is not None and not 1 <= args.k <= max_k:
        raise ValueError(f"apply takes --k from 1 to {max_k}, got {args.k}")
    if args.n is not None and args.n > max_n:
        raise ValueError(f"apply takes --n up to {max_n}, got {args.n}")

    def call(name, obj, values):
        # what the map reads off obj, else from values: the flags, or what x gives
        entry = _maps.MAPS[name]
        given = argparse.Namespace(**{**values, **_own(entry.kind, obj)})
        return _maps.call(name, obj, *(_need(given, c) for c in entry.reads))

    image, side = call(args.map, x, vars(args))
    # the round trip: the inverse reads what it cannot read off the image
    # from x, the object it must give back
    back, _ = call(inverse, image, {**vars(args), **_given_back(kind, x)})
    if back != x:
        print(
            f"error: {inverse} sends the image {_text(image)!r} to {_text(back)!r}, "
            f"not to the input",
            file=sys.stderr,
        )
        return 1
    text = _text(image)
    if args.json:
        import json

        info = {}
        if side is not None:  # a pair map's side output: its FlipRecord, or its flip positions
            info = side._asdict() if hasattr(side, "_asdict") else {"flips": list(side)}
        print(json.dumps({"map": args.map, "input": args.input, "result": text, **info}))
    else:
        print(text)
    return 0


def _run_verify(args) -> int:
    max_n, max_k = _VERIFY_MAX_N_K
    if args.max_n > max_n:
        raise ValueError(f"verify takes --max-n up to {max_n}, got {args.max_n}")
    if args.k > max_k:
        raise ValueError(f"verify takes --k up to {max_k}, got {args.k}")
    from . import verify

    start = time.perf_counter()
    results = verify.verify_suite(args.max_n, args.k)
    elapsed = time.perf_counter() - start
    # the wall time, then the summed check times and the processes that ran them
    workers = len({r.pid for r in results if r.pid}) or 1
    total = (
        f"total runtime: {elapsed:.1f}s (checks {sum(r.seconds for r in results):.1f}s "
        f"on {workers} worker{'s' * (workers > 1)})"
    )
    if args.json:
        import json

        for r in results:
            record = {
                "name": r.name, "range": r.range_text, "passed": r.passed,
                "counterexample": r.counterexample, "seconds": round(r.seconds, 6),
            }
            print(json.dumps(record))
        print(total, file=sys.stderr)
    else:
        print(verify.format_report(results))
        print(total)
    return 0 if all(r.passed for r in results) else 1


def _run_render(args) -> int:
    from .render import render_svg

    svg = render_svg(
        args.kind,
        args.input,
        show_matching=args.show_matching,
        show_flips=args.show_flips,
        show_shadow=args.show_shadow,
        i=args.i,
        j=args.j,
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        print(svg)
    return 0


# building the parser costs about as much as a small apply call; build it once
@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pathbij",
        description="Count path and walk families, apply the bijections, "
        "verify the identity suite, render SVG figures.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("count", help="cardinality of a family")
    c.add_argument("--family", required=True, help="family tag, e.g. G2, D, Qend")
    c.add_argument("--n", type=int, required=True, help="number of steps")
    c.add_argument("--k", type=int, help="tuple size for Ak/Pk/Gk")
    c.add_argument("--i", type=int)
    c.add_argument("--j", type=int)
    c.add_argument("--s", type=int, help="end height for Pend/Aend")
    c.add_argument("--method", default="brute", help="brute (default), det, product, sum, formula")
    c.add_argument("--json", action="store_true")
    c.set_defaults(run=_run_count)

    a = sub.add_parser("apply", help="apply a bijection to one object")
    a.add_argument("--map", required=True)
    a.add_argument("--input", required=True, help="object in its text encoding")
    a.add_argument("--n", type=int)
    a.add_argument("--k", type=int)
    a.add_argument("--i", type=int)
    a.add_argument("--j", type=int)
    a.add_argument("--s", type=int)
    a.add_argument("--json", action="store_true")
    a.set_defaults(run=_run_apply)

    v = sub.add_parser("verify", help="run the identity suite")
    v.add_argument("--max-n", type=int, default=10)
    v.add_argument("--k", type=int, default=2, help="largest tuple size checked")
    v.add_argument("--json", action="store_true", help="one record per check")
    v.set_defaults(run=_run_verify)

    r = sub.add_parser("render", help="draw an object as SVG")
    r.add_argument("--kind", required=True, help="path, pair, tripath or walk")
    r.add_argument("--input", required=True)
    r.add_argument("--i", type=int)
    r.add_argument("--j", type=int)
    r.add_argument("--show-matching", action="store_true")
    r.add_argument("--show-flips", action="store_true")
    r.add_argument("--show-shadow", action="store_true")
    r.add_argument("--out", help="output file (stdout when omitted)")
    r.set_defaults(run=_run_render)
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
