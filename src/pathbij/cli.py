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


def _run_count(args) -> int:
    value = pb.counting.count(args, args.method)
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
# the most cells of the p x q array tuple_to_pp fills, which grows with the
# square of the path length: about 0.3 s at the bound
_APPLY_MAX_CELLS = 1_000_000


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
        # the walk ends at the half sum and half difference of its pair's heights
        hp, hq = map(pb.end_height, pb.omega_inv(x))
        return {"s": (hp + hq) // 2, "i": (hp + hq) // 2, "j": (hp - hq) // 2}
    return {"k": len(x), "n": len(x[0])} if kind == "paths" else {}


def _text(value) -> str:
    if isinstance(value, str):
        return value
    if all(isinstance(x, str) for x in value):
        return ",".join(value)
    return "; ".join(" ".join(str(x) for x in row) for row in value)


def _run_apply(args) -> int:
    from . import _maps  # on use: importing the CLI alone loads no submodule
    from ._base import need, reject_unread, require

    entry = _maps.MAPS.get(args.map)
    if entry is None:
        raise ValueError(f"unknown map {args.map!r}; available: {', '.join(sorted(_maps.MAPS))}")
    kind, reads, inverse = entry
    reject_unread(args, "nkijs", reads, f"map {args.map}")
    x = _parse(kind, args.input)
    max_n, max_k = _APPLY_MAX_N_K
    if args.k is not None and not 1 <= args.k <= max_k:
        raise ValueError(f"apply takes --k from 1 to {max_k}, got {args.k}")
    if args.n is not None and args.n > max_n:
        raise ValueError(f"apply takes --n up to {max_n}, got {args.n}")
    box = _own(kind, x)
    cells = box.get("p", 0) * box.get("q", 0)
    msg = "apply takes a p x q box of up to {} cells, got {}"
    require(cells <= _APPLY_MAX_CELLS, msg, _APPLY_MAX_CELLS, cells)

    def call(name, obj, values):
        # what the map reads off obj, else from values: the flags, or what x gives
        entry = _maps.MAPS[name]
        given = argparse.Namespace(**{**values, **_own(entry.kind, obj)})
        return _maps.call(name, obj, *(need(given, c) for c in entry.reads))

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
