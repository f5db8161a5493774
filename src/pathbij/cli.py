"""Command-line front end: count families, apply maps, verify, render SVG.

Exit codes: 0 on success, 1 when the verification suite finds a failure,
2 on malformed input (bad flags, bad encodings, unsatisfiable parameters).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .counting import (
    binom,
    brute_count,
    catalan,
    count_g2_sum,
    count_grand_tuples_det,
    count_macmahon,
    count_octant_diag,
    count_octant_total,
    count_octant_xaxis,
)
from .pairs import FlipRecord, phi, phi_inv, psi, psi_inv, psi_s, psi_s_inv
from .partitions import parse_pp, pp_to_tuple, tuple_to_pp
from .paths import FamilySpec
from .render import render_svg
from .single import nu, nu_inv, xi, xi_inv, xi_s, xi_s_inv
from .verify import format_report, verify_suite
from .walks import (
    WalkFamilySpec,
    omega,
    omega_inv,
    phi_tilde,
    phi_tilde_inv,
    psi_tilde,
    psi_tilde_inv,
    psi_tilde_s,
    psi_tilde_s_inv,
)

_PATH_TAGS = ("A", "D", "G", "P", "Pend", "Aend", "M2", "P2", "G2", "Ak", "Pk", "Gk")
_WALK_TAGS = ("Q", "Qx", "Qend", "H", "Hend", "Hij", "O", "Ox", "Odiag", "Osh")


def _ambient(args):
    if args.i is not None or args.j is not None:
        raise ValueError(
            f"--method {args.method} counts the full family; drop --i/--j or use --method brute"
        )
    return args.n


# closed-form counts, keyed by (family, method)
_COUNTS = {
    ("A", "formula"): lambda a: 2**a.n,
    ("D", "formula"): lambda a: catalan(a.n // 2) if a.n % 2 == 0 else 0,
    ("P", "formula"): lambda a: binom(a.n, a.n // 2),
    ("G", "formula"): lambda a: binom(a.n, a.n // 2),
    ("G2", "det"): lambda a: count_grand_tuples_det(_ambient(a), 2),
    ("G2", "product"): lambda a: count_macmahon((a.n + 1) // 2, _ambient(a) // 2, 2),
    ("G2", "sum"): lambda a: count_g2_sum(_ambient(a)),
    ("P2", "det"): lambda a: count_grand_tuples_det(_ambient(a), 2),
    ("P2", "product"): lambda a: count_macmahon((a.n + 1) // 2, _ambient(a) // 2, 2),
    ("P2", "sum"): lambda a: count_g2_sum(_ambient(a)),
    ("Gk", "det"): lambda a: count_grand_tuples_det(a.n, _need(a, "k")),
    ("Gk", "product"): lambda a: count_macmahon((a.n + 1) // 2, a.n // 2, _need(a, "k")),
    ("Pk", "det"): lambda a: count_grand_tuples_det(a.n, _need(a, "k")),
    ("Pk", "product"): lambda a: count_macmahon((a.n + 1) // 2, a.n // 2, _need(a, "k")),
    ("O", "formula"): lambda a: count_octant_total(a.n),
    ("Ox", "formula"): lambda a: count_octant_xaxis(a.n),
    ("Odiag", "formula"): lambda a: count_octant_diag(a.n // 2) if a.n % 2 == 0 else 0,
    ("Qend", "formula"): lambda a: _qend(a),
}


def _need(args, name):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name} is required here")
    return value


def _qend(args):
    if (_need(args, "i"), _need(args, "j")) != (0, 0):
        raise ValueError("the closed form covers walks returning to the origin only")
    if args.n % 2:
        return 0
    m = args.n // 2
    return catalan(m) * catalan(m + 1)


def _family_spec(args):
    if args.family in _PATH_TAGS:
        return FamilySpec(args.family, args.n, k=args.k, i=args.i, j=args.j, s=args.s)
    if args.family in _WALK_TAGS:
        if args.s is not None:
            raise ValueError("--s does not apply to walk families")
        return WalkFamilySpec(args.family, args.n, i=args.i, j=args.j)
    raise ValueError(f"unknown family: {args.family!r}")


def _run_count(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n}")
    if args.method == "brute":
        spec = _family_spec(args)
        value = (
            brute_count(spec, args.max_n)
            if args.max_n is not None
            else brute_count(spec)
        )
    else:
        fn = _COUNTS.get((args.family, args.method))
        if fn is None:
            have = sorted(
                {m for f, m in _COUNTS if f == args.family} | {"brute"}
            )
            raise ValueError(
                f"family {args.family} has no method {args.method!r}; available: {', '.join(have)}"
            )
        value = fn(args)
    if args.json:
        record = {"family": args.family, "n": args.n, "method": args.method, "count": value}
        for name in ("k", "i", "j", "s"):
            if getattr(args, name) is not None:
                record[name] = getattr(args, name)
        print(json.dumps(record))
    else:
        print(value)
    return 0


def _one_path(text, args):
    return (text,)


def _two_paths(text, args):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("a pair is encoded as two paths joined by a comma")
    return tuple(parts)


def _pp_args(text, args):
    a = parse_pp(text)
    if a:
        return (a, len(a[0]), len(a))
    if args.n is None:
        raise ValueError("--n (the path length) is needed when the array has no rows")
    return (a, args.n, 0)


# map name -> (input parser, callable(args) -> extra positional args, output kind)
_MAPS = {
    "xi": (_one_path, lambda a: (), "path"),
    "xi_inv": (_one_path, lambda a: (), "path"),
    "xi_s": (_one_path, lambda a: (_need(a, "s"),), "path"),
    "xi_s_inv": (_one_path, lambda a: (), "path"),
    "nu": (_one_path, lambda a: (), "path"),
    "nu_inv": (_one_path, lambda a: (), "path"),
    "phi": (_two_paths, lambda a: (_need(a, "i"), _need(a, "j")), "pair"),
    "phi_inv": (_two_paths, lambda a: (_need(a, "i"), _need(a, "j")), "pair"),
    "psi": (_two_paths, lambda a: (), "pair"),
    "psi_inv": (_two_paths, lambda a: (), "pair"),
    "psi_s": (_two_paths, lambda a: (_need(a, "s"),), "pair"),
    "psi_s_inv": (_two_paths, lambda a: (), "pair"),
    "omega": (_two_paths, lambda a: (), "walk"),
    "omega_inv": (lambda t, a: (t,), lambda a: (), "pair"),
    "phi_tilde": (lambda t, a: (t,), lambda a: (), "walk"),
    "phi_tilde_inv": (lambda t, a: (t,), lambda a: (_need(a, "i"), _need(a, "j")), "walk"),
    "psi_tilde": (lambda t, a: (t,), lambda a: (), "walk"),
    "psi_tilde_inv": (lambda t, a: (t,), lambda a: (), "walk"),
    "psi_tilde_s": (lambda t, a: (t,), lambda a: (_need(a, "s"),), "walk"),
    "psi_tilde_s_inv": (lambda t, a: (t,), lambda a: (), "walk"),
    "tuple_to_pp": (
        lambda t, a: (lambda ps: (ps, ps[0].count("U"), ps[0].count("D")))(
            tuple(t.split(","))
        ),
        lambda a: (),
        "pp",
    ),
    "pp_to_tuple": (_pp_args, lambda a: (), "paths"),
}

_FUNCS = {
    "xi": xi, "xi_inv": xi_inv, "xi_s": xi_s, "xi_s_inv": xi_s_inv,
    "nu": nu, "nu_inv": nu_inv,
    "phi": phi, "phi_inv": phi_inv, "psi": psi, "psi_inv": psi_inv,
    "psi_s": psi_s, "psi_s_inv": psi_s_inv,
    "omega": omega, "omega_inv": omega_inv,
    "phi_tilde": phi_tilde, "phi_tilde_inv": phi_tilde_inv,
    "psi_tilde": psi_tilde, "psi_tilde_inv": psi_tilde_inv,
    "psi_tilde_s": psi_tilde_s, "psi_tilde_s_inv": psi_tilde_s_inv,
    "tuple_to_pp": lambda ps, p, q: tuple_to_pp(ps, p, q),
    "pp_to_tuple": lambda a, p, q, k: pp_to_tuple(a, k, p=p),
}


def _format_result(out):
    if isinstance(out, str):
        return out, {}
    if isinstance(out, tuple) and out and all(isinstance(x, str) for x in out):
        return ",".join(out), {}
    if isinstance(out, tuple) and all(isinstance(r, tuple) for r in out):
        return "; ".join(" ".join(str(x) for x in row) for row in out), {}
    # pair plus flip data
    first, second, extra = out
    text = f"{first},{second}"
    if isinstance(extra, FlipRecord):
        info = {
            "chi": list(extra.chi),
            "lower_returns": list(extra.lower_returns),
            "r": extra.r,
        }
    else:
        info = {"flips": list(extra)}
    return text, info


def _run_apply(args) -> int:
    entry = _MAPS.get(args.map)
    if entry is None:
        raise ValueError(
            f"unknown map {args.map!r}; available: {', '.join(sorted(_MAPS))}"
        )
    parse, extras, _kind = entry
    fn = _FUNCS[args.map]
    if args.map == "pp_to_tuple":
        a, p, q = _pp_args(args.input, args)
        out = fn(a, p, q, _need(args, "k"))
    else:
        out = fn(*parse(args.input, args), *extras(args))
    text, info = _format_result(out)
    if args.json:
        print(json.dumps({"map": args.map, "input": args.input, "result": text, **info}))
    else:
        print(text)
    return 0


def _run_verify(args) -> int:
    start = time.perf_counter()
    results = verify_suite(args.max_n, args.k)
    elapsed = time.perf_counter() - start
    if args.json:
        for r in results:
            print(
                json.dumps(
                    {
                        "name": r.name,
                        "range": r.range_text,
                        "passed": r.passed,
                        "counterexample": r.counterexample,
                    }
                )
            )
        print(f"total runtime: {elapsed:.1f}s", file=sys.stderr)
    else:
        print(format_report(results))
        print(f"total runtime: {elapsed:.1f}s")
    return 0 if all(r.passed for r in results) else 1


def _run_render(args) -> int:
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        print(svg)
    return 0


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
    c.add_argument(
        "--method",
        default="brute",
        help="brute (default), det, product, sum or formula",
    )
    c.add_argument("--max-n", type=int, help="budget for --method brute")
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
