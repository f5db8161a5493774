"""One round of a workload in a fresh interpreter, so pathbij's caches start empty.

    python3 bench/child.py import
    python3 bench/child.py certify <seed> <trace 0|1>
    python3 bench/child.py stream <seed> <trace 0|1>

Prints one JSON object. Inputs are generated before the clock starts;
outputs are checked after it stops, and after peak memory is read.
"""

from __future__ import annotations

import sys
import time

from program import import_package, peak_rss_mb
from tracing import install


def _import_probe() -> dict:
    start = time.perf_counter()
    import_package()
    import pathbij.cli  # noqa: F401  (the command's full import graph)

    return {"import_ms": 1000 * (time.perf_counter() - start)}


def _certify(seed: int, trace: bool) -> dict:
    from inputs import CERTIFY_BUDGET

    pb = import_package()
    import pathbij.verify

    tracer = install(pb, trace)
    start = time.perf_counter()
    results = pathbij.verify.verify_suite(**CERTIFY_BUDGET)
    elapsed = time.perf_counter() - start
    rss = peak_rss_mb()
    snapshot = tracer.snapshot() if tracer else None
    failed_checks = [f"{r.name}: {r.counterexample}" for r in results if not r.passed]
    return {
        "round_s": elapsed,
        "rss_mb": rss,
        "ops": len(results),
        "failed": 0,
        "op_ms": [1000 * elapsed],
        "bad": failed_checks + _family_sizes(pb, CERTIFY_BUDGET["max_n"], CERTIFY_BUDGET["max_k"]),
        "trace": snapshot,
    }


def _family_sizes(pb, max_n: int, max_k: int) -> list[str]:
    """Compare the enumerated families verify swept with the DP oracles."""
    from oracles import octant_counts, origin_quadrant_counts, pair_sectors, tuple_census

    spec, wspec = pb.FamilySpec, pb.WalkFamilySpec
    bad = []
    for n in range(max_n + 1):
        for (i, j), sizes in pair_sectors(n).items():
            got = tuple(len(pb.enumerate_family(spec(f, n, i=i, j=j))) for f in ("M2", "P2", "G2"))
            if got != sizes:
                bad.append(f"M2/P2/G2({n},{i};{j}) sizes {got}, oracle {sizes}")
    # verify's tuple counts reach n = max_n + 2 for k <= 2
    for k in range(1, max_k + 1):
        for n in range(max_n + 3):
            want = tuple_census(n, k)
            fams = ("Ak", "Pk", "Gk") if n <= max_n else ("Pk", "Gk")
            for f in fams:
                got = len(pb.enumerate_family(spec(f, n, k=k)))
                if got != want[f]:
                    bad.append(f"|{f}| at n={n}, k={k}: {got}, oracle {want[f]}")
    oct_n = max_n + 1
    walks = octant_counts(oct_n)
    origin = origin_quadrant_counts(oct_n)
    for n in range(oct_n + 1):
        for f in ("O", "Ox", "Odiag"):
            got = len(pb.enumerate_walk_family(wspec(f, n)))
            if got != walks[f][n]:
                bad.append(f"|{f}_{n}| = {got}, oracle {walks[f][n]}")
        got = len(pb.enumerate_walk_family(wspec("Qend", n, i=0, j=0)))
        if got != origin[n]:
            bad.append(f"|Qend_{n}(0,0)| = {got}, oracle {origin[n]}")
    return bad


def _stream(seed: int, trace: bool) -> dict:
    from inputs import stream_inputs
    from maps import BY_KIND, MAPS, verify_round_trip

    pb = import_package()
    items = stream_inputs(seed)
    tracer = install(pb, trace)
    clock = time.perf_counter
    outputs = []
    op_ms = []
    map_s = dict.fromkeys(MAPS, 0.0)
    map_n = dict.fromkeys(MAPS, 0)
    failed = 0
    start = clock()
    for kind, x in items:
        for name in BY_KIND[kind]:
            m = MAPS[name]
            t0 = clock()
            try:
                y = m.forward(pb, x)
                t1 = clock()
                z = m.inverse_call(pb, x, y)
            except ValueError as exc:
                failed += 1
                outputs.append((name, x, exc, None))
                continue
            t2 = clock()
            op_ms.append(1000 * (t2 - t0))
            map_s[name] += t1 - t0
            map_n[name] += 1
            outputs.append((name, x, y, z))
    elapsed = clock() - start
    rss = peak_rss_mb()
    snapshot = tracer.snapshot() if tracer else None
    bad = [
        f"{name} on {x}: {y!r}"
        for name, x, y, z in outputs
        if z is not None and not verify_round_trip(pb, name, x, y, z)
    ]
    return {
        "round_s": elapsed,
        "rss_mb": rss,
        "ops": len(outputs),
        "failed": failed,
        "op_ms": op_ms,
        "map_us": {name: 1e6 * map_s[name] / max(map_n[name], 1) for name in MAPS},
        "bad": bad[:5],
        "trace": snapshot,
    }


def main(argv: list[str]) -> dict:
    task = argv[0]
    if task == "import":
        return _import_probe()
    seed, trace = int(argv[1]), argv[2] == "1"
    if task == "certify":
        return _certify(seed, trace)
    if task == "stream":
        return _stream(seed, trace)
    raise SystemExit(f"unknown task {task!r}")


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv[1:])))
