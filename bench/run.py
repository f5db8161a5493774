"""Benchmark for pathbij: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20   # every workload, plain and traced
    python3 bench/run.py --regenerate                   # rebuild bench/count_refs.json

A run sets up SETUP_REPEATS times, then repeats whole rounds of its
workload until --seconds have passed, then checks every output. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics, from wrappers around pathbij's public
functions. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is the
run's record, with machine and revision metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter

import program
from inputs import CERTIFY_BUDGET, cli_round, count_grid, count_limits, stream_inputs
from oracles import (
    MODULUS,
    dyck_counts,
    grand_tuple_counts,
    octant_counts,
    origin_quadrant_counts,
    tuple_census,
    tuple_layers,
)
from tracing import install, layer_metrics, merge

REFS = program.BENCH / "count_refs.json"
SETUP_REPEATS = 7
WORKLOADS = ("certify", "stream", "count", "cli")


def _setup(make_inputs):
    """Set up SETUP_REPEATS times: a fresh interpreter imports the whole
    package, then the workload builds its inputs. Returns the median time,
    the in-interpreter import times (ms) and the inputs."""
    times, import_ms = [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_ms.append(program.run_child("import")["import_ms"])
        inputs = make_inputs()
        times.append(time.perf_counter() - start)
    return statistics.median(times), import_ms, inputs


def _rounds(seconds: float, one_round) -> list:
    """Whole rounds, started while fewer than `seconds` have passed."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(one_round())
    return out


# ---------------------------------------------------------------------------
# certify and stream: each round is a fresh interpreter (child.py)


def _in_children(task: str, seed: int, seconds: float, trace: bool, make_inputs):
    """Set up, then run rounds of child.py <task>; return the common result
    fields, the rounds and the inputs."""
    setup_s, import_ms, inputs = _setup(make_inputs)
    rounds = _rounds(seconds, lambda: program.run_child(task, seed, int(trace)))
    res = {
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "bad": [b for r in rounds for b in r["bad"]],
        "setup_s": setup_s,
        "import_ms": import_ms,
        "round_s": [r["round_s"] for r in rounds],
        "op_ms": [t for r in rounds for t in r["op_ms"]],
        "rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "trace": [r["trace"] for r in rounds if r["trace"]],
    }
    return res, rounds, inputs


def certify(seed: int, seconds: float, trace: bool) -> dict:
    res, _, _ = _in_children("certify", seed, seconds, trace, lambda: None)
    res["summary"] = {"certify_s": (statistics.median(res["round_s"]), "s")}
    res["inputs"] = {"verify_suite": CERTIFY_BUDGET}
    return res


def stream(seed: int, seconds: float, trace: bool) -> dict:
    res, rounds, items = _in_children("stream", seed, seconds, trace, lambda: stream_inputs(seed))
    res["summary"] = {
        "stream_roundtrips_per_s": ((res["attempted"] - res["failed"]) / sum(res["round_s"]), "1/s"),
        "map_us_per_call": ({m: statistics.median(r["map_us"][m] for r in rounds)
                             for m in rounds[0]["map_us"]}, "us"),
    }
    res["inputs"] = {"items_per_kind": dict(Counter(kind for kind, _ in items))}
    return res


# ---------------------------------------------------------------------------
# count: closed forms in this process, checked against stored oracle values


def _forms(k: int):
    both = (
        ("det", lambda pb, n: pb.count_grand_tuples_det(n, k)),
        ("macmahon", lambda pb, n: pb.count_macmahon((n + 1) // 2, n // 2, k)),
    )
    if k != 2:
        return both
    return both + (
        ("sum", lambda pb, n: pb.count_g2_sum(n)),
        ("octant_total", lambda pb, n: pb.count_octant_total(n)),
        ("octant_xaxis", lambda pb, n: pb.count_octant_xaxis(n)),
        ("octant_diag", lambda pb, n: pb.count_octant_diag(n // 2)),
        ("catalan", lambda pb, n: pb.catalan(n)),
    )


def regenerate_refs() -> None:
    """Recompute every stored count from the DP oracles (a few minutes)."""
    limits = count_limits()
    refs = {
        "modulus": MODULUS,
        "limits": {str(k): v for k, v in limits.items()},
        "G2": grand_tuple_counts(limits[2], 2, MODULUS),
        "G3": grand_tuple_counts(limits[3], 3, MODULUS),
        "catalan": dyck_counts(limits[2], MODULUS),
        **octant_counts(limits[2], MODULUS),
    }
    REFS.write_text(json.dumps(refs, separators=(",", ":")) + "\n")


def load_refs() -> dict:
    refs = json.loads(REFS.read_text())
    limits = {int(k): v for k, v in refs["limits"].items()}
    if refs["modulus"] != MODULUS or any(limits.get(k, -1) < v for k, v in count_limits().items()):
        raise SystemExit("error: bench/count_refs.json does not cover the grid; "
                         "run python3 bench/run.py --regenerate")
    return refs


def _count_expected(refs: dict, n: int, k: int, form: str) -> int:
    """Residue every exact result must have, from the stored oracle values."""
    if k == 3:
        return refs["G3"][n]
    table, index = {
        "det": ("G2", n), "macmahon": ("G2", n), "sum": ("G2", n),
        "octant_total": ("O", n), "octant_xaxis": ("Ox", n),
        "octant_diag": ("Odiag", 2 * (n // 2)), "catalan": ("catalan", n),
    }[form]
    return refs[table][index]


def _count_round(pb, grid) -> dict:
    values, failed = [], 0
    start = time.perf_counter()
    for n, k in grid:
        for form, fn in _forms(k):
            try:
                values.append((n, k, form, fn(pb, n)))
            except ValueError:
                failed += 1
    return {"round_s": time.perf_counter() - start, "values": values, "failed": failed}


def count(seed: int, seconds: float, trace: bool) -> dict:
    pb = program.import_package()
    setup_s, import_ms, (grid, refs) = _setup(lambda: (count_grid(seed), load_refs()))
    tracer = install(pb, trace)
    rounds = _rounds(seconds, lambda: _count_round(pb, grid))
    rss = program.peak_rss_mb()
    snapshot = tracer.snapshot() if tracer else None
    bad = []
    for r in rounds:
        for n, k, form, value in r["values"]:
            if not isinstance(value, int) or value % MODULUS != _count_expected(refs, n, k, form):
                bad.append(f"{form}(n={n}, k={k}) disagrees with the oracle")
    round_s = [r["round_s"] for r in rounds]
    return {
        "attempted": sum(len(r["values"]) + r["failed"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "bad": bad,
        "setup_s": setup_s,
        "import_ms": import_ms,
        "round_s": round_s,
        "op_ms": [1000 * t for t in round_s],
        "rss_mb": rss,
        "trace": [snapshot] if snapshot else [],
        "summary": {"count_s": (statistics.median(round_s), "s")},
        "inputs": {"grid": grid},
    }


# ---------------------------------------------------------------------------
# cli: one pathbij process per call, closed loop, one client


def _cli_call(pb, argv: list[str], trace: bool):
    """Exit code, stdout and stderr of one call; traced calls run in this
    process through pathbij.cli.main."""
    if not trace:
        proc = program.run(["-m", "pathbij", *argv], timeout=60)
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pb.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_round(pb, calls, trace: bool) -> dict:
    results, op_ms = [], []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        results.append((call, *_cli_call(pb, call["argv"], trace)))
        op_ms.append(1000 * (time.perf_counter() - t0))
    return {"round_s": time.perf_counter() - start, "op_ms": op_ms, "results": results}


def _oracle_count(family: str, n: int, k: int) -> int:
    if family in ("A", "P", "G"):
        return tuple_census(n, 1)[{"A": "Ak", "P": "Pk", "G": "Gk"}[family]]
    if family == "D":
        *_, last = tuple_layers(n, 1, floor=True)
        return last.get((0,), 0)
    if family in ("O", "Ox", "Odiag"):
        return octant_counts(n)[family][n]
    if family == "Qend":
        return origin_quadrant_counts(n)[n]
    return tuple_census(n, k)["Gk" if family in ("G2", "Gk") else "Pk"]


def _cli_bad(call, out: str, oracle) -> str | None:
    """Why a call that exited as it must printed the wrong thing, or None."""
    text = out.strip()
    expect = call["expect"]
    if expect == "apply" and text != call["prints"]:
        return f"{call['argv']} printed {text!r}, expected {call['prints']!r}"
    if expect == "count":
        want = oracle(call["family"], call["n"], call["k"])
        if text != str(want):
            return f"{call['argv']} printed {text!r}, oracle {want}"
    if expect == "render" and not (text.startswith("<svg") and text.endswith("</svg>")):
        return f"{call['argv']} did not print an SVG document"
    if expect in ("error", "negative_n") and text:
        return f"{call['argv']} printed {text[:80]!r} on malformed input"
    return None


def cli(seed: int, seconds: float, trace: bool) -> dict:
    pb = program.import_package()
    setup_s, import_ms, calls = _setup(lambda: cli_round(seed, pb))
    tracer = install(pb, trace)
    rounds = _rounds(seconds, lambda: _cli_round(pb, calls, trace))
    rss = program.peak_rss_mb(resource.RUSAGE_CHILDREN)
    snapshot = tracer.snapshot() if tracer else None
    oracle_cache: dict = {}

    def oracle(*key):
        if key not in oracle_cache:
            oracle_cache[key] = _oracle_count(*key)
        return oracle_cache[key]

    failed, bad = 0, []
    for r in rounds:
        for call, code, out, err in r["results"]:
            if code != (2 if call["expect"] in ("error", "negative_n") else 0):
                failed += 1
                continue
            why = _cli_bad(call, out, oracle)
            if why:
                bad.append(why)
    op_ms = sorted(t for r in rounds for t in r["op_ms"])
    summary = {"cli_call_p50_ms": (statistics.median(op_ms), "ms"), "cli_calls": (len(op_ms), "count")}
    # a tail percentile needs at least ten samples beyond it
    if len(op_ms) >= 100:
        summary["cli_call_p90_ms"] = (statistics.quantiles(op_ms, n=10)[-1], "ms")
    return {
        "attempted": len(op_ms),
        "failed": failed,
        "bad": bad,
        "setup_s": setup_s,
        "import_ms": import_ms,
        "round_s": [r["round_s"] for r in rounds],
        "op_ms": op_ms,
        "rss_mb": rss,
        "trace": [snapshot] if snapshot else [],
        "summary": summary,
        "inputs": {"calls_per_round": len(calls),
                   "by_kind": {k: sum(c["expect"] == k for c in calls)
                               for k in ("apply", "count", "render", "error", "negative_n")}},
    }


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, record)."""
    res = {"certify": certify, "stream": stream, "count": count, "cli": cli}[name](seed, seconds, trace)
    config = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    if trace:
        values = layer_metrics(merge(res["trace"]))
        values["cli.import_ms"] = statistics.median(res["import_ms"])
        values["trace.round_s"] = statistics.median(res["round_s"])
        wanted = config["per_layer"]
    else:
        values = {
            "setup_s": res["setup_s"],
            "peak_rss_mb": res["rss_mb"],
            "round_s": statistics.median(res["round_s"]),
            "op_p50_ms": statistics.median(res["op_ms"]),
        }
        wanted = config["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {
        "correct": not res["bad"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(res["round_s"]),
        "round_s": res["round_s"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "correct": line["correct"],
        "first_errors": res["bad"][:3],
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in res["summary"].items()},
        "inputs": res["inputs"],
        "machine": program.metadata(),
    }
    return line, record


def run_all(seed: int, seconds: float) -> dict:
    """Every workload plain and traced, each run in its own process, as a
    single run would be; print each metric by name."""
    records = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = program.run([__file__, "--workload", name, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace)], timeout=600)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            *_, record_line, result_line = proc.stdout.strip().splitlines()
            record = json.loads(record_line.removeprefix("record: "))
            line = json.loads(result_line)
            records.append({**record, "metrics": line["metrics"]})
            tag = "per-layer" if trace else "end-to-end"
            print(f"== {name} ({tag}): correct={line['correct']} attempted={line['attempted']} "
                  f"failed={line['failed']} rounds={record['rounds']}", flush=True)
            for key, m in line["metrics"].items():
                print(f"{name:8} {key:42} {m['value']:>14.6g} {m['unit']}")
            if not trace:
                for key, m in record["summary"].items():
                    value = m["value"]
                    shown = json.dumps(value) if isinstance(value, dict) else f"{value:>14.6g}"
                    print(f"{name:8} {key:42} {shown} {m['unit']}")
    return {
        "seed": seed,
        "seconds": seconds,
        "machine": program.metadata(),
        "workloads": records,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, plain and traced")
    ap.add_argument("--regenerate", action="store_true", help="rebuild the stored oracle counts")
    args = ap.parse_args(argv)
    if args.regenerate:
        regenerate_refs()
        return 0
    program.require_package()
    if args.all:
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    if args.workload is None:
        ap.error("--workload, --all or --regenerate is required")
    line, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record:", json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
