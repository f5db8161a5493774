"""Per-module attribution of time: wrap pathbij's public functions.

The package's modules import each other's functions by name
(`from .paths import heights`), so a wrapper is installed on every module
attribute, and every value of a module-level dict, that refers to a public
function defined in one of the layers below. Each wrapper counts calls and
measures self time: its duration minus the time spent in nested wrapped
calls. Time in private helpers is charged to the public function that
called them. Per-call times (`us_per_call`, `ms_per_call`) are inclusive.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("paths", "matching", "single", "pairs", "walks", "counting",
          "partitions", "verify", "render", "cli")
# functions whose result length is recorded as the number of members
ENUMERATORS = ("paths.enumerate_family", "walks.enumerate_walk_family")
CACHED = ("paths.heights", "matching.match_faces", "matching.tri_heights")


class Tracer:
    def __init__(self):
        # qualified name -> [calls, self seconds, inclusive seconds, members]
        self.stats: dict[str, list] = {}
        self._originals: dict[str, object] = {}
        self._stack: list[float] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        enumerator = name in ENUMERATORS

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - nested
                stat[2] += elapsed
                if stack:
                    stack[-1] += elapsed
            if enumerator:
                stat[3] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{layer}.{attr}"
                    self._originals[name] = obj
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        value[key] = swap(item)
                else:
                    setattr(module, attr, swap(value))

    def snapshot(self) -> dict:
        """Raw counters: per function [calls, self_s, total_s, members], plus the
        cache statistics of the per-input caches."""
        caches = {}
        for name in CACHED:
            info = self._originals[name].cache_info()
            caches[name] = [info.hits, info.misses, info.currsize]
        return {"functions": {k: list(v) for k, v in self.stats.items()}, "caches": caches}


def install(package, enabled: bool) -> Tracer | None:
    """A tracer wrapped around `package`, or None when tracing is off."""
    if not enabled:
        return None
    tracer = Tracer()
    tracer.install(package)
    return tracer


def merge(snapshots: list[dict]) -> dict:
    """Sum raw counters over rounds; cache sizes take the largest round."""
    functions: dict[str, list] = {}
    caches: dict[str, list] = {}
    for snap in snapshots:
        for name, values in snap.get("functions", {}).items():
            acc = functions.setdefault(name, [0, 0.0, 0.0, 0])
            for t, v in enumerate(values):
                acc[t] += v
        for name, (hits, misses, size) in snap.get("caches", {}).items():
            acc = caches.setdefault(name, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], size)
    return {"functions": functions, "caches": caches}


def layer_metrics(raw: dict) -> dict[str, float]:
    """Every per-layer metric the benchmark reports, from merged counters.

    A function the workload never called reads 0.
    """
    functions, caches = raw["functions"], raw["caches"]

    def stat(name):
        return functions.get(name, [0, 0.0, 0.0, 0])

    def calls(name):
        return stat(name)[0]

    def self_s(name):
        return stat(name)[1]

    def us_per_call(name):
        return 1e6 * stat(name)[2] / calls(name) if calls(name) else 0.0

    def module_self(layer):
        return sum(v[1] for k, v in functions.items() if k.startswith(layer + "."))

    def hit_ratio(name):
        hits, misses, _ = caches.get(name, [0, 0, 0])
        return hits / (hits + misses) if hits + misses else 0.0

    out: dict[str, float] = {}
    out["paths.heights.calls"] = calls("paths.heights")
    out["paths.heights.hit_ratio"] = hit_ratio("paths.heights")
    out["paths.heights.cache_entries"] = caches.get("paths.heights", [0, 0, 0])[2]
    out["matching.match_faces.calls"] = calls("matching.match_faces")
    out["matching.match_faces.self_s"] = self_s("matching.match_faces")
    out["matching.match_faces.hit_ratio"] = hit_ratio("matching.match_faces")
    out["matching.match_faces.cache_entries"] = caches.get("matching.match_faces", [0, 0, 0])[2]
    out["matching.tri_heights.hit_ratio"] = hit_ratio("matching.tri_heights")
    for name in ENUMERATORS:
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.members"] = stat(name)[3]
    for layer, maps in (
        ("single", ("xi", "xi_inv", "xi_s", "xi_s_inv", "nu", "nu_inv")),
        ("pairs", ("phi", "phi_inv", "psi", "psi_inv", "psi_s", "psi_s_inv",
                   "flip_below", "flip_below_inv")),
        ("walks", ("omega", "omega_inv", "phi_tilde", "phi_tilde_inv", "psi_tilde",
                   "psi_tilde_inv", "psi_tilde_s", "psi_tilde_s_inv")),
    ):
        out[f"{layer}.self_s"] = module_self(layer)
        for m in maps:
            out[f"{layer}.{m}.us_per_call"] = us_per_call(f"{layer}.{m}")
    for fn in ("catalan", "count_grand_tuples_det", "count_macmahon", "count_g2_sum",
               "count_octant_total", "count_octant_xaxis", "count_octant_diag", "brute_count"):
        out[f"counting.{fn}.self_s"] = self_s(f"counting.{fn}")
    out["partitions.tuple_to_pp.us_per_call"] = us_per_call("partitions.tuple_to_pp")
    out["partitions.pp_to_tuple.us_per_call"] = us_per_call("partitions.pp_to_tuple")
    out["partitions.enumerate_pp.self_s"] = self_s("partitions.enumerate_pp")
    out["verify.self_s"] = module_self("verify")
    out["cli.main.ms_per_call"] = us_per_call("cli.main") / 1000
    out["render.render_svg.us_per_call"] = us_per_call("render.render_svg")
    return out
