"""The identity suite: one check per published identity, each defined once.

Each _check_* function sweeps exactly the range its arguments give and
returns None or the first counterexample. The eleven bijection checks share
one proof, _bijection, over classes that are data: a class is its
coordinates (n=4, i=2, j=0), which name it in a failure and give each map
the parameters it reads, and its domain and codomain, family specs that
_bijection enumerates itself. The M2 sectors come from one list, _sectors.
The counting identities share another proof, _agree, over the counts of
pathbij.counting.count, the ones `pathbij count` prints.
verify_suite(max_n, max_k) derives every bound from its two budgets, at
most 10 and 3: element sweeps run to max_n, counting identities a little
beyond, arithmetic ones to 2 * max_n. The
checks are independent, so verify_suite runs them in worker processes, one
per available CPU, and reports them in table order.
tests/test_acceptance.py gates on verify_suite(10, 3).
"""

from __future__ import annotations

import itertools
import os
import time
from typing import NamedTuple

import pathbij as pb  # every map is looked up here at call time: a patch reaches every check

from ._base import require
from ._maps import MAPS, call
from .counting import count, count_macmahon
from .families import FamilySpec, _nested_tuples, enumerate_family
from .matching import match_faces, tri_heights, unmatched_steps
from .partitions import enumerate_pp
from .paths import end_height, heights, lexkey, valid_ij
from .walks import _DXY, shadow_contains


class CheckResult(NamedTuple):
    name: str
    range_text: str
    passed: bool
    counterexample: str | None = None
    seconds: float = 0.0
    pid: int = 0  # the process that ran the check; 0 if none did

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tail = "" if self.counterexample is None else f"  {self.counterexample}"
        return f"{self.name:<28} {self.range_text:<24} {verdict}{tail}"


def format_report(results) -> str:
    return "\n".join(r.line() for r in results)


def _check_families(n_max):
    for n in range(n_max + 1):
        for fam in "ADGP":
            members = enumerate_family(FamilySpec(fam, n))
            keys = [lexkey(p) for p in members]
            if keys != sorted(keys) or len(set(members)) != len(members):
                return f"family {fam}, n={n}: unsorted or duplicated"
    return _agree(
        [(spec, "brute"), (spec, "formula")]
        for n in range(n_max + 1)
        for spec in (FamilySpec(fam, n) for fam in "ADGP")
    )


def _check_matching(n_max):
    """The leftover steps of match_faces come in order, their D steps are
    the new minima, and the flip kernel, a separate scan, finds the same
    ones, on every U/D/H word."""
    for n in range(n_max + 1):
        for t in itertools.product("UDH", repeat=n):
            w = "".join(t)
            m = match_faces(w)
            if unmatched_steps(w) != (m.unmatched_d, m.unmatched_u):
                return f"flip kernel differs from match_faces: {w}"
            if m.unmatched_d and m.unmatched_u and m.unmatched_d[-1] >= m.unmatched_u[0]:
                return f"leftover word out of order: {w}"
            low = min(tri_heights(w) + (0,))
            if len(m.unmatched_d) != -low:
                return f"unmatched D count wrong: {w}"
    return None


def _bijection(classes, forward):
    """The proof the bijection checks share. A class is (at, domain,
    codomain): at maps each coordinate of the class to its value, and a
    side is a family spec, or a list of members where the set is no family.
    forward maps the domain onto the codomain one-to-one: the name of a map
    of pathbij._maps, whose inverse gives each x back, each reading its
    parameters by name from at, or a function of x alone without an
    inverse. Returns None or the first failure: the class's coordinates,
    then the element."""
    inverse = MAPS[forward].inverse if isinstance(forward, str) else None
    held = {}  # the members of the last class's specs, which the next class may share
    for at, *sides in classes:
        specs = [s for s in sides if not isinstance(s, list)]
        held = {s: held[s] if s in held else enumerate_family(s) for s in specs}
        domain, codomain = (s if isinstance(s, list) else held[s] for s in sides)
        label = _fields(at.items())
        if inverse is not None:
            there, back = ([at[c] for c in MAPS[m].reads] for m in (forward, inverse))
        image = set()
        for x in domain:
            if inverse is None:
                y = forward(x)
            else:
                y = call(forward, x, *there)[0]
                if call(inverse, y, *back)[0] != x:
                    return f"{label}: roundtrip fails on {x}"
            image.add(y)
        if not len(domain) == len(image) == len(codomain) or image != set(codomain):
            return f"{label}: image is not the codomain"
    return None


def _agree(cases):
    """The proof the counting checks share. A case is a list of (spec,
    method) pairs that pathbij.counting.count must give one count. Returns
    None or the first case that fails, with each pair's count."""
    for case in cases:
        counts = [count(spec, method) for spec, method in case]
        if len(set(counts)) > 1:
            return ", ".join(f"{_label(s)} {m} {c}" for (s, m), c in zip(case, counts))
    return None


def _fields(pairs):
    # n=5, k=2: each field that is set, with its value
    return ", ".join(f"{f}={v}" for f, v in pairs if v is not None)


def _label(spec):
    # Gk(n=5, k=2): the family and the fields it sets
    return f"{spec.family}({_fields(zip(spec._fields[1:], spec[1:]))})"


def _check_xi(n_max):
    for n in range(n_max + 1):
        for p in enumerate_family(FamilySpec("P", n)):
            if match_faces(pb.xi(p)).pairs != match_faces(p).pairs:
                return f"xi breaks facing pairs: {p}"
    classes = (({"n": n}, FamilySpec("P", n), FamilySpec("G", n)) for n in range(n_max + 1))
    return _bijection(classes, "xi")


def _check_xi_s(n_max):
    """xi_s maps the prefixes ending at i onto Aend(n, s=s, i=i), the paths
    ending at s with minimum -(i-s)/2, for every valid (i, s). The classes
    of one i share their domain, so its prefixes are enumerated once."""
    classes = (
        ({"n": n, "i": i, "s": s}, FamilySpec("Pend", n, s=i), FamilySpec("Aend", n, i=i, s=s))
        for n in range(n_max + 1)
        for i in range(n % 2, n + 1, 2)
        for s in range(i % 2, i + 1, 2)
    )
    return _bijection(classes, "xi_s")


def _check_nu(n_max):
    classes = (
        ({"n": n}, FamilySpec("P", n), FamilySpec("Aend", n, s=-(n % 2))) for n in range(n_max + 1)
    )
    return _bijection(classes, "nu")


def _sectors(n_max):
    # the coordinates of every M2(n,i;j) sector with n <= n_max
    return ({"n": n, "i": i, "j": j} for n in range(n_max + 1) for i, j in valid_ij(n))


def _check_phi_sector(n_max):
    # nesting, the floor and the sector are membership in P2(n,i;j)
    classes = ((at, FamilySpec("M2", **at), FamilySpec("P2", **at)) for at in _sectors(n_max))
    return _bijection(classes, "phi")


def _check_flip_heights(n_max):
    for n in range(n_max + 1):
        for q in enumerate_family(FamilySpec("A", n)):
            if end_height(q) < 0:
                continue
            qp, rec = pb.flip_below(q)
            hq, hqp = heights(q), heights(qp)
            gained = 0
            for a in range(1, n + 1):
                if a in rec.lower_returns:
                    gained += 1
                if hqp[a - 1] != abs(hq[a - 1]) + 2 * gained:
                    return f"height profile wrong after flips: {q} at a={a}"
            if pb.flip_below_inv(qp, rec.r) != q:
                return f"flip_below roundtrip fails: {q}"
    return None


def _check_flip_records(n_max):
    for at in _sectors(n_max):
        m2 = FamilySpec("M2", **at)
        for p, q in enumerate_family(m2):
            qp, _ = pb.flip_below(q)
            _, _, rec = pb.phi(p, q, m2.i, m2.j)
            if not (rec.r - m2.j <= len(rec.chi) <= rec.r):
                return f"flip count outside bounds: {p}/{q}"
            hp = (0,) + heights(p)
            hqp = (0,) + heights(qp)
            chi_seen = ret_seen = running = 0
            for a in range(m2.n + 1):
                running = max(running, hqp[a] - hp[a])
                chi_seen += a in rec.chi
                ret_seen += a in rec.lower_returns
                if 2 * chi_seen != running or running > 2 * ret_seen:
                    return f"flip prefix identity fails: {p}/{q} at a={a}"
    return None


def _check_psi_sector(n_max):
    # the endpoints and the depth are membership in G2(n,i;j)
    classes = ((at, FamilySpec("M2", **at), FamilySpec("G2", **at)) for at in _sectors(n_max))
    return _bijection(classes, "psi")


def _check_composed_map(n_max):
    # psi after phi_inv, with no inverse: the count gives injectivity
    classes = (({"n": n}, FamilySpec("P2", n), FamilySpec("G2", n)) for n in range(n_max + 1))
    return _bijection(classes, lambda pq: pb.psi(*pb.phi_inv(*pq, end_height(pq[1]), 0)[:2])[:2])


def _check_floor_pairs(n_max):
    """For every n and s, psi_s after phi_inv maps {P2 : h(Q~) >= s}
    one-to-one onto the nested pairs that both end at s. A bijection between
    the two sets is also the count identity between them."""

    def classes():
        for n in range(n_max + 1):
            p2 = enumerate_family(FamilySpec("P2", n))
            preimages = [(end_height(q), pb.phi_inv(p, q, end_height(q), 0)[:2]) for p, q in p2]
            for s in range(n % 2, n + 1, 2):
                domain = [pair for i, pair in preimages if i >= s]
                yield {"n": n, "s": s}, domain, list(_nested_tuples(n, 2, False, s))

    return _bijection(classes(), "psi_s")


_STEP_PAIRS = (("U", "U", 1, 1), ("U", "D", 1, -1), ("D", "U", -1, 1), ("D", "D", -1, -1))


def _check_step_dictionary(n_max):
    """The walk omega(P, Q) sits at the half sum and half difference of the
    two height profiles: 2x = h(P)+h(Q) and 2y = h(P)-h(Q) after every step.
    The rest of the dictionary follows at every prefix: h(Q) = x-y, h(P) =
    x+y, min(h(P)-h(Q)) = 2 min y, min(h(P)+h(Q)) = 2 min x and min h(Q) =
    min(x-y), so nesting, the floor -P, the floor of Q and the endpoints
    read off the walk; sector membership is the endpoint rows plus
    _check_shadow. Pairs are visited depth first, each one step pair longer
    than its parent, whose walk its own must extend: O(1) work per pair.
    Since the positions of a walk give back both profiles, the visit proves
    omega one-to-one on all 4^n pairs, hence onto the 4^n walks; omega_inv
    must give each pair back."""

    def visit(p, q, w, hp, hq, x, y):
        if 2 * x != hp + hq or 2 * y != hp - hq:
            return f"dictionary row fails: {p}/{q}"
        if pb.omega_inv(w) != (p, q):
            return f"omega roundtrip fails: {p}/{q}"
        for a, b, da, db in _STEP_PAIRS if len(p) < n_max else ():
            wc = pb.omega(p + a, q + b)
            if wc[:-1] != w:
                return f"omega does not extend step by step: {p + a}/{q + b}"
            dx, dy = _DXY[wc[-1]]
            bad = visit(p + a, q + b, wc, hp + da, hq + db, x + dx, y + dy)
            if bad:
                return bad
        return None

    return visit("", "", "", 0, 0, 0, 0)


def _check_conjugation(n_max):
    """The walk maps are omega's conjugates of the pair maps, and the walk
    inverses undo them. phi_tilde_inv runs on the walk itself, so its round
    trip tests an implementation independent of phi_inv, whose own round
    trip phi_sector_bijection tests."""
    for at in _sectors(n_max):
        m2 = FamilySpec("M2", **at)
        for p, q in enumerate_family(m2):
            w = pb.omega(p, q)
            wf = pb.phi_tilde(w)
            if wf != pb.omega(*pb.phi(p, q, m2.i, m2.j)[:2]):
                return f"phi conjugation fails: {p}/{q}"
            if pb.phi_tilde_inv(wf, m2.i, m2.j) != w:
                return f"phi_tilde roundtrip fails: {w}"
            wh = pb.psi_tilde(w)
            if wh != pb.omega(*pb.psi(p, q)[:2]):
                return f"psi conjugation fails: {p}/{q}"
            if pb.psi_tilde_inv(wh) != w:
                return f"psi_tilde roundtrip fails: {w}"
            for s in range(m2.i % 2, m2.i + 1, 2):
                if pb.psi_tilde_s(w, s) != pb.omega(*pb.psi_s(p, q, s)[:2]):
                    return f"psi_s conjugation fails: {p}/{q}, s={s}"
    return None


def _check_psi_tilde_s_union(n_max):
    # psi_tilde_s maps the Q walks ending at (i, j), all i >= s, onto the H walks ending at (s, j)
    def classes():
        for n in range(n_max + 1):
            for s in range(n + 1):
                for j in range((n - s) % 2, n - s + 1, 2):
                    columns = (FamilySpec("Qend", n, i=i, j=j) for i in range(s, n - j + 1, 2))
                    domain = [w for column in columns for w in enumerate_family(column)]
                    yield {"n": n, "s": s, "j": j}, domain, FamilySpec("Hend", n, i=s, j=j)

    return _bijection(classes(), "psi_tilde_s")


def _check_phi_tilde_identity(n_max):
    for n in range(n_max + 1):
        for w in enumerate_family(FamilySpec("Ox", n)):
            if pb.phi_tilde(w) != w:
                return f"phi_tilde moves an axis octant walk: {w}"
    return None


# the (i, j) whose regions sh(i,j) _check_shadow probes
_SHADOW_PROBES = ((0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (4, 0), (4, 2))


def _check_shadow(xy_max):
    for i, j in _SHADOW_PROBES:
        for x in range(-xy_max, xy_max + 1):
            for y in range(-xy_max, xy_max + 1):
                expected = i - j <= x - y <= i + j <= x + y
                if shadow_contains(i, j, x, y) != expected:
                    return f"shadow wrong at ({i},{j}) vs ({x},{y})"
    return None


def _check_hij_g2(n_max):
    # omega maps each G2 sector onto the walks Hij(n, i, j), and omega_inv undoes it
    classes = ((at, FamilySpec("G2", **at), FamilySpec("Hij", **at)) for at in _sectors(n_max))
    return _bijection(classes, "omega")


def _check_det_vs_box(n_max, k_max):
    return _agree(
        [(spec, "det"), (spec, "product")]
        for n in range(n_max + 1)
        for spec in (FamilySpec("Gk", n, k=k) for k in range(1, k_max + 1))
    )


def _check_g2_sum(n_max):
    # G2 by det and product is Gk at k = 2, and P2 is counted as G2
    return _agree(
        [(g2, "sum"), (g2, "det"), (g2._replace(family="P2"), "product")]
        for g2 in (FamilySpec("G2", n) for n in range(n_max + 1))
    )


def _check_tuple_counts(n_max_by_k):
    """|P^k_n| = |G^k_n| by enumeration, and = det; n <= n_max_by_k[k]."""
    return _agree(
        [(pk, "brute"), (pk._replace(family="Gk"), "brute"), (pk, "det")]
        for k, n_max in n_max_by_k.items()
        for pk in (FamilySpec("Pk", n, k=k) for n in range(n_max + 1))
    )


def _check_octant_census(n_max):
    return _agree(
        [(spec, "brute"), (spec, "formula")]
        for n in range(n_max + 1)
        for spec in (FamilySpec(fam, n) for fam in ("O", "Ox", "Odiag"))
    )


def _check_origin_walks(m_max):
    # the quadrant walks of length 2m back at the origin, counted, then
    # mapped onto the octant walks ending on the diagonal
    ats = [{"n": 2 * m, "i": 0, "j": 0} for m in range(m_max + 1)]
    origin = [FamilySpec("Qend", **at) for at in ats]
    counted = _agree([(spec, "brute"), (spec, "formula")] for spec in origin)
    classes = ((at, spec, FamilySpec("Odiag", spec.n)) for at, spec in zip(ats, origin))
    return counted or _bijection(classes, "phi_tilde")


def _check_pp(pq_max, k_max, count_pq_max):
    """Plane partitions in the p x q x k box and their path tuples (nested
    k-tuples from (0,0) to (p+q, p-q)): for p, q <= count_pq_max both sets
    have the box product's size; for p, q <= pq_max, pp_to_tuple maps the
    box onto the tuples and tuple_to_pp inverts it. Every k <= k_max."""
    sides = range(max(pq_max, count_pq_max) + 1)
    classes = []
    for p, q, k in itertools.product(sides, sides, range(k_max + 1)):
        box = enumerate_pp(p, q, k)
        # with k = 0 the one tuple is the empty one
        melons = _nested_tuples(p + q, k, False, p - q) if k else ((),)
        if max(p, q) <= count_pq_max and not len(box) == len(melons) == count_macmahon(p, q, k):
            return f"box census fails at ({p},{q},{k})"
        if max(p, q) <= pq_max:
            classes.append(({"p": p, "q": q, "k": k, "n": p + q}, list(box), list(melons)))
    return _bijection(classes, "pp_to_tuple")


def _checks(max_n: int, max_k: int) -> tuple:
    """The suite's table: (name, range text, check, bounds) per identity,
    in report order, every bound derived from the two budgets, which
    verify_suite keeps within 10 and 3."""
    n8, n9 = min(max_n, 8), min(max_n, 9)
    ncap, n2 = max_n + 2, 2 * max_n
    tuple_ns = {k: ncap if k <= 2 else n8 for k in range(1, max_k + 1)}
    tuple_text = f"k <= {max_k}, n <= {ncap}" + (f" ({n8} for k>2)" if max_k > 2 else "")
    n_octant, m_origin = max_n + 1, max_n // 2
    pmax, kmax = max(max_n // 3, 1), min(max_k + 1, 3)
    # the box census enumerates path tuples of length p + q <= max_n - 2
    pcount = max((max_n - 2) // 2, pmax)
    pp_counted = f" ({pcount} counted)" if pcount > pmax else ""
    pp_text = f"p,q <= {pmax}{pp_counted}, k <= {kmax}"
    return (
        ("families_sorted_counted", f"n <= {n8}", _check_families, (n8,)),
        ("matching_structure", f"n <= {max_n}", _check_matching, (max_n,)),
        ("xi_bijection", f"n <= {max_n}", _check_xi, (max_n,)),
        ("xi_s_bijection", f"n <= {max_n}", _check_xi_s, (max_n,)),
        ("nu_bijection", f"n <= {max_n}", _check_nu, (max_n,)),
        ("phi_sector_bijection", f"n <= {max_n}", _check_phi_sector, (max_n,)),
        ("flip_height_profile", f"n <= {ncap}", _check_flip_heights, (ncap,)),
        ("flip_record_bounds", f"n <= {max_n}", _check_flip_records, (max_n,)),
        ("psi_sector_bijection", f"n <= {max_n}", _check_psi_sector, (max_n,)),
        ("composed_map_bijection", f"n <= {max_n}", _check_composed_map, (max_n,)),
        ("floor_pair_bijection", f"n <= {max_n}", _check_floor_pairs, (max_n,)),
        ("step_dictionary", f"n <= {max_n}", _check_step_dictionary, (max_n,)),
        ("walk_conjugation", f"n <= {max_n}", _check_conjugation, (max_n,)),
        ("psi_tilde_s_union", f"n <= {n9}", _check_psi_tilde_s_union, (n9,)),
        ("phi_tilde_axis_identity", f"n <= {max_n}", _check_phi_tilde_identity, (max_n,)),
        ("shadow_region", "|x|,|y| <= 12", _check_shadow, (12,)),
        ("hij_walks_vs_g2", f"n <= {n8}", _check_hij_g2, (n8,)),
        ("det_vs_box_product", f"n <= {n2}, k <= {max_k + 2}", _check_det_vs_box, (n2, max_k + 2)),
        ("g2_sum_formula", f"n <= {n2}", _check_g2_sum, (n2,)),
        ("tuple_count_agreement", tuple_text, _check_tuple_counts, (tuple_ns,)),
        ("octant_census_formulas", f"n <= {n_octant}", _check_octant_census, (n_octant,)),
        ("origin_walk_bijection", f"m <= {m_origin}", _check_origin_walks, (m_origin,)),
        ("pp_box_roundtrip", pp_text, _check_pp, (pmax, kmax, pcount)),
    )


def _run_check(entry) -> CheckResult:
    """Run one table entry and time it. A module-level function, so that a
    worker process can receive it by name."""
    name, rng, fn, bounds = entry
    start = time.perf_counter()
    try:
        bad = fn(*bounds)
    except Exception as exc:  # a crash inside a sweep is a failure, not an abort
        bad = f"error: {exc}"
    return CheckResult(name, rng, bad is None, bad, time.perf_counter() - start, os.getpid())


def _pool_size(jobs: int) -> int:
    """One worker per CPU this process may run on, and no more than jobs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs)


def _run_checks(checks) -> tuple[CheckResult, ...]:
    """_run_check over the table, in table order: in worker processes when
    more than one CPU is available, else (or when no pool can start) in
    this process. A check whose worker died is a failed result."""
    workers = _pool_size(len(checks))
    results: list[CheckResult] = []
    if workers > 1:
        # imported here: pathbij.cli imports this module on every command
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(workers) as pool:
                for result in pool.map(_run_check, checks, chunksize=1):
                    results.append(result)
        except (OSError, NotImplementedError):
            pass  # no pool on this platform; the rest run below
        except BrokenProcessPool as exc:
            results += [
                CheckResult(name, rng, False, f"error: worker process died ({exc})")
                for name, rng, _, _ in checks[len(results):]
            ]
    results += map(_run_check, checks[len(results):])
    return tuple(results)


def verify_suite(max_n: int, max_k: int = 2) -> tuple[CheckResult, ...]:
    """Run every identity check within the budgets, in parallel worker
    processes, and return the results in report order. Raises ValueError
    for a budget outside 0 <= max_n <= 10 and 1 <= max_k <= 3, the
    acceptance gate's, and never on a failed check. At the bounds the
    largest set a check holds is the 226,512 nested pairs of length 12 that
    tuple_count_agreement counts in P2 and G2; at max_n = 11 it would count
    those of length 13, past the enumeration budget of pathbij.families, and
    at max_k = 4 the 232,848 nested 4-tuples of length 8."""
    bounded = 0 <= max_n <= 10 and 1 <= max_k <= 3
    require(bounded, "need 0 <= max_n <= 10 and 1 <= max_k <= 3, got {} and {}", max_n, max_k)
    return _run_checks(_checks(max_n, max_k))
