"""The identity suite: one table, _checks, declares each identity once.

A row of the table is its name, range text, check and bounds; a check
sweeps exactly the range its bounds give and returns None or the first
counterexample. The checks share three proofs. _bijection proves a map
bijective over classes that are data: a class is its coordinates
(n=4, i=2, j=0), which name it in a failure and give each map the
parameters it reads, and its domain and codomain, each a family spec,
which the proof enumerates, or the members themselves. _each proves a
property of each member over classes (at, members), and _agree a counting
identity over the counts of pathbij.counting.count, as `pathbij count`.
Eight rows, every call of phi, psi, psi_s and their inverses among them,
read the M2 sectors, their P2 and G2 images or their walks. The check of
each is a step (_step) that proves its row on one sector M2(n,i;j), and
they run as one sweep, _sweep, one shard per sector: a shard enumerates
each set a step reads once, runs and clocks each step over the whole
sector, and makes each map call that several rows make once per pair.
_one_row runs any row alone, by its name, over given bounds.
verify_suite(max_n, max_k) derives every bound from its two budgets, at
most 10 and 3: element sweeps run to max_n, counting identities a little
beyond, arithmetic ones to 2 * max_n. The other checks and the shards are
independent tasks, which verify_suite runs in worker processes, one per
available CPU. Every task returns one record, by row its first failure
or None and its seconds; one merge keeps each row's first failure over
its tasks in (n, i, j) order, sums its seconds, and reports every check
in table order. tests/test_acceptance.py gates on verify_suite(10, 3).
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import cache
from typing import NamedTuple

import pathbij as pb  # every map is looked up here at call time: a patch reaches every check

from ._base import require
from ._maps import MAPS, call
from .counting import count, count_macmahon
from .families import FamilySpec, _g2_sector, _nested_tuples, enumerate_family
from .matching import match_faces, tri_heights, unmatched_steps
from .partitions import enumerate_pp
from .paths import end_height, heights, lexkey, valid_ij
from .walks import shadow_contains


class CheckResult(NamedTuple):
    name: str
    range_text: str
    counterexample: str | None = None
    seconds: float = 0.0
    pid: int = 0  # the process that ran the check; 0 if none did

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tail = "" if self.counterexample is None else f"  {self.counterexample}"
        return f"{self.name:<28} {self.range_text:<24} {verdict}{tail}"


def format_report(results) -> str:
    return "\n".join(r.line() for r in results)


def _check_families(n_max):
    # each member's key strictly below the next one's: sorted, with no repeat
    specs = [FamilySpec(fam, n) for n in range(n_max + 1) for fam in "ADGP"]
    classes = ((s._asdict(), itertools.pairwise(map(lexkey, enumerate_family(s)))) for s in specs)
    ordered = lambda ab, at: None if ab[0] < ab[1] else "unsorted or duplicated"  # noqa: E731
    return _each(classes, ordered) or _agree([(s, "brute"), (s, "formula")] for s in specs)


def _check_matching(n_max):
    """The leftover steps of match_faces come in order, their D steps are
    the new minima, and the flip kernel, a separate scan, finds the same
    ones, on every U/D/H word."""

    def holds(w, at):
        m = match_faces(w)
        if unmatched_steps(w) != (m.unmatched_d, m.unmatched_u):
            return f"flip kernel differs from match_faces: {w}"
        if m.unmatched_d and m.unmatched_u and m.unmatched_d[-1] >= m.unmatched_u[0]:
            return f"leftover word out of order: {w}"
        if len(m.unmatched_d) != -min(tri_heights(w) + (0,)):
            return f"unmatched D count wrong: {w}"

    words = lambda n: map("".join, itertools.product("UDH", repeat=n))  # noqa: E731
    return _each((({"n": n}, words(n)) for n in range(n_max + 1)), holds)


def _bijection(classes, forward, made=(call, call)):
    """The proof the bijection checks share. A class is (at, domain,
    codomain): at maps each coordinate of the class to its value, and a
    side is a family spec, or the members themselves where the set is no
    family or is already enumerated. forward maps the domain onto the
    codomain one-to-one: the name of a map of pathbij._maps, whose inverse
    gives each x back, each reading its parameters by name from at, or a
    function of x alone without an inverse. made makes the map's and the
    inverse's calls: each is call or a sector's memo of it (_sweep). Returns
    None or the first failure: the class's coordinates, then the element."""
    inverse = MAPS[forward].inverse if isinstance(forward, str) else None
    made_there, made_back = made
    for at, *sides in classes:
        domain, codomain = map(_members, sides)
        label = _fields(at.items())
        if inverse is not None:
            there, back = ([at[c] for c in MAPS[m].reads] for m in (forward, inverse))
        image = set()
        for x in domain:
            if inverse is None:
                y = forward(x)
            else:
                y = made_there(forward, x, *there)[0]
                if made_back(inverse, y, *back)[0] != x:
                    return f"{label}: roundtrip fails on {x}"
            image.add(y)
        if not len(domain) == len(image) == len(codomain) or image != set(codomain):
            return f"{label}: image is not the codomain"
    return None


def _each(classes, holds):
    """The proof the per-element checks share. A class is (at, members):
    at as _bijection's, the members a side as its domain is. holds(x, at)
    gives None when x passes, else the failure. Returns None or the first
    failure: the class's coordinates, then holds's text."""
    for at, members in classes:
        for x in _members(members):
            bad = holds(x, at)
            if bad:
                return f"{_fields(at.items())}: {bad}"
    return None


def _members(side):
    # a side of a class: a family spec, enumerated here, or its members
    return enumerate_family(side) if isinstance(side, FamilySpec) else side


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
    def faces(p, at):
        if match_faces(pb.xi(p)).pairs != match_faces(p).pairs:
            return f"xi breaks facing pairs: {p}"

    # each P(n) is enumerated once, for both proofs
    ps = [enumerate_family(FamilySpec("P", n)) for n in range(n_max + 1)]
    classes = [({"n": n}, p, FamilySpec("G", n)) for n, p in enumerate(ps)]
    return _each((c[:2] for c in classes), faces) or _bijection(classes, "xi")


def _check_xi_s(n_max):
    """xi_s maps the prefixes ending at i onto Aend(n, s=s, i=i), the paths
    ending at s with minimum -(i-s)/2, for every valid (i, s)."""
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


def _check_flip_heights(n_max):
    def holds(q, at):
        if end_height(q) < 0:
            return None
        qp, rec = pb.flip_below(q)
        hq, hqp = heights(q), heights(qp)
        gained = 0
        for a in range(1, len(q) + 1):
            gained += a in rec.lower_returns
            if hqp[a - 1] != abs(hq[a - 1]) + 2 * gained:
                return f"height profile wrong after flips: {q} at a={a}"
        return None if pb.flip_below_inv(qp, rec.r) == q else f"flip_below roundtrip fails: {q}"

    return _each((({"n": n}, FamilySpec("A", n)) for n in range(n_max + 1)), holds)


_STEP_PAIRS = (("U", "U", 1, 1), ("U", "D", 1, -1), ("D", "U", -1, 1), ("D", "D", -1, -1))
_DXY = {"E": (1, 0), "N": (0, 1), "S": (0, -1), "W": (-1, 0)}


def _check_step_dictionary(n_max):
    """The walk omega(P, Q) sits at the half sum and half difference of the
    two height profiles: 2x = h(P)+h(Q) and 2y = h(P)-h(Q) after every step.
    The rest of the dictionary follows at every prefix: h(Q) = x-y, h(P) =
    x+y, min(h(P)-h(Q)) = 2 min y, min(h(P)+h(Q)) = 2 min x and min h(Q) =
    min(x-y), so nesting, the floor -P, the floor of Q and the endpoints
    read off the walk; sector membership is the endpoint rows plus
    _check_shadow. Pairs are visited depth first, each one step pair longer
    than its parent, whose walk its own must extend. Each pair costs one
    omega and one omega_inv call, each linear in its length, so the row
    does Theta(n 4^n) work: about 1.4 M pairs and 3.5 s at n <= 10 on a
    2-vCPU Linux machine. Since the positions of a walk give back both
    profiles, the visit proves omega one-to-one on all 4^n pairs, hence
    onto the 4^n walks; omega_inv must give each pair back."""

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


def _check_phi_tilde_identity(n_max):
    def fixed(w, at):
        if pb.phi_tilde(w) != w:
            return f"phi_tilde moves an axis octant walk: {w}"

    return _each((({"n": n}, FamilySpec("Ox", n)) for n in range(n_max + 1)), fixed)


# the (i, j) whose regions sh(i,j) _check_shadow probes
_SHADOW_PROBES = ((0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (4, 0), (4, 2))


def _check_shadow(xy_max):
    def holds(xy, at):
        (i, j), (x, y) = at.values(), xy
        if shadow_contains(i, j, x, y) != (i - j <= x - y <= i + j <= x + y):
            return f"shadow wrong at ({i},{j}) vs ({x},{y})"

    grid = list(itertools.product(range(-xy_max, xy_max + 1), repeat=2))
    return _each((({"i": i, "j": j}, grid) for i, j in _SHADOW_PROBES), holds)


def _step(step):
    """Declare step the check of a swept row, which runs in the sweep as
    step(at, side, made, preimages) on each sector M2(n,i;j) its bound
    reaches. at is {n, i, j}; side(family) enumerates the sector's M2, P2,
    G2, Qend, Osh or Hij set when a step first reads it, and that step pays
    for it; made is the memo the sector's steps share, cache(call), or call
    for a row alone; and preimages() are the phi_inv preimages of P2(n,i;0)."""
    step.per_sector = True
    return step


def _floors(at, domain, form):
    # a class per floor s = i (mod 2) up to i: domain onto _g2_sector(n, i, j, form, s)
    n, i, j = at.values()
    return (({**at, "s": s}, domain, _g2_sector(n, i, j, form, s)) for s in range(i % 2, i + 1, 2))


@_step
def _phi_sector(at, side, made, preimages):
    # nesting, the floor and the sector are membership in P2(n,i;j); of the
    # inverse's outputs the memo keeps the preimages of j = 0, which two rows map
    return _bijection([(at, side("M2"), side("P2"))], "phi", (made, made if at["j"] == 0 else call))


@_step
def _flip_records(at, side, made, preimages):
    def holds(x, at):
        (n, i, j), (p, q) = at.values(), x
        qp, _ = pb.flip_below(q)
        rec = made("phi", x, i, j)[1]
        if not (rec.r - j <= len(rec.chi) <= rec.r):
            return f"flip count outside bounds: {p}/{q}"
        hp = (0,) + heights(p)
        hqp = (0,) + heights(qp)
        chi_seen = ret_seen = running = 0
        for a in range(n + 1):
            running = max(running, hqp[a] - hp[a])
            chi_seen += a in rec.chi
            ret_seen += a in rec.lower_returns
            if 2 * chi_seen != running or running > 2 * ret_seen:
                return f"flip prefix identity fails: {p}/{q} at a={a}"

    return _each([(at, side("M2"))], holds)


@_step
def _psi_sector(at, side, made, preimages):
    # the endpoints and the depth are membership in G2(n,i;j)
    return _bijection([(at, side("M2"), side("G2"))], "psi", (made, call))


@_step
def _composed_map(at, side, made, preimages):
    # psi after phi_inv, with no inverse (the count gives injectivity), maps
    # P2(n) onto G2(n), sector by sector: over i, those of j = 0 are the sets
    psi = lambda x: made("psi", x)[0]  # noqa: E731
    return _bijection([(at, preimages(), side("G2"))] if at["j"] == 0 else [], psi)


@_step
def _floor_pairs(at, side, made, preimages):
    """psi_s after phi_inv maps {P2 : h(Q~) >= s} one-to-one onto the
    nested pairs that both end at s, sector by sector: for each s = i (mod
    2) up to i, the phi_inv preimages of P2(n,i;0) onto the pairs ending at
    (s, s) with lowest agreement height -(i-s)/2, which over i >= s make up
    those ending at s. A bijection is also the count identity."""
    classes = _floors(at, preimages(), "tuple") if at["j"] == 0 else []
    return _bijection(classes, "psi_s", (made, call))


@_step
def _conjugation(at, side, made, preimages):
    """The walk maps are omega's conjugates of the pair maps, and the walk
    inverses undo them: phi_tilde maps Qend(n,i,j) onto Osh(n,i,j) and
    psi_tilde onto Hij(n,i,j). phi_tilde_inv runs on the walk itself, so its
    round trip tests an implementation independent of phi_inv, whose own
    round trip phi_sector_bijection tests."""

    def conjugate(x, at):
        (_, i, j), (p, q) = at.values(), x
        w = pb.omega(p, q)
        if made("phi_tilde", w)[0] != pb.omega(*made("phi", x, i, j)[0]):
            return f"phi conjugation fails: {p}/{q}"
        if made("psi_tilde", w)[0] != pb.omega(*made("psi", x)[0]):
            return f"psi conjugation fails: {p}/{q}"
        for s in range(i % 2, i + 1, 2):
            wh = made("psi_tilde_s", w, s)[0]
            if wh != pb.omega(*(made if j == 0 else call)("psi_s", x, s)[0]):
                return f"psi_s conjugation fails: {p}/{q}, s={s}"

    bad = _each([(at, side("M2"))], conjugate)
    bad = bad or _bijection([(at, side("Qend"), side("Osh"))], "phi_tilde", (made, call))
    return bad or _bijection([(at, side("Qend"), side("Hij"))], "psi_tilde", (made, call))


@_step
def _union(at, side, made, preimages):
    """psi_tilde_s maps the Q walks ending at (i, j), all i >= s, onto the H
    walks ending at (s, j): per floor s (_floors), the column Qend(n,i,j)
    onto those whose leftmost x is -(i-s)/2. A sector maps its own column
    and, for i > j, Qend(n,j,i), no sector, whose images no other row reads."""
    own = _bijection(_floors(at, side("Qend"), "walk"), "psi_tilde_s", (made, call))
    if own or at["i"] == at["j"]:
        return own
    transposed = {**at, "i": at["j"], "j": at["i"]}
    walks = enumerate_family(FamilySpec("Qend", **transposed))
    return _bijection(_floors(transposed, walks, "walk"), "psi_tilde_s")


@_step
def _hij_g2(at, side, made, preimages):
    # omega maps each G2 sector onto the walks Hij(n, i, j), and omega_inv undoes it
    return _bijection([(at, side("G2"), side("Hij"))], "omega")


def _sweep(n, i, j, steps):
    """Run steps, by row, each over the whole sector M2(n,i;j) (_step), in
    table order. Several rows share one memo, functools.cache(call): the
    sector's phi, psi and walk images, and phi_inv's and psi_s's at j = 0,
    which a later check reads. A shard of one row keeps none.
    Returns by row its first failure or None and its seconds (_timed)."""
    at, made = {"n": n, "i": i, "j": j}, cache(call) if len(steps) > 1 else call
    side = cache(lambda family: enumerate_family(FamilySpec(family, **at)))
    preimages = cache(lambda: [made("phi_inv", pq, i, j)[0] for pq in side("P2")])
    return {row: _timed(step, at, side, made, preimages) for row, step in steps.items()}


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
            classes.append(({"p": p, "q": q, "k": k, "n": p + q}, box, melons))
    return _bijection(classes, "pp_to_tuple")


def _checks(max_n: int, max_k: int) -> tuple:
    """The suite's table, the one place a row is declared: (name, range
    text, check, bounds) per identity in report order, every bound derived
    from the budgets, at most 10 and 3. A swept row's check is a step."""
    n8, ncap, n2 = min(max_n, 8), max_n + 2, 2 * max_n
    tuple_ns = {k: ncap if k <= 2 else n8 for k in range(1, max_k + 1)}
    tuple_text = f"k <= {max_k}, n <= {ncap}" + (f" ({n8} for k>2)" if max_k > 2 else "")
    n_octant, m_origin = max_n + 1, max_n // 2
    pmax, kmax = max(max_n // 3, 1), min(max_k + 1, 3)
    # the box census enumerates path tuples of length p + q <= max_n - 2
    pcount = max((max_n - 2) // 2, pmax)
    pp_counted = f" ({pcount} counted)" if pcount > pmax else ""
    pp_text = f"p,q <= {pmax}{pp_counted}, k <= {kmax}"
    return (
        ("families_sorted_counted", f"n <= {max_n}", _check_families, (max_n,)),
        ("matching_structure", f"n <= {max_n}", _check_matching, (max_n,)),
        ("xi_bijection", f"n <= {max_n}", _check_xi, (max_n,)),
        ("xi_s_bijection", f"n <= {max_n}", _check_xi_s, (max_n,)),
        ("nu_bijection", f"n <= {max_n}", _check_nu, (max_n,)),
        ("phi_sector_bijection", f"n <= {max_n}", _phi_sector, (max_n,)),
        ("flip_height_profile", f"n <= {ncap}", _check_flip_heights, (ncap,)),
        ("flip_record_bounds", f"n <= {max_n}", _flip_records, (max_n,)),
        ("psi_sector_bijection", f"n <= {max_n}", _psi_sector, (max_n,)),
        ("composed_map_bijection", f"n <= {max_n}", _composed_map, (max_n,)),
        ("floor_pair_bijection", f"n <= {max_n}", _floor_pairs, (max_n,)),
        ("step_dictionary", f"n <= {max_n}", _check_step_dictionary, (max_n,)),
        ("walk_conjugation", f"n <= {max_n}", _conjugation, (max_n,)),
        ("psi_tilde_s_union", f"n <= {max_n}", _union, (max_n,)),
        ("phi_tilde_axis_identity", f"n <= {max_n}", _check_phi_tilde_identity, (max_n,)),
        ("shadow_region", "|x|,|y| <= 12", _check_shadow, (12,)),
        ("hij_walks_vs_g2", f"n <= {max_n}", _hij_g2, (max_n,)),
        ("det_vs_box_product", f"n <= {n2}, k <= {max_k + 2}", _check_det_vs_box, (n2, max_k + 2)),
        ("g2_sum_formula", f"n <= {n2}", _check_g2_sum, (n2,)),
        ("tuple_count_agreement", tuple_text, _check_tuple_counts, (tuple_ns,)),
        ("octant_census_formulas", f"n <= {n_octant}", _check_octant_census, (n_octant,)),
        ("origin_walk_bijection", f"m <= {m_origin}", _check_origin_walks, (m_origin,)),
        ("pp_box_roundtrip", pp_text, _check_pp, (pmax, kmax, pcount)),
    )


def _timed(check, *args):
    """check(*args) and the seconds it took: its first failure or None, an
    error counting as a failure."""
    start = time.perf_counter()
    try:
        bad = check(*args)
    except Exception as exc:  # a crash inside a check is a failure, not an abort
        bad = f"error: {exc}"
    return bad, time.perf_counter() - start


def _entry(name, check, *bounds):
    """One table entry, run: its one row's record."""
    return {name: _timed(check, *bounds)}


def _tasks(checks) -> list:
    """The table's entries but the swept rows, in table order, as tasks of
    _entry, then one task of _sweep per M2 sector, largest n first, handed
    the steps of the swept rows whose bound reaches its n. A task is (order,
    rows, function, arguments): order is () for an entry and (n, i, j) for
    a shard, rows are the rows its record reports."""
    swept = {name: (f, b[0]) for name, _, f, b in checks if getattr(f, "per_sector", False)}
    tasks = [((), (name,), _entry, (name, f, *b)) for name, _, f, b in checks if name not in swept]
    for n in range(max((b for _, b in swept.values()), default=-1), -1, -1):
        steps = {row: step for row, (step, bound) in swept.items() if n <= bound}
        for i, j in valid_ij(n):
            tasks.append(((n, i, j), tuple(steps), _sweep, (n, i, j, steps)))
    return tasks


def _run_task(task):
    """A task's record and the process that ran it. A module-level
    function, so that a worker process can receive it by name."""
    *_, function, arguments = task
    return function(*arguments), os.getpid()


def _merge(checks, tasks, records) -> tuple[CheckResult, ...]:
    """One result per table entry, in table order, from the tasks' records
    read in task order, shards in (n, i, j) order, the order of a swept
    row's own check: a row's first failure, its seconds summed and the
    first process that ran it."""
    merged = {name: (None, 0.0, 0) for name, *_ in checks}
    for _, (record, pid) in sorted(zip(tasks, records), key=lambda pair: pair[0][0]):
        for row, (bad, seconds) in record.items():
            first, total, first_pid = merged[row]
            merged[row] = (first or bad, total + seconds, first_pid or pid)
    return tuple(CheckResult(name, rng, *merged[name]) for name, rng, _, _ in checks)


def _pool_size(jobs: int) -> int:
    """One worker per CPU this process may run on, and no more than jobs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs)


def _run_checks(checks, workers: int | None = None) -> tuple[CheckResult, ...]:
    """The table's results in table order (_merge). Its tasks (_tasks) run
    in worker processes, by default one per available CPU; with one worker,
    or when no pool can start, in this process. A task whose worker died
    fails each row it reports."""
    tasks = _tasks(checks)
    workers = _pool_size(len(tasks)) if workers is None else workers
    records = []
    if workers > 1:
        try:
            with ProcessPoolExecutor(workers) as pool:
                for record in pool.map(_run_task, tasks, chunksize=1):
                    records.append(record)
        except (OSError, NotImplementedError):
            pass  # no pool on this platform; the rest run below
        except BrokenProcessPool as exc:
            died = f"error: worker process died ({exc})"
            records += [({row: (died, 0.0) for row in task[1]}, 0) for task in tasks[len(records):]]
    records += map(_run_task, tasks[len(records):])
    return _merge(checks, tasks, records)


def _one_row(name, *bounds):
    """The table's row name alone, its check (the same at every budget)
    over bounds, run and merged in this process: its first failure or None."""
    check = next(check for row, _, check, _ in _checks(0, 1) if row == name)
    return _run_checks([(name, "", check, bounds)], workers=1)[0].counterexample


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
