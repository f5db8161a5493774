"""The identity checks fail when the map or closed form they certify is broken.

The acceptance gate rests on pathbij.verify's checks, so each sweep check is
run against a corrupted map (the step dictionary against two, omega and
omega_inv; the flip heights against flip_below and flip_below_inv; the walk
conjugation and the origin walks against phi_tilde and phi_tilde_inv): the
map, patched in the package namespace where every check looks it up,
answers one domain input with the image of another input of the same
sector, which keeps every output valid but breaks injectivity. The three
rows whose check calls a helper that verify imports itself, the flip
kernel, the shadow region and the enumerator, are run against that helper
patched in verify. Each closed form of pathbij.counting, the table that `pathbij count` prints from, is
corrupted in turn too, and a named counting check must fail. The suite runs
eight rows of checks as one sweep, in one shard per M2 sector, and every check
in worker processes; the last tests pin that it reports what the checks give
on their own, in process and under spawn too, that the sweep makes each
shared call once and keeps only the outputs a later check reads back, that a
row alone enumerates only the sets it reads, and that a crash or a dead
worker is a failure.
"""

import collections
import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import pathbij
from pathbij import FamilySpec, counting, verify

# (case id, row, bound or tuple of bounds, map patched in pathbij, input to
#  corrupt, input whose image it gets)
CASES = [
    ("_check_xi", "xi_bijection", 2, "xi", ("UU",), ("UD",)),
    ("_check_nu", "nu_bijection", 2, "nu", ("UU",), ("UD",)),
    ("_check_phi_sector", "phi_sector_bijection", 2, "phi", ("UD", "DU", 0, 0), ("UD", "UD", 0, 0)),
    ("_check_psi_sector", "psi_sector_bijection", 2, "psi", ("UD", "DU"), ("UD", "UD")),
    ("_check_flip_records", "flip_record_bounds", 2, "phi", ("UD", "DU", 0, 0), ("UD", "UD", 0, 0)),
    ("_check_conjugation", "walk_conjugation", 2, "phi_tilde", ("NS",), ("EW",)),
    ("_check_floor_pairs", "floor_pair_bijection", 2, "psi_s", ("UD", "DU", 0), ("UD", "UD", 0)),
    ("_check_origin_walks", "origin_walk_bijection", 1, "phi_tilde", ("NS",), ("EW",)),
    ("_check_psi_tilde_s_union", "psi_tilde_s_union", 2, "psi_tilde_s", ("NS", 0), ("EW", 0)),
    ("_check_step_dictionary", "step_dictionary", 2, "omega", ("U", "D"), ("D", "U")),
    ("_check_step_dictionary", "step_dictionary", 2, "omega_inv", ("NS",), ("EW",)),
    ("_check_xi_s", "xi_s_bijection", 2, "xi_s", ("UU", 0), ("UD", 0)),
    ("_check_conjugation", "walk_conjugation", 2, "phi_tilde_inv", ("EN", 0, 0), ("EW", 0, 0)),
    ("_check_origin_walks", "origin_walk_bijection", 1, "phi_tilde_inv", ("EN", 0, 0), ("EW", 0, 0)),
    ("_check_composed_map", "composed_map_bijection", 2, "psi", ("UD", "DU"), ("UD", "UD")),
    ("_check_hij_g2", "hij_walks_vs_g2", 2, "omega", ("UD", "DU"), ("UD", "UD")),
    ("_check_pp", "pp_box_roundtrip", (1, 1, 1), "pp_to_tuple", (((1,),), 1, 2), (((0,),), 1, 2)),
    ("_check_flip_heights", "flip_height_profile", 2, "flip_below", ("UD",), ("DU",)),
    ("_check_flip_heights", "flip_height_profile", 2, "flip_below_inv", ("UU", 1), ("UD", 0)),
    ("_check_phi_tilde_identity", "phi_tilde_axis_identity", 2, "phi_tilde", ("EW",), ("EE",)),
    ("_check_conjugation", "walk_conjugation", 2, "psi_tilde", ("NS",), ("EW",)),
    ("_check_conjugation", "walk_conjugation", 2, "psi_tilde_inv", ("NS",), ("EW",)),
    ("_check_psi_tilde_s_union", "psi_tilde_s_union", 2, "psi_tilde_s_inv", ("NS",), ("EW",)),
]
# a case after the first of its row carries the map's name
IDS = [c[0] + f"-{c[3]}" * (c[0] in [d[0] for d in CASES[:k]]) for k, c in enumerate(CASES)]


def swept(table):
    """The entries of table that run as rows of the sweep: those whose check is a step."""
    return [entry for entry in table if getattr(entry[2], "per_sector", False)]


SWEPT = [entry[0] for entry in swept(verify._checks(2, 2))]


@pytest.mark.parametrize("row, bound, name, victim, donor", [c[1:] for c in CASES], ids=IDS)
def test_check_catches_a_corrupted_map(monkeypatch, row, bound, name, victim, donor):
    bounds = bound if isinstance(bound, tuple) else (bound,)
    real = getattr(pathbij, name)
    assert verify._one_row(row, *bounds) is None
    monkeypatch.setattr(pathbij, name, lambda *a: real(*(donor if a == victim else a)))
    assert verify._one_row(row, *bounds) is not None


def test_a_bijection_failure_leads_with_its_class(monkeypatch):
    """A class of a bijection check is its coordinates and two sides: a
    family spec, which the proof enumerates, or a list of members. A
    failure names the class by its coordinates, in the field format of the
    counting checks, then the element."""
    at = {"n": 2, "i": 0, "j": 0}
    m2, g2 = FamilySpec("M2", **at), FamilySpec("G2", **at)
    assert verify._bijection([(at, m2, g2)], "psi") is None
    short = list(pathbij.enumerate_family(g2))[1:]
    assert verify._bijection([(at, m2, short)], "psi") == "n=2, i=0, j=0: image is not the codomain"
    real = pathbij.phi
    victim, donor = ("UD", "DU", 0, 0), ("UD", "UD", 0, 0)
    monkeypatch.setattr(pathbij, "phi", lambda *a: real(*(donor if a == victim else a)))
    bad = "n=2, i=0, j=0: roundtrip fails on ('UD', 'DU')"
    assert verify._one_row("phi_sector_bijection", 2) == bad


def test_an_each_failure_leads_with_its_class(monkeypatch):
    """A class of a per-element check is its coordinates and its members: a
    family spec, which the proof enumerates, or a list of members. The
    first failing class in class order names the failure by its
    coordinates, in the field format of the counting checks, then the
    text of the element's failure."""

    def holds(pair, at):
        if pair[1][0] != "U":
            return f"starts low: {pair}"

    m2, m3 = FamilySpec("M2", 2, i=0, j=0), FamilySpec("M2", 3, i=1, j=0)
    assert verify._each([({"n": 1}, [("U", "U")])], holds) is None
    assert verify._each([({"n": 2, "i": 0, "j": 0}, m2)], holds) == (
        "n=2, i=0, j=0: starts low: ('UD', 'DU')"
    )
    listed = [({"p": 1}, [("U", "U"), ("U", "D")])]
    assert verify._each(listed, holds) == "p=1: starts low: ('U', 'D')"
    classes = [({"n": 1}, [("U", "U")]), ({"n": 3, "i": 1, "j": 0}, m3), ({"n": 2}, m2)]
    assert verify._each(classes, holds) == "n=3, i=1, j=0: starts low: ('UUD', 'DUU')"
    real = pathbij.phi_tilde
    monkeypatch.setattr(pathbij, "phi_tilde", lambda w: real("EE" if w == "EW" else w))
    bad = "n=2: phi_tilde moves an axis octant walk: EW"
    assert verify._one_row("phi_tilde_axis_identity", 2) == bad


# rows whose check calls a name that verify imports itself, not through the
# package namespace: (row, bound, name patched in verify, input to corrupt,
# the answer it gets)
LOCAL_CASES = [
    ("matching_structure", 2, "unmatched_steps", ("DU",), ((), ())),
    ("shadow_region", 1, "shadow_contains", (0, 0, 0, 0), False),
    ("families_sorted_counted", 2, "enumerate_family", (FamilySpec("A", 2),), ("UU", "UU")),
]


@pytest.mark.parametrize(
    "row, bound, name, victim, answer", LOCAL_CASES, ids=[c[0] for c in LOCAL_CASES]
)
def test_check_catches_a_corrupted_helper(monkeypatch, row, bound, name, victim, answer):
    """The helper answers one input wrongly: the flip kernel finds no
    leftover step in DU, the region sh(0,0) leaves out the origin,
    and the A paths of length 2 come back as one path twice."""
    real = getattr(verify, name)
    assert verify._one_row(row, bound) is None
    monkeypatch.setattr(verify, name, lambda *a: answer if a == victim else real(*a))
    assert verify._one_row(row, bound) is not None


# the first counterexample of each swept row, at n <= 2, under each
# corruption of CASES that one of them catches, as each row gives it alone
SWEPT_CASES = {
    ("phi", ("UD", "DU", 0, 0), ("UD", "UD", 0, 0)): {
        "phi_sector_bijection": "n=2, i=0, j=0: roundtrip fails on ('UD', 'DU')",
        "flip_record_bounds": "n=2, i=0, j=0: flip prefix identity fails: UD/DU at a=2",
        "walk_conjugation": "n=2, i=0, j=0: phi conjugation fails: UD/DU",
    },
    ("psi", ("UD", "DU"), ("UD", "UD")): {
        "psi_sector_bijection": "n=2, i=0, j=0: roundtrip fails on ('UD', 'DU')",
        "composed_map_bijection": "n=2, i=0, j=0: image is not the codomain",
        "walk_conjugation": "n=2, i=0, j=0: psi conjugation fails: UD/DU",
    },
    ("phi_tilde", ("NS",), ("EW",)): {
        "walk_conjugation": "n=2, i=0, j=0: phi conjugation fails: UD/DU",
    },
    ("psi_s", ("UD", "DU", 0), ("UD", "UD", 0)): {
        "floor_pair_bijection": "n=2, i=0, j=0, s=0: roundtrip fails on ('UD', 'DU')",
        "walk_conjugation": "n=2, i=0, j=0: psi_s conjugation fails: UD/DU, s=0",
    },
    ("psi_tilde_s", ("NS", 0), ("EW", 0)): {
        "walk_conjugation": "n=2, i=0, j=0: psi_s conjugation fails: UD/DU, s=0",
        "psi_tilde_s_union": "n=2, i=0, j=0, s=0: roundtrip fails on NS",
    },
    ("omega_inv", ("NS",), ("EW",)): {
        "hij_walks_vs_g2": "n=2, i=0, j=0: roundtrip fails on ('UD', 'DU')",
    },
    ("phi_tilde_inv", ("EN", 0, 0), ("EW", 0, 0)): {
        "walk_conjugation": "n=2, i=0, j=0: roundtrip fails on NS",
    },
    ("omega", ("UD", "DU"), ("UD", "UD")): {
        "walk_conjugation": "n=2, i=0, j=0: phi conjugation fails: UD/DU",
        "hij_walks_vs_g2": "n=2, i=0, j=0: roundtrip fails on ('UD', 'DU')",
    },
    ("flip_below", ("UD",), ("DU",)): {
        "flip_record_bounds": "n=2, i=0, j=0: flip prefix identity fails: UD/UD at a=2",
    },
    ("phi_tilde", ("EW",), ("EE",)): {
        "walk_conjugation": "n=2, i=0, j=0: phi conjugation fails: UD/UD",
    },
    ("psi_tilde", ("NS",), ("EW",)): {
        "walk_conjugation": "n=2, i=0, j=0: psi conjugation fails: UD/DU",
    },
    ("psi_tilde_inv", ("NS",), ("EW",)): {
        "walk_conjugation": "n=2, i=0, j=0: roundtrip fails on NS",
    },
    ("psi_tilde_s_inv", ("NS",), ("EW",)): {
        "psi_tilde_s_union": "n=2, i=0, j=0, s=0: roundtrip fails on NS",
    },
}


# each corruption of CASES once: (map, input to corrupt, input whose image it gets)
CORRUPTIONS = list(dict.fromkeys(case[3:] for case in CASES))


def test_every_swept_case_is_a_case():
    assert set(SWEPT_CASES) <= set(CORRUPTIONS)


@pytest.mark.parametrize("case", CORRUPTIONS, ids=[f"{c[0]}-{c[1][0]}" for c in CORRUPTIONS])
def test_shards_keep_each_rows_counterexample(monkeypatch, case):
    """The suite runs the swept rows as shards of one sweep and merges each
    row's first failure back. Under each corruption, in this process, it
    reports for each row the counterexample that the row's own check gives,
    the one pinned in SWEPT_CASES, or none."""
    name, victim, donor = case
    real = getattr(pathbij, name)
    monkeypatch.setattr(pathbij, name, lambda *a: real(*(donor if a == victim else a)))
    rows = swept(verify._checks(2, 2))
    alone = {row: verify._one_row(row, *bounds) for row, _, _, bounds in rows}
    merged = {r.name: r.counterexample for r in verify._run_checks(rows, workers=1)}
    expected = {row: SWEPT_CASES.get(case, {}).get(row) for row in SWEPT}
    assert alone == merged == expected


def test_a_row_reports_its_first_failure_over_its_shards(monkeypatch):
    """Each M2 sector is a shard, handed out largest n first. With phi
    refusing the sector (1, 1, 0) and both i + j = 2 sectors of n = 2, each
    row that calls phi fails first at (1, 1, 0), in the order of its own
    check, not at the shard that comes first."""
    real = pathbij.phi

    def phi(p, q, i=None, j=None):
        if i is not None and (i + j == 2 or len(p) == 1):
            raise ValueError(f"refused at n={len(p)}, i={i}, j={j}")
        return real(p, q, i, j)

    monkeypatch.setattr(pathbij, "phi", phi)
    rows = swept(verify._checks(2, 2))
    assert [task[3][:3] for task in verify._tasks(rows)][-2:] == [(1, 1, 0), (0, 0, 0)]
    got = {r.name: r.counterexample for r in verify._run_checks(rows, workers=1)}
    for row, _, _, bounds in rows:
        calls_phi = row in ("phi_sector_bijection", "flip_record_bounds", "walk_conjugation")
        refused = "error: refused at n=1, i=1, j=0" if calls_phi else None
        assert got[row] == verify._one_row(row, *bounds) == refused


def test_a_transposed_column_fails_in_the_shard_of_its_transpose(monkeypatch):
    """psi_tilde_s_union maps each column Qend(n, i, j) with i < j, which is
    no sector, in the shard of its transpose (n, j, i). With a failure in
    the column (2, 0, 2) and one in the sector column (2, 1, 1), the row
    reports the one of the earlier shard, named by its column."""
    real = pathbij.psi_tilde_s
    swaps = {("NN", 0): ("EE", 0), ("EN", 1): ("NE", 1)}
    monkeypatch.setattr(pathbij, "psi_tilde_s", lambda *a: real(*swaps.get(a, a)))
    assert verify._one_row("psi_tilde_s_union", 2) == "n=2, i=1, j=1, s=1: roundtrip fails on EN"
    del swaps[("EN", 1)]
    assert verify._one_row("psi_tilde_s_union", 2) == "n=2, i=0, j=2, s=0: roundtrip fails on NN"


def test_each_shared_call_is_made_once_per_pair(monkeypatch):
    """The sweep calls phi once per M2 pair, where phi_sector_bijection,
    flip_record_bounds and walk_conjugation each called it once, psi once,
    where psi_sector_bijection, composed_map_bijection and walk_conjugation
    each did, and phi_inv once per P2 pair, where phi_sector_bijection,
    composed_map_bijection and floor_pair_bijection each did. There are 162
    M2 pairs and 162 P2 pairs with n <= 5. psi_s runs 259 times, once per
    M2 pair and floor s: the 110 calls on the pairs of j = 0, which
    floor_pair_bijection makes and psi_s_inv undoes, walk_conjugation
    reads back, and it makes the other 149 itself. psi_tilde_s runs 394
    times, once per column walk and floor: walk_conjugation makes the 259
    on the sectors' own walks, which psi_tilde_s_union reads back, and the
    union makes the 135 on the transposed columns itself."""
    calls = dict.fromkeys(("phi", "psi", "phi_inv", "psi_s", "psi_s_inv", "psi_tilde_s"), 0)
    for name in calls:
        real = getattr(pathbij, name)

        def counted(*a, name=name, real=real):
            calls[name] += 1
            return real(*a)

        monkeypatch.setattr(pathbij, name, counted)
    got = verify._run_checks(verify._checks(5, 2), workers=1)
    assert all(r.passed for r in got)
    pairs = {"phi": 162, "psi": 162, "phi_inv": 162, "psi_s": 259, "psi_s_inv": 110}
    assert calls == {**pairs, "psi_tilde_s": 394}


def test_the_memo_keeps_only_what_another_row_reads(monkeypatch):
    """A sector's memo keeps an output only where another row, or a round
    trip of walk_conjugation's own, makes the same call: phi's and psi's,
    phi_inv's at j = 0, whose outputs are the preimages that the composed
    and floor rows map, psi_s's, made at j = 0 alone, and the images of the
    sector's own walks under phi_tilde, psi_tilde and psi_tilde_s. It keeps
    no inverse's output but phi_inv's at j = 0, and no image of a
    transposed column: with n <= 5, 162 phi, 162 psi, 110 psi_s, 81
    phi_inv, 162 phi_tilde, 162 psi_tilde and 259 psi_tilde_s outputs."""
    real, memos = verify._made, {}

    def seen(made, *call):
        if made is not None:
            memos[id(made)] = made
        return real(made, *call)

    monkeypatch.setattr(verify, "_made", seen)
    assert all(r.passed for r in verify._run_checks(verify._checks(5, 2), workers=1))
    kept = collections.Counter(key[0] for made in memos.values() for key in made)
    pairs = {"phi": 162, "psi": 162, "psi_s": 110, "phi_inv": 81}
    assert kept == {**pairs, "phi_tilde": 162, "psi_tilde": 162, "psi_tilde_s": 259}
    phi_inv_js = {key[-1] for made in memos.values() for key in made if key[0] == "phi_inv"}
    assert phi_inv_js == {0}


def test_a_swept_row_reads_the_time_of_its_own_step():
    """A swept row's seconds are its own step's, summed over its shards:
    with flip_record_bounds sleeping 0.02 s in each sector, it reads at
    least that much per sector, and no other row is charged for it."""

    @verify._step
    def slow(*shard):
        time.sleep(0.02)
        return verify._flip_records(*shard)

    rows = [
        (row, text, slow if row == "flip_record_bounds" else step, bounds)
        for row, text, step, bounds in swept(verify._checks(3, 2))
    ]
    slept = 0.02 * sum(len(pathbij.valid_ij(n)) for n in range(4))
    got = {r.name: r.seconds for r in verify._run_checks(rows, workers=1)}
    assert got.pop("flip_record_bounds") >= slept
    assert len(got) == 7 and all(seconds < slept for seconds in got.values())


def test_a_row_alone_enumerates_only_its_own_sides(monkeypatch):
    """A shard enumerates a sector's M2, P2 or G2 set, or its walks, when a
    row first reads it: hij_walks_vs_g2 alone maps G2 sectors and never
    builds M2, phi_sector_bijection alone never builds G2,
    floor_pair_bijection alone builds P2 sectors and neither M2 nor G2, and
    psi_tilde_s_union alone maps Qend columns and builds no pair set."""
    real, seen = verify.enumerate_family, []
    recorded = lambda spec: seen.append(spec.family) or real(spec)  # noqa: E731
    monkeypatch.setattr(verify, "enumerate_family", recorded)
    assert verify._one_row("hij_walks_vs_g2", 3) is None
    assert "G2" in seen and "M2" not in seen
    seen.clear()
    assert verify._one_row("phi_sector_bijection", 3) is None
    assert "M2" in seen and "G2" not in seen
    seen.clear()
    assert verify._one_row("floor_pair_bijection", 3) is None
    assert "P2" in seen and "M2" not in seen and "G2" not in seen
    seen.clear()
    assert verify._one_row("psi_tilde_s_union", 3) is None
    assert "Qend" in seen and not {"M2", "P2", "G2"} & set(seen)


# each closed form of pathbij.counting, and a check of verify._checks(4, 2)
# that compares it with another count
COUNT_CASES = {
    ("A", "formula"): "families_sorted_counted",
    ("D", "formula"): "families_sorted_counted",
    ("G", "formula"): "families_sorted_counted",
    ("G2", "sum"): "g2_sum_formula",
    ("Gk", "det"): "det_vs_box_product",
    ("Gk", "product"): "det_vs_box_product",
    ("O", "formula"): "octant_census_formulas",
    ("Ox", "formula"): "octant_census_formulas",
    ("Odiag", "formula"): "octant_census_formulas",
    ("Qend", "formula"): "origin_walk_bijection",
}


def test_every_closed_form_has_a_case():
    assert set(COUNT_CASES) == set(counting._FORMULAS)


@pytest.mark.parametrize(
    "key, name", COUNT_CASES.items(), ids=[f"{f}-{m}-{name}" for (f, m), name in COUNT_CASES.items()]
)
def test_check_catches_a_corrupted_closed_form(monkeypatch, key, name):
    """The closed form, patched in the one table that pathbij count and
    verify both read, answers every input with its value + 1."""
    check = {entry[0]: entry for entry in verify._checks(4, 2)}[name]
    assert verify._run_checks([check], workers=1)[0].passed
    fn, reads = counting._FORMULAS[key]
    monkeypatch.setitem(counting._FORMULAS, key, (lambda *a: fn(*a) + 1, reads))
    assert not verify._run_checks([check], workers=1)[0].passed


def test_range_texts_are_the_same_for_every_budget():
    """verify_suite holds the budget bound, 10 and 3, so no check caps its
    own range below it: every range text of _checks(n, k), n <= 10, k <= 3,
    is as it was when the checks did (the digest of their JSON list), but
    those of families_sorted_counted, psi_tilde_s_union and
    hij_walks_vs_g2, which run to max_n, not to 8, 9 and 8."""
    texts = [[e[1] for e in verify._checks(n, k)] for n in range(11) for k in range(1, 4)]
    digest = hashlib.sha256(json.dumps(texts).encode()).hexdigest()
    assert digest == "d7921d488488b93c27593019afbae38b6003cae89322fcc3ac80cd221332ff6d"
    assert [e[1] for e in verify._checks(10, 3)] == [
        "n <= 10", "n <= 10", "n <= 10", "n <= 10", "n <= 10", "n <= 10", "n <= 12",
        "n <= 10", "n <= 10", "n <= 10", "n <= 10", "n <= 10", "n <= 10", "n <= 10",
        "n <= 10", "|x|,|y| <= 12", "n <= 10", "n <= 20, k <= 5", "n <= 20",
        "k <= 3, n <= 12 (8 for k>2)", "n <= 11", "m <= 5", "p,q <= 3 (4 counted), k <= 3",
    ]


@pytest.mark.parametrize("max_n, max_k", [(11, 2), (10, 4), (-1, 2), (4, 0)])
def test_suite_refuses_a_budget_past_its_bounds(max_n, max_k):
    with pytest.raises(ValueError, match="max_n <= 10 and 1 <= max_k <= 3"):
        verify.verify_suite(max_n, max_k)


def test_parallel_suite_matches_the_checks_run_in_process():
    """verify_suite runs the table in worker processes; the report is the
    one the checks give when run one after another in this process."""
    table = verify._checks(2, 2)
    expected = [verify._run_checks([entry], workers=1)[0] for entry in table]
    got = verify.verify_suite(2, 2)
    assert len(got) == len(table) == 23
    fields = lambda r: (r.name, r.range_text, r.passed, r.counterexample)  # noqa: E731
    assert list(map(fields, got)) == list(map(fields, expected))
    assert all(r.passed and r.pid for r in got)


def test_every_check_runs_in_a_spawned_worker():
    """Under spawn a worker imports pathbij afresh and receives each task,
    a table entry or a shard of the swept rows, and the worker function by
    pickling, as on macOS and Windows; the records come back the same way."""
    table = verify._checks(1, 2)
    tasks = verify._tasks(table)
    assert any(task[2] is verify._sweep for task in tasks)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=context) as pool:
        got = verify._merge(table, tasks, list(pool.map(verify._run_task, tasks, chunksize=1)))
    assert [r.name for r in got] == [entry[0] for entry in table]
    assert all(r.passed for r in got), [r.line() for r in got if not r.passed]


def test_a_dead_shard_fails_each_of_its_rows():
    """_run_checks gives each task whose worker died a record that fails
    each of its rows; the merge fails every row of that shard, and no
    other row. With n <= 9, every sector holds all eight swept rows."""
    table = swept(verify._checks(9, 2))
    tasks = verify._tasks(table)
    for sector in ((9, 5, 2), (2, 1, 1)):
        records = [({row: (None, 0.0) for row in task[1]}, 1) for task in tasks]
        k = next(k for k, task in enumerate(tasks) if task[3][:3] == sector)
        records[k] = ({row: ("error: worker process died (x)", 0.0) for row in tasks[k][1]}, 0)
        got = verify._merge(table, tasks, records)
        assert {r.name for r in got if not r.passed} == set(SWEPT)
        assert {r.counterexample for r in got if not r.passed} == {"error: worker process died (x)"}


def test_a_raising_check_is_a_failed_result():
    def crash(n):
        raise RuntimeError(f"sweep broke at n={n}")

    result = verify._run_checks([("crashes", "n <= 3", crash, (3,))], workers=1)[0]
    assert not result.passed
    assert result.counterexample.startswith("error:")
    assert "sweep broke at n=3" in result.counterexample


@pytest.mark.skipif(verify._pool_size(2) < 2, reason="needs two CPUs for a worker pool")
def test_a_dead_worker_fails_its_checks():
    """A worker that exits mid-check breaks the pool; the checks without a
    result come back failed, in table order, and verify_suite's caller
    sees no exception."""
    table = (
        ("worker_exits", "n <= 0", os._exit, (3,)),
        ("shadow_region", "|x|,|y| <= 1", verify._check_shadow, (1,)),
    )
    got = verify._run_checks(table)
    assert [r.name for r in got] == ["worker_exits", "shadow_region"]
    assert not got[0].passed and got[0].counterexample.startswith("error:")
