"""Command-line behavior: goldens, method agreement, inverse checks, exits."""

import contextlib
import io
import json
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from pathbij import _maps
from pathbij.cli import _given_back, main
from pathbij.counting import count_grand_tuples_det
from pathbij.families import FamilySpec, WalkFamilySpec, enumerate_family, enumerate_walk_family
from pathbij.paths import end_height, valid_ij
from pathbij.partitions import enumerate_pp
from pathbij.render import render_svg
from pathbij.verify import CheckResult

import oracles


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def test_count_golden(capsys):
    assert run(capsys, "count", "--family", "G2", "--n", "4", "--method", "det") == (
        0,
        "20",
        "",
    )


def test_apply_goldens(capsys):
    assert run(capsys, "apply", "--map", "xi", "--input", "UU")[:2] == (0, "DU")
    assert run(capsys, "apply", "--map", "omega", "--input", "UD,DU")[:2] == (0, "NS")


def test_count_methods_agree(capsys):
    """Closed forms match the brute census wherever both are defined."""
    grids = [
        ({"--family": f}, ["formula"], range(9)) for f in ("A", "D", "P", "G")
    ]
    grids += [
        ({"--family": f}, ["det", "product", "sum"], range(9)) for f in ("G2", "P2")
    ]
    grids += [
        ({"--family": f, "--k": k}, ["det", "product"], range(7))
        for f in ("Gk", "Pk")
        for k in (1, 2, 3)
    ]
    grids += [
        ({"--family": f}, ["formula"], range(8)) for f in ("O", "Ox", "Odiag")
    ]
    grids += [
        ({"--family": "Qend", "--i": 0, "--j": 0}, ["formula"], range(0, 9, 2))
    ]
    for flags, methods, ns in grids:
        base = [kv for pair in flags.items() for kv in pair]
        for n in ns:
            code, brute, _ = run(capsys, "count", *base, "--n", n)
            assert code == 0
            for method in methods:
                got = run(capsys, "count", *base, "--n", n, "--method", method)
                assert got == (0, brute, ""), (flags, n, method)


def _mirrors(capsys, map_name, inverse, text, flags=(), inv_flags=()):
    code, image, err = run(capsys, "apply", "--map", map_name, "--input", text, *flags)
    assert code == 0, (map_name, text, err)
    code, back, err = run(capsys, "apply", "--map", inverse, "--input", image, *inv_flags)
    assert code == 0, (inverse, image, err)
    assert back == text, (map_name, text, image)


def test_single_path_maps_inverse_checked(capsys):
    for n in range(6):
        for p in enumerate_family(FamilySpec("P", n)):
            _mirrors(capsys, "xi", "xi_inv", p)
            _mirrors(capsys, "nu", "nu_inv", p)
            i = end_height(p)
            for s in range(i % 2, i + 1, 2):
                _mirrors(capsys, "xi_s", "xi_s_inv", p, ("--s", str(s)))


def test_pair_maps_inverse_checked(capsys):
    for n in range(6):
        for i, j in valid_ij(n):
            ij = ("--i", str(i), "--j", str(j))
            for p, q in enumerate_family(FamilySpec("M2", n, i=i, j=j)):
                text = f"{p},{q}"
                _mirrors(capsys, "phi", "phi_inv", text, ij, ij)
                _mirrors(capsys, "psi", "psi_inv", text)
                for s in range(i % 2, i + 1, 2):
                    _mirrors(capsys, "psi_s", "psi_s_inv", text, ("--s", str(s)))


def test_walk_maps_inverse_checked(capsys):
    for n in range(5):
        for p in enumerate_family(FamilySpec("A", n)):
            for q in enumerate_family(FamilySpec("A", n)):
                _mirrors(capsys, "omega", "omega_inv", f"{p},{q}")
        for w in enumerate_walk_family(WalkFamilySpec("Q", n)):
            x, y = oracles.walk_points(w)[-1]
            _mirrors(capsys, "psi_tilde", "psi_tilde_inv", w)
            if x >= y:
                ij = ("--i", str(x), "--j", str(y))
                _mirrors(capsys, "phi_tilde", "phi_tilde_inv", w, (), ij)
            for s in range(x % 2, x + 1, 2):
                _mirrors(
                    capsys, "psi_tilde_s", "psi_tilde_s_inv", w, ("--s", str(s))
                )


def test_walk_parameters_given_back_are_the_endpoint():
    """The walk inverses read i, j and s off the walk through its pair: the
    endpoint, for every walk of up to 6 steps, in the quadrant or not."""
    for n in range(7):
        for w in oracles.words(n, "ENSW"):
            i, j = oracles.walk_points(w)[-1]
            assert _given_back("walk", w) == {"s": i, "i": i, "j": j}


def _pp_text(a):
    return "; ".join(" ".join(str(x) for x in row) for row in a)


def test_partition_maps_inverse_checked(capsys):
    for p in range(1, 4):
        for q in range(4):
            # p = 0 with q > 0 is skipped: blank rows vanish from the text
            # encoding, and a cell-less box carries nothing to roundtrip
            for k in (1, 2, 3):
                for a in enumerate_pp(p, q, k):
                    text = _pp_text(a)
                    nk = ("--k", str(k), "--n", str(p + q))
                    code, image, _ = run(
                        capsys, "apply", "--map", "pp_to_tuple", "--input", text, *nk
                    )
                    assert code == 0
                    code, back, _ = run(
                        capsys, "apply", "--map", "tuple_to_pp", "--input", image
                    )
                    assert code == 0
                    assert back == text, (p, q, k, a)


def test_apply_checks_the_round_trip(capsys, monkeypatch):
    import pathbij

    # the CLI looks its maps up in the package namespace at call time
    monkeypatch.setattr(pathbij, "xi_inv", lambda g: g)
    code, out, err = run(capsys, "apply", "--map", "xi", "--input", "UU")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "xi_inv" in err


def test_tuple_to_pp_golden(capsys):
    got = run(capsys, "apply", "--map", "tuple_to_pp", "--input", "UDDU,DUDU")
    assert got == (0, "2 1; 2 0", "")
    empty = run(
        capsys, "apply", "--map", "pp_to_tuple", "--input", "", "--k", "2", "--n", "3"
    )
    assert empty == (0, "UUU,UUU", "")


def test_apply_json_records(capsys):
    code, out, _ = run(
        capsys, "apply", "--map", "phi", "--input", "UUDU,DUDU",
        "--i", "1", "--j", "1", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"] == "UUUU,UUDU"
    assert record["chi"] == [3] and record["lower_returns"] == [2, 4] and record["r"] == 2
    code, out, _ = run(capsys, "apply", "--map", "psi", "--input", "UUUD,UDUU", "--json")
    record = json.loads(out)
    assert record["result"] == "DUUD,DDUU" and record["flips"] == [1]


def test_count_json(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "M2", "--n", "4", "--i", "2", "--j", "0", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "family": "M2", "n": 4, "method": "brute", "count": 9, "i": 2, "j": 0,
    }


def test_verify_report(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 24  # one per identity plus the runtime line
    assert all(" PASS" in line for line in lines[:-1])
    assert lines[-1].startswith("total runtime:")
    assert re.fullmatch(r"total runtime: \d+\.\ds \(checks \d+\.\ds on \d+ workers?\)", lines[-1])


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "0", "--k", "1", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 23
    assert all(r["passed"] for r in records)
    assert {"name", "range", "passed", "counterexample", "seconds"} <= set(records[0])
    assert all(r["seconds"] >= 0 for r in records)
    assert err.startswith("total runtime:")
    assert re.fullmatch(r"total runtime: \d+\.\ds \(checks \d+\.\ds on \d+ workers?\)\n", err)


def test_verify_failure_exit(capsys, monkeypatch):
    import pathbij.verify

    monkeypatch.setattr(
        pathbij.verify, "verify_suite", lambda *a: (CheckResult("broken", "n <= 2", "x"),)
    )
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out and "broken" in out


def test_render_to_file_and_stdout(capsys, tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run(
        capsys, "render", "--kind", "path", "--input", "UD", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == render_svg("path", "UD")
    code, out, _ = run(capsys, "render", "--kind", "path", "--input", "UD")
    assert out == render_svg("path", "UD")


def test_render_to_an_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing" / "out.svg"
    code, out, err = run(
        capsys, "render", "--kind", "path", "--input", "UD", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not target.parent.exists()


@contextlib.contextmanager
def _every_digit():
    """Lift the interpreter's int-to-str limit (Python >= 3.11) for the test's
    own conversions."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_count_prints_every_digit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "count", "--family", "A", "--n", "20000", "--method", "formula")
    assert (code, err) == (0, "")
    with _every_digit():
        assert out == str(2**20000)
    assert len(out) == 6021
    # the largest n --method formula takes
    code, out, err = run(capsys, "count", "--family", "A", "--n", "100000", "--method", "formula")
    assert (code, err, len(out)) == (0, "", 30103)
    with _every_digit():
        assert out == str(2**100000)
    code, out, err = run(
        capsys, "count", "--family", "G2", "--n", "8000", "--method", "det", "--json"
    )
    assert (code, err) == (0, "")
    with _every_digit():
        record = json.loads(out)
    assert record["count"] == count_grand_tuples_det(8000, 2)
    assert record["count"] > 10**4300
    # the process-wide limit is as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_render_shadow_flags(capsys, tmp_path):
    code, out, _ = run(
        capsys, "render", "--kind", "walk", "--input", "EN",
        "--show-shadow", "--i", "1", "--j", "1",
    )
    assert code == 0
    assert out == render_svg("walk", "EN", show_shadow=True, i=1, j=1)


def test_exit_codes(capsys):
    cases = [
        ("count", "--family", "Z9", "--n", "2"),
        ("count", "--family", "G2", "--n", "4", "--method", "mystery"),
        ("count", "--family", "G2", "--n", "4", "--i", "2", "--j", "0", "--method", "det"),
        ("count", "--family", "O", "--n", "4", "--i", "1", "--j", "1", "--method", "formula"),
        ("count", "--family", "A", "--n", "4", "--s", "2", "--method", "formula"),
        ("count", "--family", "A", "--n", "4", "--k", "3", "--method", "formula"),
        # past the enumeration budget, or the cap on k (families._grow)
        ("count", "--family", "A", "--n", "20"),
        ("count", "--family", "Gk", "--k", "3", "--n", "12"),
        ("count", "--family", "Ak", "--k", "2", "--n", "12"),
        ("count", "--family", "D", "--n", "60"),
        ("count", "--family", "Gk", "--k", "40", "--n", "1"),
        ("count", "--family", "Gk", "--k", "0", "--n", "4"),
        # fields the family does not read
        ("count", "--family", "A", "--n", "4", "--s", "2"),
        ("count", "--family", "D", "--n", "4", "--i", "1", "--j", "1"),
        ("count", "--family", "Gk", "--n", "4", "--k", "2", "--i", "3"),
        ("count", "--family", "M2", "--n", "4", "--i", "2", "--j", "0", "--k", "5"),
        ("count", "--family", "Pend", "--n", "4", "--s", "2", "--i", "1"),
        ("count", "--family", "O", "--n", "4", "--k", "2"),
        ("count", "--family", "O", "--n", "4", "--s", "0"),
        ("count", "--family", "Gk", "--n", "4", "--method", "det"),
        ("count", "--family", "A", "--n", "100001", "--method", "formula"),
        ("count", "--family", "G2", "--n", "10001", "--method", "det"),
        ("count", "--family", "Gk", "--n", "4", "--k", "11", "--method", "det"),
        ("count", "--family", "P2", "--n", "301", "--method", "product"),
        ("count", "--family", "Gk", "--n", "4", "--k", "11", "--method", "product"),
        ("count", "--family", "Gk", "--n", "5", "--k", "0", "--method", "product"),
        ("count", "--family", "G2", "--n", "3001", "--method", "sum"),
        ("apply", "--map", "teleport", "--input", "UD"),
        ("apply", "--map", "xi", "--input", "UX"),
        ("apply", "--map", "xi_s", "--input", "UU"),
        ("apply", "--map", "phi", "--input", "UD"),
        ("apply", "--map", "phi", "--input", "UD,UD", "--i", "1", "--j", "1"),
        ("apply", "--map", "pp_to_tuple", "--input", "", "--k", "2"),
        ("apply", "--map", "pp_to_tuple", "--input", "2 x", "--k", "2"),
        # apply takes --k from 1 to 10 and --n up to 100,000; p < 0 is no box
        ("apply", "--map", "pp_to_tuple", "--input", "0 0", "--k", "0"),
        ("apply", "--map", "pp_to_tuple", "--input", "1", "--k", "11"),
        ("apply", "--map", "pp_to_tuple", "--input", "", "--k", "1000000", "--n", "3"),
        ("apply", "--map", "pp_to_tuple", "--input", "", "--k", "2", "--n", "100001"),
        ("apply", "--map", "pp_to_tuple", "--input", "", "--k", "2", "--n", "1000000000"),
        ("apply", "--map", "pp_to_tuple", "--input", "", "--k", "2", "--n", "-3"),
        # tuple_to_pp fills a p x q array: apply takes up to 10^6 cells
        ("apply", "--map", "tuple_to_pp", "--input", "U" * 2001 + "D" * 500),
        # flags the map does not read
        ("apply", "--map", "xi", "--input", "UU", "--s", "3"),
        ("apply", "--map", "psi", "--input", "UD,DU", "--i", "5", "--j", "9"),
        ("apply", "--map", "tuple_to_pp", "--input", "UDDU,DUDU", "--k", "7"),
        ("apply", "--map", "phi_tilde", "--input", "EN", "--i", "1", "--j", "1"),
        ("apply", "--map", "pp_to_tuple", "--input", "1", "--k", "1", "--s", "0"),
        ("verify", "--max-n", "-1"),
        ("verify", "--max-n", "11"),
        ("verify", "--k", "4"),
        ("verify", "--max-n", "12", "--k", "10"),
        ("render", "--kind", "path", "--input", "UD", "--show-shadow"),
        ("render", "--kind", "nothing", "--input", "UD"),
        ("render", "--kind", "pair", "--input", "UD,DU", "--i", "1"),
        ("render", "--kind", "walk", "--input", "EN", "--i", "1", "--j", "1"),
        # the shadow's corner (i, j) is bounded by the walk's length, as a sector's is
        ("render", "--kind", "walk", "--input", "E", "--show-shadow", "--i", "1000000000",
         "--j", "0"),
        ("render", "--kind", "walk", "--input", "EN", "--show-shadow", "--i", "2", "--j", "1"),
        ("render", "--kind", "walk", "--input", "EN", "--show-shadow", "--i", "-1000000000",
         "--j", "0"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
    # argparse-level failures also exit 2, with usage on stderr
    assert run(capsys, "elevate")[0] == 2
    assert run(capsys, "count", "--n", "4")[0] == 2
    assert run(capsys)[0] == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--family", "A"),
        ("--family", "P"),
        ("--family", "G"),
        ("--family", "D"),
        ("--family", "Odiag"),
        ("--family", "Qend", "--i", "0", "--j", "0"),
    ],
    ids=lambda flags: flags[1],
)
def test_count_formula_rejects_negative_n(capsys, flags):
    code, out, err = run(capsys, "count", *flags, "--n", "-1", "--method", "formula")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "nonnegative" in err


# any code point, lone surrogates included, as a command line's undecodable
# bytes arrive (st.text leaves surrogates out unless asked)
_JUNK = st.text(st.characters(exclude_categories=()), max_size=5)
# small values keep every brute count and verify sweep quick
_NUMBER = st.integers(-2, 6).map(str)
# the text encodings, by the kind of object they encode
_INPUTS = {
    "path": st.text("UD", max_size=8),
    "pair": st.lists(st.text("UD", max_size=6), min_size=2, max_size=3).map(",".join),
    "tripath": st.text("UDH", max_size=8),
    "walk": st.text("ENSW", max_size=8),
    "pp": st.text("0123 ;", max_size=10),
}
# a path tuple is encoded as a pair is, with any number of paths
_INPUT_OF_KIND = {"path": "path", "pair": "pair", "paths": "pair", "walk": "walk", "pp": "pp"}
# every family tag: path and tuple families, then walk families
_FAMILIES = (
    "A", "D", "G", "P", "Pend", "Aend", "M2", "P2", "G2", "Ak", "Pk", "Gk",
    "Q", "Qx", "Qend", "H", "Hend", "Hij", "O", "Ox", "Odiag", "Osh",
)
_VALUES = {
    "--family": st.sampled_from(_FAMILIES),
    "--method": st.sampled_from(("brute", "det", "product", "sum", "formula")),
    "--map": st.sampled_from(sorted(_maps.MAPS)),
    "--kind": st.sampled_from(("path", "pair", "tripath", "walk")),
    "--input": st.one_of(*_INPUTS.values()),
}
_SWITCHES = ("--json", "--show-matching", "--show-flips", "--show-shadow")
_REQUIRED = {"count": ("--family", "--n"), "apply": ("--map", "--input"), "render": ("--kind", "--input")}
_FLAGS = {
    "count": ("--k", "--i", "--j", "--s", "--method", "--json"),
    "apply": ("--n", "--k", "--i", "--j", "--s", "--json"),
    # verify always gets a --max-n of at most 1, below
    "verify": ("--k", "--json"),
    "render": ("--i", "--j", "--out", *_SWITCHES[1:]),
}


@st.composite
def _argvs(draw, out_paths):
    def rarely():  # about one time in ten
        return draw(st.sampled_from((False,) * 9 + (True,)))

    verb = draw(_JUNK if rarely() else st.sampled_from(sorted(_FLAGS)))
    argv = [verb]
    if verb == "verify":
        argv += ["--max-n", draw(st.sampled_from(("-1", "0", "1")))]
    flags = [f for f in _REQUIRED.get(verb, ()) if not rarely()]
    flags += draw(st.lists(st.sampled_from(_FLAGS.get(verb, ("--n",))), max_size=5))
    kind = None  # what --input should encode, once --map or --kind says
    for flag in flags:
        argv.append(flag)
        if flag == "--out":
            argv.append(draw(st.sampled_from(out_paths)))
            continue
        if flag in _SWITCHES:
            continue
        value = _VALUES.get(flag, _NUMBER)
        if flag == "--input" and kind in _INPUTS and not rarely():
            value = _INPUTS[kind]  # the encoding that --map or --kind reads
        argv.append(draw(_JUNK if rarely() else value))
        if flag == "--kind":
            kind = argv[-1]
        elif flag == "--map" and argv[-1] in _maps.MAPS:
            kind = _INPUT_OF_KIND[_maps.MAPS[argv[-1]].kind]
    if rarely():
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


def test_every_argument_list_ends_in_an_exit_code(tmp_path_factory):
    """Random argument lists from the real verbs, flags and encodings, plus
    junk: main returns 0, 1 or 2 and raises nothing."""
    out = tmp_path_factory.mktemp("render")
    out_paths = (str(out / "out.svg"), str(out / "missing" / "out.svg"))

    @settings(max_examples=200, deadline=None)
    @given(_argvs(out_paths))
    def check(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv

    check()


def test_brute_count_is_bounded_by_work_not_n(capsys):
    # one walk of 3000 steps: a long family, but a small one
    got = run(capsys, "count", "--family", "Qend", "--n", "3000", "--i", "3000", "--j", "0")
    assert got == (0, "1", "")
    # an end out of reach, or of the wrong parity, leaves no state at the
    # start: empty at once, however long
    n, far = str(10**12), str(10**12 + 1)
    for argv in (
        ("--family", "Pend", "--n", n, "--s", far),
        ("--family", "Aend", "--n", n, "--s=-" + far),
        ("--family", "Qend", "--n", n, "--i", n, "--j", "1"),
        ("--family", "Hend", "--n", n, "--i", n, "--j", "1"),
        ("--family", "Osh", "--n", n, "--i", n, "--j", "1"),
        # an end of the wrong parity: no layer of n steps ends there
        ("--family", "Pend", "--n", "1000000001", "--s", "0"),
        ("--family", "Aend", "--n", "1000001", "--s", "0"),
        ("--family", "Qend", "--n", "1000001", "--i", "0", "--j", "0"),
        ("--family", "Odiag", "--n", "1000001"),
        ("--family", "D", "--n", "100001"),
    ):
        start = time.perf_counter()
        assert run(capsys, "count", *argv) == (0, "0", ""), argv
        assert time.perf_counter() - start < 1, argv


def test_over_budget_counts_exit_2_in_bounded_memory():
    """Under a 1 GB address-space limit, each call that would enumerate a
    family past the budget, or build a path tuple past apply's bounds, ends
    with one error line and exit code 2, not a MemoryError traceback."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for argv in (
        ("count", "--family", "Gk", "--k", "3", "--n", "12"),
        ("count", "--family", "Ak", "--k", "2", "--n", "12"),
        ("count", "--family", "D", "--n", "60"),
        ("count", "--family", "Gk", "--k", "40", "--n", "1"),
        ("apply", "--map", "pp_to_tuple", "--input", "", "--k", "2", "--n", "1000000000"),
    ):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pathbij", *argv],
                capture_output=True, text=True, timeout=60, preexec_fn=limit,
            )
        except subprocess.TimeoutExpired:
            raise
        except subprocess.SubprocessError:  # setrlimit failed in the child
            pytest.skip("RLIMIT_AS cannot be set here")
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1, argv


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pathbij", "count", "--family", "G2", "--n", "4",
         "--method", "det"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "20\n"
