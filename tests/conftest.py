"""Prints one verdict line per acceptance criterion after the run, and
holds the one suite run that the acceptance and walk tests read.

Criteria 2-11 share that run, so a criterion has no time of its own.
"""

import re

import pytest

_LABELS = {
    1: "figure goldens",
    2: "nesting map is a bijection on every sector",
    3: "agreement map is a bijection on every sector",
    4: "five-way pair count agreement",
    5: "flip-record identities on every sector element",
    6: "walk conjugation and the step dictionary",
    7: "octant walk census vs closed forms",
    8: "floor bijection psi_s after phi_inv",
    9: "origin walks vs diagonal octant walks",
    10: "plane-partition roundtrip and box counts",
    11: "triple counts agree",
}

_outcomes: dict[int, bool] = {}


@pytest.fixture(scope="session")
def suite_report():
    """pathbij.verify.verify_suite(10, 3), run once per session in worker
    processes as `pathbij verify --max-n 10 --k 3` runs it, by report line
    name. Every bound lives in verify's table."""
    from pathbij import verify

    return {r.name: r for r in verify.verify_suite(10, 3)}


def pytest_runtest_logreport(report):
    match = re.search(r"test_acceptance\.py::test_c(\d\d)", report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.failed:
        _outcomes[num] = False
    elif report.passed and report.when == "call":
        _outcomes.setdefault(num, True)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_outcomes):
        verdict = "PASS" if _outcomes[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict}  {_LABELS.get(num, '')}")
