"""Acceptance criteria at their stated tolerances, one test per criterion.

Run with -s to see the pass/fail ledger lines as they complete.
"""
import pytest

from alexgeo.acceptance import run_criterion

QUICK = False  # full sample counts; the suite targets < 5 minutes total

# margins of the library's paper checks that a criterion reports
JOINED = {
    2: ["distance estimates' worst margin", "length element margin"],
    4: ["max value-drop increase", "probe comparison-angle decrease",
        "probe separation from the geodesic"],
    8: ["|grad dist_boundary| floor on its collar"],
    9: ["plane queries left to the compass", "worst certified end slope"],
    11: ["extend/chop chop found", "extend/chop |extension atom|",
         "extend/chop lemma applies", "extend/chop lemma margin"],
}


def _run(number):
    res = run_criterion(number, quick=QUICK)
    print(res.line())
    assert res.passed, res.detail
    missing = set(JOINED.get(number, ())) - {m.name for m in res.margins}
    assert not missing, f"criterion {number} lacks {sorted(missing)}"


def test_criterion_01_model_plane_round_trip():
    _run(1)


def test_criterion_02_gradient_flow_contraction():
    _run(2)


def test_criterion_03_gexp_shortness():
    _run(3)


def test_criterion_04_radial_comparison():
    _run(4)


def test_criterion_05_quasigeodesic_suite():
    _run(5)


def test_criterion_06_boundary_concavity():
    _run(6)


def test_criterion_07_milka_polarity():
    _run(7)


def test_criterion_08_extremal_invariance_lieberman():
    _run(8)


def test_criterion_09_inf_convolution_oracle():
    _run(9)


def test_criterion_10_tight_maps():
    _run(10)


def test_criterion_11_entropy_decay():
    _run(11)
