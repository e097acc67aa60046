"""Acceptance gate: every criterion at its stated tolerance.

Each test prints its pass/fail line (visible with pytest -s; the CLI
`acceptance` subcommand prints the same table).
"""

import dataclasses
import inspect
import itertools
import math
import time

import pytest

from shrinkerlab import acceptance as acc
from shrinkerlab import geometry as geo

# the detail lines each criterion must print, frozen verbatim from a full
# acceptance run; 5 prints a rounding-level two-guess gap, 8
# prints the f-minimal plane's term as 0.0e+00 (read at the plane's exact
# quadrature nodes, where H_f is exactly 0; the frozen report had the
# 1.8e-30 of the marching-squares interface), and 6 prints the Monte Carlo
# gap of streams that changed after the report was frozen, so those three
# are not frozen
FROZEN_DETAILS = {
    1: "max |x_perp + H| = 1.120e-15 (< 1e-9)",
    2: "max residual 7.520e-09 (< 1e-6), min sqrt slack -1.530e-13 (>= -1e-8)",
    3: ("plane 2.0000; Cylinder(m=2) 1.018; Cylinder(m=3) 2.035; Cylinder(m=3) 1.036; "
        "Sphere(m=2) -0.000; Sphere(m=3) -0.000"),
    4: ("slab on B_2: err(1/64) = 4.05e-07 (< 5e-4), order 2.00 (>= 1.8); "
        "annulus global: err(1/64) = 1.63e-05 (< 5e-4), order 2.03 (>= 1.8)"),
    7: ("phi=1: residual 1.08e-07 (<= 1e-3), halving ratio 0.17 (<= 0.75); "
        "cutoff: residual 1.72e-07 (<= 1e-3), halving ratio 0.13 (<= 0.75)"),
    9: ("slab grid lhs/rhs = 0.500; annulus grid lhs/rhs = 0.497; slab profile lhs/rhs = 0.500; "
        "annulus profile lhs/rhs = 0.500 (all <= 1.05)"),
    10: ("worst endpoint gap 0.0e+00 (<= 1e-10), 27-point bound holds, "
         "supersolution violation -1.16e-03 (<= 1e-6), annulus |grad u| 1.171 <= bound 7.389"),
    11: ("slab E(u) = 0.5244 <= E(Psi) - 1e-4 = 0.5361; "
         "annulus E(u) = 0.9930 <= E(Psi) - 1e-4 = 1.0414"),
    12: "pass/pass/fail pattern confirmed: [True, True, True]",
}


def _run(index, name, fn):
    t0 = time.time()
    passed, detail = fn()
    line = acc.CriterionResult(index=index, name=name, passed=bool(passed),
                               detail=detail, runtime=time.time() - t0).line()
    print(line)
    assert passed, line
    if index in FROZEN_DETAILS:
        assert detail == FROZEN_DETAILS[index]


def test_criterion_01_shrinker_residuals():
    _run(1, "shrinker residuals", acc.criterion_1_shrinker_residuals)


def test_criterion_02_cylinder_identities():
    _run(2, "cylinder identities", acc.criterion_2_cylinder_identities)


def test_criterion_03_volume_growth():
    _run(3, "volume growth", acc.criterion_3_volume_growth)


def test_criterion_04_solver_convergence():
    _run(4, "solver convergence", acc.criterion_4_solver_convergence)


def test_criterion_05_maximum_principle():
    _run(5, "maximum principle / uniqueness", acc.criterion_5_maximum_principle)


@pytest.mark.slow
def test_criterion_06_monte_carlo():
    _run(6, "Monte Carlo cross-validation", acc.criterion_6_monte_carlo)


def test_criterion_07_reilly():
    _run(7, "localized Reilly identity", acc.criterion_7_reilly)


def test_criterion_08_chain_attribution():
    _run(8, "energy chain attribution", acc.criterion_8_chain_attribution)


def test_criterion_09_caccioppoli():
    _run(9, "Caccioppoli inequality", acc.criterion_9_caccioppoli)


def test_criterion_10_barrier_suite():
    _run(10, "barrier suite", acc.criterion_10_barrier_suite)


def test_criterion_11_domination():
    _run(11, "variational domination", acc.criterion_11_domination)


def test_criterion_12_separation():
    _run(12, "separation heuristic", acc.criterion_12_separation)


def test_every_criterion_takes_no_arguments():
    # the inputs are pinned inside each criterion: 100k paths, meshes 1/64 and 1/128
    takes = {idx: list(inspect.signature(fn).parameters) for idx, _, fn in acc.CRITERIA}
    assert {idx: params for idx, params in takes.items() if params} == {}


def _nan_on_the_third_call(real, to_nan):
    calls = itertools.count()
    return lambda *args: to_nan(real(*args)) if next(calls) == 2 else real(*args)


@pytest.mark.parametrize("index, name, to_nan", [
    (1, "shrinker_residual", lambda residual: residual * math.nan),
    (2, "cylinder_identities",
     lambda rep: dataclasses.replace(rep, laplu_residual=math.nan)),
], ids=["shrinker-residual", "identity-residual"])
def test_a_nan_residual_fails_its_criterion(monkeypatch, index, name, to_nan):
    # Python's max(0.0, nan) keeps 0.0, so one NaN residual used to pass
    monkeypatch.setattr(geo, name, _nan_on_the_third_call(getattr(geo, name), to_nan))
    passed, detail = dict((idx, fn) for idx, _, fn in acc.CRITERIA)[index]()
    assert not passed and detail.startswith(("max |x_perp + H| = nan", "max residual nan"))
