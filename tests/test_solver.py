import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erfi, expi

from shrinkerlab import domain as dm
from shrinkerlab import solver as sv
from shrinkerlab.errors import ContractViolation, ParameterError, SingularSystemError
from shrinkerlab.fields import GridField

# frozen from an independent Gauss-Kronrod quadrature of the closed forms
RADIAL_U_AT_1 = 0.28880994490040635
SLAB02_U_AT_1 = 0.2526921048336703


class TestClosedForms:
    def test_radial_endpoints_and_monotonicity(self):
        sol = sv.solve_radial(0.5, 2, 2)
        prof = sol.profile
        assert prof.value(0.5) == 0.0
        assert prof.value(2.0) == 1.0
        rs = np.linspace(0.5, 2.0, 17)
        vals = [prof.value(r) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_radial_regression_value(self):
        sol = sv.solve_radial(0.5, 2, 2)
        assert sol.profile.value(1.0) == pytest.approx(RADIAL_U_AT_1, abs=1e-10)

    def test_radial_parameter_errors(self):
        with pytest.raises(ParameterError):
            sv.solve_radial(1.0, 1.0, 2)
        with pytest.raises(ParameterError):
            sv.solve_radial(0.0, 1.0, 2)
        with pytest.raises(ParameterError):
            sv.solve_radial(-0.5, 1.0, 2)

    def test_slab_symmetry_and_regression(self):
        assert sv.solve_slab(-1, 1).profile.value(0.0) == pytest.approx(0.5, abs=1e-12)
        sol = sv.solve_slab(-1, 1)
        assert sol.profile.value(-1.0) == 0.0
        assert sol.profile.value(1.0) == 1.0
        assert sv.solve_slab(0, 2).profile.value(1.0) == pytest.approx(
            SLAB02_U_AT_1, abs=1e-10)

    def test_slab_depends_only_on_height(self):
        prof = sv.solve_slab(-1, 1).profile
        assert prof(np.array([3.7, 0.25])) == prof(np.array([-1.2, 0.25]))


@st.composite
def profiles(draw):
    """(profile, lower end, upper end) over random slabs and annuli in R^2..R^4."""
    lo = draw(st.floats(0.2, 2.0))
    hi = lo + draw(st.floats(0.05, 3.0))
    if draw(st.booleans()):
        lo, hi = lo - 2.5, hi - 2.5
        return sv.SlabProfile(lo, hi), lo, hi
    return sv.RadialProfile(lo, hi, draw(st.sampled_from([2, 3, 4]))), lo, hi


@st.composite
def profiles_and_coordinates(draw):
    prof, lo, hi = draw(profiles())
    ts = draw(arrays(float, draw(st.integers(1, 40)),
                     elements=st.floats(lo - 1.0, hi + 1.0)))
    return prof, lo, hi, ts


class TestBatchedProfiles:
    @settings(max_examples=300, deadline=None)
    @given(profiles_and_coordinates())
    def test_array_value_is_elementwise_scalar_value(self, case):
        prof, _, _, ts = case
        batch = prof.value(ts)
        assert batch.shape == ts.shape
        scalars = [prof.value(float(t)) for t in ts]
        assert all(type(v) is float for v in scalars)
        assert batch.tolist() == scalars

    @settings(max_examples=300, deadline=None)
    @given(profiles_and_coordinates())
    def test_range_and_monotonicity(self, case):
        prof, _, _, ts = case
        vals = prof.value(np.sort(ts))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(profiles(), st.floats(0.0, 10.0))
    def test_exact_ends(self, case, beyond):
        prof, lo, hi = case
        assert prof.value(lo) == 0.0 and prof.value(lo - beyond) == 0.0
        assert prof.value(hi) == 1.0 and prof.value(hi + beyond) == 1.0
        assert prof.value(np.array([lo - beyond, lo, hi, hi + beyond])).tolist() == [
            0.0, 0.0, 1.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(profiles())
    def test_closed_forms(self, case):
        prof, lo, hi = case
        slab = isinstance(prof, sv.SlabProfile)
        assume(slab or prof.ambient_dim == 2)
        t = np.linspace(lo, hi, 33)
        if slab:
            F = np.sqrt(np.pi / 2) * erfi(t / np.sqrt(2))   # int e^(t^2/2)
        else:
            F = 0.5 * expi(0.5 * t * t)                     # int s^-1 e^(s^2/2)
        exact = (F - F[0]) / (F[-1] - F[0])
        assert np.max(np.abs(prof.value(t) - exact)) <= 1e-13

    def test_points_batch_matches_rows(self, quasi_points):
        for prof in (sv.SlabProfile(-1, 1, ambient_dim=3, axis=1),
                     sv.RadialProfile(0.5, 2.5, 3)):
            P = quasi_points[3]
            rows = [prof(p) for p in P]
            assert all(type(v) is float for v in rows)
            assert prof(P).tolist() == rows
            assert prof.as_field().batch(P).tolist() == rows

    def test_max_node_error_calls_reference_once(self, annulus_grid_solution,
                                                 radial_profile):
        shapes = []

        def reference(pts):
            shapes.append(np.shape(pts))
            return radial_profile.profile(pts)

        err = sv.max_node_error(annulus_grid_solution, reference)
        assert len(shapes) == 1
        assert len(shapes[0]) == 2 and shapes[0][1] == 2 and shapes[0][0] > 1
        assert err == sv.max_node_error(annulus_grid_solution, radial_profile.profile)

    def test_max_node_error_rejects_a_pointwise_reference(self, annulus_grid_solution):
        with pytest.raises(ContractViolation, match="in one call"):
            sv.max_node_error(annulus_grid_solution, lambda p: float(np.linalg.norm(p)))


class TestEmptyComparisonSets:
    def test_max_node_error_names_within_radius(self, annulus_grid_solution,
                                                radial_profile):
        with pytest.raises(ParameterError, match="within_radius"):
            sv.max_node_error(annulus_grid_solution, radial_profile.profile,
                              within_radius=0.3)

    def test_sup_difference_names_empty_compact(self, annulus_grid_solution):
        sol = annulus_grid_solution
        blank = sv.Solution(
            field=GridField(sol.field.origin, sol.field.spacing,
                            np.full(sol.field.shape, np.nan)),
            report=sv.SolveReport(), grid=sol.grid)
        with pytest.raises(ParameterError, match="no node solved on both"):
            sv._sup_difference_on_compact(sol, blank, compact_radius=1.5)


class TestMixedBvp:
    def test_slab_second_order(self, slab_dom, slab_profile):
        errors = {}
        for h in (1 / 8, 1 / 16):
            sol = sv.solve_mixed_bvp(slab_dom, h=h, tol=1e-11)
            errors[h] = sv.max_node_error(sol, slab_profile.profile, within_radius=2.0)
        constants = {h: e / h ** 2 for h, e in errors.items()}
        cs = list(constants.values())
        assert max(cs) / min(cs) < 2.5, f"C = err/h^2 not stable: {constants}"

    def test_annulus_against_radial_oracle(self, annulus_dom, radial_profile):
        errs = []
        for h in (1 / 16, 1 / 32):
            sol = sv.solve_mixed_bvp(annulus_dom, h=h, tol=1e-11)
            errs.append(sv.max_node_error(sol, radial_profile.profile))
        assert errs[1] < 5e-4
        assert math.log2(errs[0] / errs[1]) > 1.4

    def test_constant_boundary_data(self, annulus_dom):
        sol = sv.solve_mixed_bvp(annulus_dom, h=1 / 16, tol=1e-11,
                                 boundary_values=(1.0, 1.0))
        vals = sol.field.values
        assert np.nanmin(vals) == pytest.approx(1.0, abs=1e-9)
        assert np.nanmax(vals) == pytest.approx(1.0, abs=1e-9)

    def test_maximum_principle(self, slab_grid_solution, annulus_grid_solution):
        for sol in (slab_grid_solution, annulus_grid_solution):
            assert np.nanmin(sol.field.values) >= 0.0
            assert np.nanmax(sol.field.values) <= 1.0

    def test_two_initial_guesses_agree(self, annulus_dom):
        tol = 1e-11
        a = sv.solve_mixed_bvp(annulus_dom, h=1 / 16, tol=tol, initial_guess=0.0)
        b = sv.solve_mixed_bvp(annulus_dom, h=1 / 16, tol=tol, initial_guess=1.0)
        gap = np.nanmax(np.abs(a.field.values - b.field.values))
        assert gap <= 10 * tol

    def test_pure_neumann_is_singular(self):
        far_ball = dm.DomainSpec(
            dm.OrientedBoundary(dm.SphereBoundary(5.0), side=-1), None,
            exhaustion_radius=2.0, ambient_dim=2, kind="ball", params={"rho": 5.0})
        with pytest.raises(SingularSystemError, match="constant"):
            sv.solve_mixed_bvp(far_ball, h=1 / 8)

    def test_grid_invariant_and_classification(self, annulus_dom):
        grid = sv.Grid(annulus_dom, h=1 / 16)
        assert grid.check_stencil_invariant()
        assert grid.node_count(sv.INTERIOR) > 0
        assert grid.node_count(sv.DIRICHLET0) > 0
        assert grid.node_count(sv.DIRICHLET1) > 0

    def test_boundary_separation_guard(self):
        squeezed = dm.annulus_domain(0.5, 0.55, ambient_dim=2)
        with pytest.raises(ParameterError, match="2 grid cells"):
            sv.Grid(squeezed, h=1 / 16)


class TestExhaustion:
    def test_slab_differences_decay(self, slab_dom):
        sol = sv.solve_exhaustion(slab_dom.with_radius(2.0), [2, 4, 8], h=1 / 16,
                                  tol=1e-4, linear_tol=1e-11)
        diffs = [d for _, d in sol.report.exhaustion_history]
        assert len(diffs) == 2
        assert diffs[1] < diffs[0]
        assert diffs[-1] < 1e-4
        assert sol.report.converged

    def test_annulus_saturated_ball(self, annulus_dom):
        sol = sv.solve_exhaustion(annulus_dom.with_radius(2.5), [2.5, 3.0, 3.5],
                                  h=1 / 16, tol=1e-6, linear_tol=1e-11)
        diffs = [d for _, d in sol.report.exhaustion_history]
        assert diffs == [0.0, 0.0]
        assert sol.report.details["neumann_nodes"] == 0

    def test_radius_count_guard(self, slab_dom):
        with pytest.raises(ParameterError):
            sv.solve_exhaustion(slab_dom, [4.0], h=1 / 16)
        with pytest.raises(ParameterError):
            sv.solve_exhaustion(slab_dom, [4.0, 3.0, 5.0], h=1 / 16)
