import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix, diags as sps_diags
from scipy.sparse.linalg import spsolve
from scipy.special import erfi, expi

from shrinkerlab import domain as dm
from shrinkerlab import geometry as geo
from shrinkerlab import solver as sv
from shrinkerlab.errors import (ContractViolation, ParameterError, SingularSystemError,
                               SolverConvergenceError)
from shrinkerlab.fields import GridField
from shrinkerlab.quadrature import gauss_legendre

# frozen from an independent Gauss-Kronrod quadrature of the closed forms
RADIAL_U_AT_1 = 0.28880994490040635
SLAB02_U_AT_1 = 0.2526921048336703

# sha256 of the Jacobi-scaled operator (data, indices, indptr) and of the
# scaled right-hand side that the multigrid solve receives: the perfbench
# grid_solve slab at seed 1 (a sub-cell shift of [-1, 1]) and annulus at
# h = 1/16, a slab upwinded beyond |x| = 16 at h = 1/8 and a 3D slab at
# h = 1/8; a changed bit or a changed in-row order moves them
GRID_SOLVE_SLAB = (-0.9960475717785147, 1.0039524282214853)
SCALED_SYSTEM_CASES = {
    "slab": (lambda: dm.slab_domain(*GRID_SOLVE_SLAB, ambient_dim=2, radius=5.0), 1 / 16),
    "annulus": (lambda: dm.annulus_domain(0.5, 2.0, ambient_dim=2), 1 / 16),
    "upwinded": (lambda: dm.slab_domain(-1 + 0.3 / 8, 1 + 0.3 / 8, ambient_dim=2, radius=24.0),
                 1 / 8),
    "slab3d": (lambda: dm.slab_domain(-1 + 0.3 / 16, 1 + 0.3 / 16, ambient_dim=3, radius=2.0),
               1 / 8),
}
SCALED_SYSTEM_SHA256 = {
    "slab": ("83c66270af6998b439328a4855e0c2e229d1a1cf638945d07ea48e69a2f5afb1",
             "4470520b84019c7fe4f07f200155346e8b9586c389034baef6bdc9b7b977d3b9"),
    "annulus": ("ad7da4d125d950ff099ca0bed0c645360094c24f9d9187d09eb624d650aadc35",
                "9966dd128def90bce4f55a664abd0f3145f3f63ec9a1b99b9d8447bd00f00100"),
    "upwinded": ("e695d9035e0481e6e1ca459537b8515359e3d94c435060e5784d2547d76821a9",
                 "1f357c92665aada6a34746acb80f11fe07ee158eecba397f34786058ecdf30be"),
    "slab3d": ("c6e4f788a641ca39f4e96f2dfb12b6fa47a07feb49fb1a1cd91f6251b0bea09b",
               "3fcacc5426eac323d028cf96aa45c2eeec83c2404c7d4a51f5fbda5a8ea5aaae"),
}
# sha256 of each level's prolongation P (CSR data, indices, indptr) and of
# the coarse operator it makes (CSR, and the CSC factored on the coarsest
# level), for the grid_solve slab at h = 1/64 and the 3D slab at h = 1/16
# (four levels: 94,224, 13,733, 2,137 and 385 unknowns)
HIERARCHY_CASES = {
    "slab": (lambda: dm.slab_domain(*GRID_SOLVE_SLAB, ambient_dim=2, radius=5.0), 1 / 64),
    "slab3d": (SCALED_SYSTEM_CASES["slab3d"][0], 1 / 16),
}
HIERARCHY_SHA256 = {
    "slab": {
        "P": ["3b26654bebaeed4b2b5bac2131815303baba22e7ffedf83629a610b514a59547",
              "c570cdbc885229b8eb09d29eae2fdadfadd4607b091b676b68a46dcd9bdb6cb9",
              "e373a4c935f173f49753b0bbc31f881d156535fa9bbc39dcef27fa139b5ecc94"],
        "coarse": ["07400d36cd5e816eda5cc6f0e10d6e81b5c9402f38f16669a6b52093958a0b5f",
                   "fe22926944c88bc9eac8e794a08768fc72c661b7cb4c795d316942c4f4746c07",
                   "23a62b162ddd795962b7f056a39071b7e1f04357685abfe037deef8c5bf2ebcf"],
    },
    "slab3d": {
        "P": ["191594313c0eb0a8aef5e8ccda55d650685a1904e03d8e3ef8d696bd8c6725b4",
              "a23ad020bb3fa336abc3db4a55e719625ff66944b5da21696ca3d0372777dbff",
              "1734e8070616168f5c44113802b5446652a9286b14c6b8acc2261cd2c03def33"],
        "coarse": ["83cb462e9f7aca60babfa755b5bc4954d74dd0c984827e0496a5310a68d7ad6a",
                   "9f398e1f0e05673ccb9b643a960aaae5d543b148ff5c25643cc06c4f9fa1a572",
                   "71e9bec787cab10758318f2fe86138f056426e331fbd562c77a62093c926f4aa"],
    },
}


def _sha256(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


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

    @pytest.mark.parametrize("build, message", [
        (lambda: sv.SlabProfile(-1.0, 1e400), "profile interval [-1.0, inf] must be finite "
                                              "and non-empty"),
        (lambda: sv.SlabProfile(1.0, 1.0), "profile interval [1.0, 1.0] must be finite and "
                                           "non-empty"),
        (lambda: sv.SlabProfile(-1.0, 1.0, ambient_dim=0), "ambient dimension must be at "
                                                           "least 2, got 0"),
        (lambda: sv.RadialProfile(0.5, math.nan, 2), "profile interval [0.5, nan] must be "
                                                     "finite and non-empty"),
        (lambda: sv.RadialProfile(0.5, 2.0, 1), "ambient dimension must be at least 2, got 1"),
    ], ids=["infinite-slab", "empty-slab", "zero-dim-slab", "nan-annulus", "one-dim-annulus"])
    def test_profiles_check_their_interval_and_dimension(self, build, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()

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

    @settings(max_examples=100, deadline=None)
    @given(profiles_and_coordinates())
    def test_value_equals_the_block_panel_sum(self, case):
        # the partial panel as one (N, 8) density block summed left to right
        # over its columns: the node-by-node sum rounds alike
        prof, _, _, ts = case
        xi, w = gauss_legendre(8)
        s = np.clip(ts, prof._nodes[0], prof._nodes[-1])
        i = np.minimum(np.searchsorted(prof._nodes, s, side="right") - 1, prof._nodes.size - 2)
        x0 = prof._nodes[i]
        g = prof.density(x0[:, None] + (s - x0)[:, None] * xi)
        u = prof._table[i] + (s - x0) * sum(wk * gk for wk, gk in zip(w, g.T)) / prof.normalization
        u = np.where(s >= prof._nodes[-1], 1.0, np.minimum(u, 1.0))
        assert prof.value(ts).tobytes() == u.tobytes()

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

    @pytest.mark.parametrize("guess", ["nan", "inf"])
    def test_non_finite_initial_guess_is_a_usage_error(self, annulus_dom, guess):
        with pytest.raises(ParameterError, match="initial guess must be finite"):
            sv.solve_mixed_bvp(annulus_dom, h=1 / 16, initial_guess=float(guess))

    def test_nan_solution_is_not_converged(self, annulus_dom, monkeypatch):
        def nan_solve(A_s, b_s, *args):
            return np.full(b_s.size, np.nan), [1.0, final], [b_s.size], [A_s.nnz]

        monkeypatch.setattr(sv, "_multigrid_bicgstab", nan_solve)
        final = math.nan
        with pytest.raises(SolverConvergenceError, match="nan"):
            sv.solve_mixed_bvp(annulus_dom, h=1 / 16)
        # a NaN that passes the residual test still breaks the maximum principle
        final = 0.0
        with pytest.raises(ContractViolation, match="maximum principle"):
            sv.solve_mixed_bvp(annulus_dom, h=1 / 16)

    def test_pure_neumann_is_singular(self):
        far_ball = dm.DomainSpec(
            dm.OrientedBoundary(geo.Sphere(1, 5.0), side=-1), None,
            exhaustion_radius=2.0, ambient_dim=2)
        with pytest.raises(SingularSystemError, match="constant"):
            sv.solve_mixed_bvp(far_ball, h=1 / 8)

    @pytest.mark.parametrize("radius, h", [(0.5, 1 / 4), (0.6, 0.2)])
    def test_a_slab_outside_the_exhaustion_ball_is_singular(self, radius, h):
        # Dirichlet nodes lie in the ghost band, but no stencil leg reaches them
        grid = sv.Grid(dm.slab_domain(-1, 1, ambient_dim=2, radius=radius), h)
        assert np.any(grid.dirichlet_values() == sv.DIRICHLET_DATA["sigma1"])
        with pytest.raises(SingularSystemError, match="no stencil leg reaches Dirichlet data"):
            sv._assemble(grid)

    def test_grid_invariant_and_classification(self, annulus_dom):
        grid = sv.Grid(annulus_dom, h=1 / 16)
        data = grid.dirichlet_values()
        # every solved node's axis neighbors inside the ball are solved or
        # carry data, those next to the exhaustion sphere included
        flat = np.flatnonzero(grid.solved_mask)
        strides = [math.prod(grid.shape[ax + 1:]) for ax in range(grid.ndim)]
        for step in strides + [-s for s in strides]:
            nb = flat + step
            known = grid.solved_mask[nb] | ~np.isnan(data[nb])
            assert np.all(known | (grid.r[nb] > grid.radius))
        assert np.all(np.isnan(data[grid.solved_mask]))
        assert flat.size > 0
        for label in ("sigma1", "sigma2"):
            assert np.any(data == sv.DIRICHLET_DATA[label])

    def test_3d_slab_second_order(self):
        # x3 = +-1 at exhaustion radius 4: at radius 3 the Neumann mirror on
        # the exhaustion sphere, not the mesh, sets the error on B_2
        dom = dm.slab_domain(-1, 1, ambient_dim=3, radius=4.0)
        profile = sv.solve_slab(-1, 1, ambient_dim=3).profile
        errs = [sv.max_node_error(sv.solve_mixed_bvp(dom, h=h, tol=1e-11), profile,
                                  within_radius=2.0) for h in (1 / 8, 1 / 16)]
        assert errs[1] < 1e-5
        assert math.log2(errs[0] / errs[1]) >= 1.8

    def test_solve_peaks_below_30_mib(self):
        # the grid_solve slab at h = 1/64 (81,350 unknowns), Grid included
        dom = dm.slab_domain(*GRID_SOLVE_SLAB, ambient_dim=2, radius=5.0)
        sv.solve_mixed_bvp(dom, h=1 / 16, tol=1e-11)   # imports stay out of the trace
        tracemalloc.start()
        try:
            sv.solve_mixed_bvp(dom, h=1 / 64, tol=1e-11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2 ** 20

    @pytest.mark.parametrize("radius", [24.0, 5.0])
    def test_report_counts_upwinded_rows_cut_legs_and_nonzeros(self, radius):
        # at h = 1/8 the drift is upwinded exactly where |x| > 16
        dom = dm.slab_domain(-1 + 0.3 / 8, 1 + 0.3 / 8, ambient_dim=2, radius=radius)
        sol = sv.solve_mixed_bvp(dom, h=1 / 8, tol=1e-11)
        grid, det = sol.grid, sol.report.details
        flat = np.flatnonzero(grid.solved_mask)
        x = grid.coordinates(flat)[:, 0]
        assert det["upwind_fraction"] == np.count_nonzero(np.abs(x) > 16) / flat.size
        assert (det["upwind_fraction"] > 0) == (radius > 16)
        # a cut leg reaches an unsolved neighbor at or beyond a Dirichlet surface
        cut = 0
        for step in (1, -1, grid.shape[1], -grid.shape[1]):
            nb = flat + step
            beyond = np.logical_or.reduce([depth[nb] <= grid.snap
                                           for depth in grid.depths.values()])
            cut += np.count_nonzero(~grid.solved_mask[nb] & beyond)
        assert det["cut_legs"] == cut > 0
        # an irregular row has a cut or a mirrored leg: some unsolved axis neighbor
        steps = (1, -1, grid.shape[1], -grid.shape[1])
        irregular = np.logical_or.reduce([~grid.solved_mask[flat + step] for step in steps])
        assert det["irregular_rows"] == np.count_nonzero(irregular) > 0
        assert len(det["level_nnz"]) == det["levels"]
        assert det["level_nnz"][0] == det["operator_nnz"] <= 5 * det["unknowns"]

    def test_boundary_separation_guard(self):
        squeezed = dm.annulus_domain(0.5, 0.55, ambient_dim=2)
        with pytest.raises(ParameterError, match="2 grid cells"):
            sv.Grid(squeezed, h=1 / 16)


@st.composite
def mixed_problems(draw, max_radius=3.0):
    """(domain, h) over random slabs with sub-cell offsets and random annuli.

    Slabs reach |x| = max_radius; beyond |x| = 2 / h the drift is upwinded.
    """
    h = 1 / draw(st.integers(8, 32))
    if draw(st.booleans()):
        h1 = -1.0 + draw(st.floats(0.0, 1.0)) * h
        h2 = h1 + draw(st.floats(0.5, 2.0))
        radius = draw(st.floats(1.5, max_radius))
        return dm.slab_domain(h1, h2, ambient_dim=2, radius=radius), h
    a = draw(st.floats(0.3, 1.0))
    return dm.annulus_domain(a, a + draw(st.floats(0.5, 1.5)), ambient_dim=2), h


class TestMixedBvpProperties:
    @settings(max_examples=100, deadline=None)
    @given(mixed_problems(max_radius=24.0))
    # drift upwinded for |x| > 16, next to cut legs
    @example((dm.slab_domain(-1 + 0.3 / 8, 1 + 0.3 / 8, ambient_dim=2, radius=24.0), 1 / 8))
    def test_assembled_operator_is_an_m_matrix(self, case):
        dom, h = case
        grid = sv.Grid(dom, h)
        A, _, _, _ = sv._assemble(grid)
        # int32 CSR with the diagonal and at most one entry per solved axis
        # neighbour in every row, and no stored zero
        assert A.format == "csr"
        assert A.indices.dtype == A.indptr.dtype == np.int32
        counts = np.diff(A.indptr)
        assert np.all((counts >= 1) & (counts <= 2 * grid.ndim + 1))
        rows = np.repeat(np.arange(A.shape[0]), counts)
        assert np.array_equal(np.bincount(rows[A.indices == rows], minlength=A.shape[0]),
                              np.ones(A.shape[0], dtype=int))
        assert A.data.all()
        # D^-1 A: a positive diagonal and non-positive off-diagonal entries
        diag = A.diagonal()
        off = A - sps_diags(diag)
        assert np.all(diag > 0.0)
        assert np.all(off.data <= 0.0)
        off_sum = np.asarray(np.abs(off).sum(axis=1)).ravel()
        assert np.all(diag - off_sum >= -1e-12 * diag)

    @settings(max_examples=50, deadline=None)
    @given(mixed_problems())
    # a lone node with two odd indices at the exhaustion edge is the only
    # child of two coarse parents, whose equal columns made P^T A P singular
    @example((dm.slab_domain(-0.9947084632288052, -0.1562223448110882, ambient_dim=2,
                             radius=2.1802858335314026), 1 / 29))
    @example((dm.slab_domain(-0.9778652908739377, -0.2187542867184612, ambient_dim=2,
                             radius=2.7354812025249413), 1 / 29))
    @example((dm.slab_domain(-0.9704551319063767, -0.3533752793845216, ambient_dim=2,
                             radius=2.0749790948217477), 1 / 29))
    def test_range_and_two_guess_gap(self, case):
        dom, h = case
        tol = 1e-11
        a = sv.solve_mixed_bvp(dom, h=h, tol=tol, initial_guess=0.0)
        b = sv.solve_mixed_bvp(dom, h=h, tol=tol, initial_guess=1.0)
        for sol in (a, b):
            assert np.nanmin(sol.field.values) >= 0.0
            assert np.nanmax(sol.field.values) <= 1.0
        assert np.nanmax(np.abs(a.field.values - b.field.values)) <= 10 * tol


def _reference_assemble(grid):
    """The operator of `solver._assemble` before its scaling, built arm by
    arm: per axis, the unequal-arm formula on every row, then each arm's
    solved entries written through cursors (`head` from a row's front,
    `tail` from its back) in descending column order.  Returns the CSR
    arrays, b and the counters."""
    h, snap = grid.h, grid.snap
    flat = np.flatnonzero(grid.solved_mask)
    n = flat.size
    unknown_of = np.full(grid.solved_mask.size, -1, dtype=np.int32)
    unknown_of[flat] = np.arange(n, dtype=np.int32)
    strides = [math.prod(grid.shape[ax + 1:]) for ax in range(grid.ndim)]

    def leg(step):
        off = np.flatnonzero(~grid.solved_mask[flat + step])
        node, nb = flat[off], flat[off] + step
        theta_best = np.full(off.size, np.inf)
        kind, uB = np.zeros(off.size, dtype=np.int8), np.zeros(off.size)
        for label, depth in grid.depths.items():
            d0, d1 = depth[node], depth[nb]
            crossing = d1 <= snap
            with np.errstate(divide="ignore", invalid="ignore"):
                theta = np.where(crossing, d0 / np.maximum(d0 - d1, 1e-300), np.inf)
            better = crossing & (theta < theta_best)
            theta_best = np.where(better, theta, theta_best)
            kind[better] = 1
            uB[better] = sv.DIRICHLET_DATA[label]
        cut = kind == 1
        L = np.full(off.size, h)
        L[cut] = np.clip(theta_best[cut], sv._SNAP, 1.0) * h
        kind[~cut & (grid.r[nb] > grid.radius)] = 2
        strays = int(np.count_nonzero(kind == 0))
        kind[kind == 0] = 2
        neumann[off[grid.r[nb] > grid.radius]] = True
        return off, L, kind, uB, strays

    neumann = np.zeros(n, dtype=bool)
    legs = {(ax, sgn): leg(sgn * strides[ax]) for ax in range(grid.ndim) for sgn in (+1, -1)}
    counts = np.full(n, 2 * grid.ndim + 1)
    for off, *_ in legs.values():
        counts[off] -= 1
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    head, tail = indptr[:-1].copy(), indptr[1:] - 1
    diag, rhs = np.zeros(n), np.zeros(n)
    upwinded, irregular = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    counters = {"defensive_mirrors": 0, "upwind_rows": 0, "cut_legs": 0}
    for ax in range(grid.ndim):
        v = -grid.axes[ax][(flat // strides[ax]) % grid.shape[ax]]
        L_p, L_m = np.full(n, h), np.full(n, h)
        L_p[legs[ax, +1][0]] = legs[ax, +1][1]
        L_m[legs[ax, -1][0]] = legs[ax, -1][1]
        c_p, c_m = 2.0 / (L_p * (L_p + L_m)), 2.0 / (L_m * (L_p + L_m))
        coef_p, coef_m, coef_0 = c_p.copy(), c_m.copy(), -(c_p + c_m)
        central = (v >= -2.0 / L_m) & (v <= 2.0 / L_p)
        up_fwd = v > 2.0 / L_p
        coef_p += np.where(central, v * L_m / (L_p * (L_p + L_m)), 0.0)
        coef_m -= np.where(central, v * L_p / (L_m * (L_p + L_m)), 0.0)
        coef_0 += np.where(central, v * (L_p - L_m) / (L_p * L_m), 0.0)
        coef_p += np.where(up_fwd, v / L_p, 0.0)
        coef_0 -= np.where(up_fwd, v / L_p, 0.0)
        up_bwd = ~central & ~up_fwd
        coef_m -= np.where(up_bwd, v / L_m, 0.0)
        coef_0 += np.where(up_bwd, v / L_m, 0.0)
        upwinded |= ~central
        diag += coef_0
        for sgn, coef, cursor, move in ((+1, coef_p, head, 1), (-1, coef_m, tail, -1)):
            off, _, kind, uB, strays = legs[ax, sgn]
            is_solved = np.ones(n, dtype=bool)
            is_solved[off] = False
            irregular[off] = True
            at = cursor[is_solved]
            indices[at] = unknown_of[flat[is_solved] + sgn * strides[ax]]
            data[at] = coef[is_solved]
            cursor[is_solved] += move
            rhs[off[kind == 1]] -= coef[off[kind == 1]] * uB[kind == 1]
            diag[off[kind == 2]] += coef[off[kind == 2]]
            counters["defensive_mirrors"] += strays
            counters["cut_legs"] += int(np.count_nonzero(kind == 1))
    indices[head] = np.arange(n, dtype=np.int32)
    data[head] = diag
    counters["upwind_rows"] = int(np.count_nonzero(upwinded))
    counters["neumann_rows"] = int(np.count_nonzero(neumann))
    counters["irregular_rows"] = int(np.count_nonzero(irregular))
    return indptr, indices, data, rhs, counters


# the largest exhaustion radius drawn per (dimension, 1/h), so grids stay small
_MAX_RADIUS = {(2, 2): 8.0, (2, 8): 24.0, (2, 16): 6.0, (3, 2): 8.0, (3, 8): 3.0, (3, 16): 1.5}


@st.composite
def assembly_cases(draw):
    """(domain, h): slabs with sub-cell offsets and annuli in R^2 and R^3 at
    h in {1/2, 1/8, 1/16}; beyond |x| = 2 / h the drift is upwinded."""
    dim = draw(st.sampled_from([2, 3]))
    inv_h = draw(st.sampled_from([2, 8, 16]))
    h, reach = 1 / inv_h, _MAX_RADIUS[dim, inv_h]
    if reach < 3.0 or draw(st.booleans()):
        h1 = -1.0 + draw(st.floats(0.0, 1.0)) * h
        h2 = h1 + draw(st.floats(2.5 * h, 2.0))
        return dm.slab_domain(h1, h2, ambient_dim=dim,
                              radius=draw(st.floats(1.0, reach))), h
    a = draw(st.floats(0.3, 1.0))
    b = a + draw(st.floats(2.5 * h, reach - 1.0 - a))
    radius = draw(st.floats(max(a + 0.5, b - 0.5), b + 1.0))
    return dm.annulus_domain(a, b, ambient_dim=dim, radius=radius), h


@settings(max_examples=60, deadline=None, derandomize=True)
@given(assembly_cases())
@example((dm.slab_domain(-1 + 0.3 / 8, 1 + 0.3 / 8, ambient_dim=2, radius=24.0), 1 / 8))
@example((dm.annulus_domain(0.5, 6.0, ambient_dim=2, radius=7.0), 1 / 2))
# beyond |x| = 4 a leg cut short by the inner circle keeps the drift central
@example((dm.annulus_domain(4.6, 7.0, ambient_dim=2, radius=8.0), 1 / 2))
@example((dm.slab_domain(-1 + 0.3 / 2, 1 + 0.3 / 2, ambient_dim=3, radius=8.0), 1 / 2))
def test_assembly_equals_the_arm_by_arm_reference(case):
    dom, h = case
    try:
        grid = sv.Grid(dom, h)
        A, b, flat, counters = sv._assemble(grid)
    except (ParameterError, SingularSystemError):
        assume(False)
    indptr, indices, data, rhs, expected = _reference_assemble(grid)
    # the Jacobi scaling as scipy's product of a diagonal with A stores it
    ref = csr_matrix((data, indices, indptr), shape=A.shape)
    d = ref.diagonal()
    ref.data *= np.repeat(1.0 / d, np.diff(ref.indptr))
    ref.eliminate_zeros()
    indptr, indices, data, rhs = ref.indptr, ref.indices, ref.data, rhs / d
    assert np.array_equal(flat, np.flatnonzero(grid.solved_mask))
    for got, want in ((A.indptr, indptr), (A.indices, indices), (A.data, data), (b, rhs)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert counters == expected


def test_node_counts_equal_the_former_node_classes(classified_solution):
    config, sol, (solved, neumann, dirichlet) = classified_solution
    n_neumann = int(np.count_nonzero(neumann))
    expected = {"interior_nodes": int(np.count_nonzero(solved)) - n_neumann,
                "neumann_nodes": n_neumann, "dirichlet_nodes": int(np.count_nonzero(dirichlet))}
    assert {key: sol.report.details[key] for key in expected} == expected
    # the annulus (0.5, 2) lies inside its exhaustion ball of radius 3
    assert (expected["neumann_nodes"] > 0) == (config["kind"] != "annulus")
    assert expected["dirichlet_nodes"] > 0
    # the values carry data exactly at the solved and the ghost-band nodes
    known = np.count_nonzero(~np.isnan(sol.field.values))
    assert known == sol.report.details["unknowns"] + expected["dirichlet_nodes"]


def _reference_prolongation(idx):
    """The prolongation by its definition, node by node: a node's parents
    are the products of its per-axis pairs floor(i/2), ceil(i/2), each of
    weight 2^-o for a node with o odd indices; the parents some node
    references are numbered in lexicographic order, and parents referenced
    by exactly the same nodes share the column of the first of them, their
    weights summed.  When columns merge, P is a sparse product, which stores
    each row in reverse order of first appearance.  Returns the CSR arrays
    and the coarse indices of the columns."""
    rows = []
    for node in idx.tolist():
        pairs = [sorted({i // 2, -(-i // 2)}) for i in node]
        weight = 0.5 ** sum(i % 2 for i in node)
        rows.append({parent: weight for parent in itertools.product(*pairs)})
    support = {}
    for r, row in enumerate(rows):
        for parent in row:
            support.setdefault(parent, []).append(r)
    column, first, kept = {}, {}, []
    for parent in sorted(support):
        key = tuple(support[parent])
        if key not in first:
            first[key] = len(kept)
            kept.append(parent)
        column[parent] = first[key]
    merged = len(kept) < len(support)
    indptr, indices, data = [0], [], []
    for row in rows:
        entries = {}
        for parent, weight in row.items():
            entries[column[parent]] = entries.get(column[parent], 0.0) + weight
        items = list(entries.items())[::-1] if merged else list(entries.items())
        indices += [c for c, _ in items]
        data += [w for _, w in items]
        indptr.append(len(indices))
    return np.array(data), np.array(indices), np.array(indptr), np.array(kept)


class TestMultigrid:
    @pytest.mark.parametrize("geom", ["slab", "annulus"])
    def test_iterations_flat_in_h(self, geom, slab_dom, annulus_dom):
        # iterations never grow as h shrinks
        dom = {"slab": slab_dom, "annulus": annulus_dom}[geom]
        iterations = [sv.solve_mixed_bvp(dom, h=h, tol=1e-11).report.iterations
                      for h in (1 / 16, 1 / 32, 1 / 64)]
        assert iterations == sorted(iterations, reverse=True), iterations

    def test_iterations_flat_in_h_3d(self):
        dom = dm.slab_domain(-1 + 0.3 / 16, 1 + 0.3 / 16, ambient_dim=3, radius=2.0)
        reports = [sv.solve_mixed_bvp(dom, h=h, tol=1e-11).report for h in (1 / 8, 1 / 16)]
        assert reports[1].iterations <= reports[0].iterations, [r.iterations for r in reports]
        assert all(r.linear_residual <= 1e-11 for r in reports)

    def test_matches_direct_solve(self, annulus_dom):
        sol = sv.solve_mixed_bvp(annulus_dom, h=1 / 16, tol=1e-11)
        A, b, flat_solved, _ = sv._assemble(sol.grid)
        direct = spsolve(A.tocsc(), b)
        assert np.max(np.abs(sol.field.values.reshape(-1)[flat_solved] - direct)) <= 1e-10

    @pytest.mark.parametrize("case", sorted(SCALED_SYSTEM_CASES))
    def test_scaled_system_is_bit_identical(self, case, monkeypatch):
        seen = {}
        solve = sv._multigrid_bicgstab

        def spy(A_s, b_s, *args):
            seen["A"] = _sha256(A_s.data, A_s.indices, A_s.indptr)
            seen["b"] = _sha256(b_s)
            return solve(A_s, b_s, *args)

        monkeypatch.setattr(sv, "_multigrid_bicgstab", spy)
        make_domain, h = SCALED_SYSTEM_CASES[case]
        sv.solve_mixed_bvp(make_domain(), h=h, tol=1e-11)
        assert (seen["A"], seen["b"]) == SCALED_SYSTEM_SHA256[case]

    @pytest.mark.parametrize("case", sorted(HIERARCHY_CASES))
    def test_hierarchy_is_bit_identical(self, case, monkeypatch):
        import scipy.sparse.linalg as spla

        seen = {"P": [], "coarse": []}
        factor = spla.splu

        class Recorded(sv._VCycle):
            def __init__(self, A, idx):
                super().__init__(A, idx)
                for A_l, _, P, R in self.levels:
                    # the V-cycle restricts through the CSC view of P's arrays
                    assert R.format == "csc" and np.shares_memory(R.data, P.data)
                    seen["P"].append(_sha256(P.data, P.indices, P.indptr))
                    seen["coarse"].append(_sha256(A_l.data, A_l.indices, A_l.indptr))

        def spy(A, *args, **kwargs):
            seen["factored"] = _sha256(A.data, A.indices, A.indptr)
            return factor(A, *args, **kwargs)

        monkeypatch.setattr(sv, "_VCycle", Recorded)
        monkeypatch.setattr(spla, "splu", spy)
        make_domain, h = HIERARCHY_CASES[case]
        sv.solve_mixed_bvp(make_domain(), h=h, tol=1e-11)
        # level 0 holds the finest operator, level l > 0 the coarse one of l - 1
        assert seen["P"] == HIERARCHY_SHA256[case]["P"]
        assert seen["coarse"][1:] + [seen["factored"]] == HIERARCHY_SHA256[case]["coarse"]

    def test_two_solves_bit_identical(self, slab_dom):
        a = sv.solve_mixed_bvp(slab_dom, h=1 / 16, tol=1e-11)
        b = sv.solve_mixed_bvp(slab_dom, h=1 / 16, tol=1e-11)
        assert np.array_equal(a.field.values, b.field.values, equal_nan=True)
        assert dataclasses.asdict(a.report) == dataclasses.asdict(b.report)

    def test_report_records_levels_and_every_iteration(self, slab_grid_solution):
        rep = slab_grid_solution.report
        det = rep.details
        assert det["levels"] == len(det["level_unknowns"]) >= 2
        assert det["level_unknowns"][0] == det["unknowns"]
        assert det["level_unknowns"][-1] <= sv._COARSEST
        assert all(a > b for a, b in zip(det["level_unknowns"], det["level_unknowns"][1:]))
        assert len(det["residual_history"]) == rep.iterations + 1
        assert det["residual_history"][-1] == rep.linear_residual <= 1e-11
        # each iterate is recorded once
        assert det["residual_history"][-2] != det["residual_history"][-1]

    @pytest.mark.parametrize("guess", [None, 0.5])
    def test_residual_history_starts_at_the_initial_guess(self, slab_dom, guess):
        sol = sv.solve_mixed_bvp(slab_dom, h=1 / 16, tol=1e-11, initial_guess=guess)
        A, b, flat, _ = sv._assemble(sol.grid)
        r = b - A @ np.full(b.size, 0.0 if guess is None else guess)
        w = np.exp(-0.5 * sol.grid.r[flat] ** 2)
        assert sol.report.details["residual_history"][0] == pytest.approx(
            math.sqrt(np.sum(w * r * r) / np.sum(w)), rel=1e-12)

    @pytest.mark.parametrize("radius, unknowns", [(2.0, 1899), (3.0, None)])
    def test_iterations_count_every_vcycle_half_step(self, radius, unknowns, monkeypatch):
        # at most 2,000 unknowns the hierarchy is LU only and BiCGStab
        # converges in its first half-step, which scipy ends without a callback
        calls = []
        call = sv._VCycle.__call__

        def counted(self, r, level=0):
            if level == 0:
                calls.append(level)
            return call(self, r, level)

        monkeypatch.setattr(sv._VCycle, "__call__", counted)
        dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=radius)
        rep = sv.solve_mixed_bvp(dom, h=1 / 16, tol=1e-10).report
        if unknowns is not None:
            assert rep.details["unknowns"] == unknowns
        else:
            assert rep.details["unknowns"] > sv._COARSEST
        assert rep.iterations == (len(calls) + 1) // 2 >= 1
        assert len(rep.details["residual_history"]) == rep.iterations + 1
        assert rep.details["residual_history"][-1] == rep.linear_residual <= 1e-10
        assert rep.details["residual_history"][-2] != rep.details["residual_history"][-1]

    def test_singular_coarse_operator(self):
        with pytest.raises(SingularSystemError, match="coarsest"):
            sv._VCycle(csr_matrix((3, 3)), np.zeros((3, 2), dtype=int))

    def test_hierarchy_stops_when_coarsening_does_not_shrink(self):
        # isolated nodes share no parents, so a coarse level would be larger
        idx = 4 * np.arange(sv._COARSEST + 1)[:, None] + 1
        A = sps_diags(np.full(idx.shape[0], 2.0)).tocsr()
        vcycle = sv._VCycle(A, idx)
        assert vcycle.unknowns == [idx.shape[0]]
        assert np.allclose(vcycle(np.ones(idx.shape[0])), 0.5)

    def test_prolongation_reproduces_linear_functions(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            idx = np.unique(rng.integers(-9, 9, size=(60, d)), axis=0)
            P, PT, coarse = sv._prolongation(idx)
            data, indices, indptr, parents = _reference_prolongation(idx)
            assert P.indices.dtype == P.indptr.dtype == np.int32
            for got, want in ((P.data, data), (P.indices, indices), (P.indptr, indptr),
                              (coarse, parents)):
                assert np.array_equal(got, want)
            dense = P.toarray()
            assert PT.format == "csr" and np.array_equal(PT.toarray(), dense.T)
            assert np.allclose(P.sum(axis=1), 1.0)
            # parents with one row support share one summed column
            assert np.unique(dense.T, axis=0).shape[0] == P.shape[1]
            c = rng.normal(size=d)
            # a linear function sampled on the coarse lattice (spacing 2), at
            # every node whose parents all kept a column of their own (each
            # of weight 2^-(odd indices)); a summed column stands at the
            # first of its parents
            own = dense.max(axis=1) == 0.5 ** (idx % 2).sum(axis=1)
            assert np.allclose((P @ (2 * coarse @ c))[own], (idx @ c)[own])
            # summing equal columns keeps the range, so the coarse space
            # still holds every linear function
            v = np.linalg.lstsq(dense, idx @ c, rcond=None)[0]
            assert np.allclose(dense @ v, idx @ c)


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

    def test_history_compares_on_half_the_first_radius(self, slab_dom):
        # the compact is Omega within half the first exhaustion radius: on
        # 1.5 instead of 1.0 the differences read 0.0057 and 3.8e-5
        radii, h = [2.0, 3.0, 4.0], 1 / 16
        sol = sv.solve_exhaustion(slab_dom, radii, h=h, tol=1e-4, linear_tol=1e-11)
        solves = [sv.solve_mixed_bvp(slab_dom.with_radius(r), h=h, tol=1e-11) for r in radii]
        assert sol.report.exhaustion_history == [
            (r, sv._sup_difference_on_compact(prev, new, 0.5 * radii[0]))
            for r, prev, new in zip(radii[1:], solves, solves[1:])]
        assert sol.report.details["compact_radius"] == 0.5 * radii[0]

    def test_radius_count_guard(self, slab_dom):
        with pytest.raises(ParameterError):
            sv.solve_exhaustion(slab_dom, [4.0], h=1 / 16)
        with pytest.raises(ParameterError):
            sv.solve_exhaustion(slab_dom, [4.0, 3.0, 5.0], h=1 / 16)


@pytest.mark.parametrize("kwargs, message", [
    ({"h": -0.1}, "grid spacing h must be positive and finite, got -0.1"),
    ({"h": 0.0}, "grid spacing h must be positive and finite, got 0.0"),
    ({"h": math.nan}, "grid spacing h must be positive and finite, got nan"),
    ({"h": 0.25, "tol": math.nan}, "tol must be positive and finite, got nan"),
    ({"h": 0.25, "tol": -1.0}, "tol must be positive and finite, got -1.0"),
], ids=["negative-h", "zero-h", "nan-h", "nan-tol", "negative-tol"])
def test_mixed_bvp_names_a_bad_spacing_or_tolerance(kwargs, message):
    dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=2.0)
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        sv.solve_mixed_bvp(dom, **kwargs)


@pytest.mark.parametrize("radii, kwargs, message", [
    ([0.0, 3.0, 4.0], {}, "exhaustion radii must be positive and finite, got 0.0"),
    ([-1.0, 3.0, 4.0], {}, "exhaustion radii must be positive and finite, got -1.0"),
    ([math.nan, 3.0, 4.0], {}, "exhaustion radii must be positive and finite, got nan"),
    ([2.0, 3.0], {}, "need at least 3 increasing exhaustion radii, got 2"),
    ([2.0, 3.0, 4.0], {"tol": math.nan}, "tol must be positive and finite, got nan"),
    ([2.0, 3.0, 4.0], {"linear_tol": -1.0}, "linear_tol must be positive and finite, got -1.0"),
], ids=["zero-radius", "negative-radius", "nan-radius", "two-radii", "nan-tol",
        "negative-linear-tol"])
def test_exhaustion_names_a_bad_radius_or_tolerance(slab_dom, radii, kwargs, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        sv.solve_exhaustion(slab_dom, radii, h=1 / 8, **kwargs)
