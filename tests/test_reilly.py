import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shrinkerlab import domain as dm
from shrinkerlab import geometry as geo
from shrinkerlab import reilly as rl
from shrinkerlab import solver as sv
from shrinkerlab.errors import MissingGeometryError, ParameterError
from shrinkerlab.fields import ScalarField

# independent quadrature oracles for u = x1 on the unit ball of R^3
VOLUME_SIDE = 2.540629686306907
RICCI_TERM = 3.130204156281716
LAP_SQ_TERM = 0.5895744699748094
BOUNDARY_A_TERM = -5.081259372613813
BOUNDARY_MIXED = 5.081259372613813
BOUNDARY_LAP = 2.5406296863069064

U_X1 = ScalarField(lambda x: x[0], batch_evaluator=lambda P: P[:, 0])


@pytest.fixture(scope="module")
def unit_ball():
    return dm.ball_domain(1.0, ambient_dim=3)


@pytest.mark.parametrize("R", [1.0, 2.0, 5.0, 10.0])
def test_cutoff_invariants(R):
    phi = rl.CutoffFamily(R)
    assert phi.validate()
    assert phi.max_gradient() <= 2.0 / R + 1e-8
    assert phi.max_gradient() == pytest.approx(15.0 / (8.0 * R), rel=1e-6)
    assert phi.profile(0.5 * R) == 1.0
    assert phi.profile(2.5 * R) == 0.0


def test_linear_field_identity(unit_ball):
    rep = rl.reilly_residual(U_X1, None, unit_ball, mesh_h=1 / 32)
    assert rep.residual <= 1e-3
    assert rep.volume_side == pytest.approx(VOLUME_SIDE, abs=1e-4)
    assert rep.boundary_side == pytest.approx(VOLUME_SIDE, abs=1e-6)


def test_term_breakdown_against_oracles(unit_ball):
    rep = rl.reilly_residual(U_X1, None, unit_ball, mesh_h=1 / 32)
    tb = rep.term_breakdown
    assert tb["volume_hess_sq"] == pytest.approx(0.0, abs=1e-9)
    assert tb["volume_transport"] == 0.0
    assert tb["volume_ricci"] == pytest.approx(RICCI_TERM, abs=1e-3)
    assert tb["volume_lap_f_sq"] == pytest.approx(LAP_SQ_TERM, abs=1e-3)
    assert tb["boundary_second_fundamental"] == pytest.approx(BOUNDARY_A_TERM, abs=1e-3)
    assert tb["boundary_mixed"] == pytest.approx(BOUNDARY_MIXED, abs=1e-3)
    assert tb["boundary_surface_laplacian"] == pytest.approx(BOUNDARY_LAP, abs=1e-3)


def test_constant_field_everything_zero(unit_ball):
    const = ScalarField(lambda x: 0.7,
                        batch_evaluator=lambda P: np.full(P.shape[0], 0.7))
    rep = rl.reilly_residual(const, None, unit_ball, mesh_h=1 / 16)
    assert rep.residual == pytest.approx(0.0, abs=1e-12)
    assert all(abs(v) <= 1e-12 for v in rep.term_breakdown.values())


def test_cutoff_activates_transport(unit_ball):
    rep = rl.reilly_residual(U_X1, rl.CutoffFamily(0.5), unit_ball, mesh_h=1 / 32)
    assert abs(rep.term_breakdown["volume_transport"]) > 0.1
    assert rep.residual <= 1e-3


def test_mesh_refinement_order(unit_ball):
    r16 = rl.reilly_residual(U_X1, None, unit_ball, mesh_h=1 / 16).residual
    r32 = rl.reilly_residual(U_X1, None, unit_ball, mesh_h=1 / 32).residual
    assert r32 <= 0.5 * r16  # at least first order


def _residual(ball, phi, h):
    return rl.reilly_residual(U_X1, phi, ball, mesh_h=h)


def test_volume_side_does_not_depend_on_chunks_or_threads(unit_ball, monkeypatch):
    # the whole residual: by default 1/16 is one chunk of cells and each
    # boundary pass several chunks of nodes; 4,096-item chunks cut all finer
    phi = rl.CutoffFamily(0.5)
    rep = _residual(unit_ball, phi, 1 / 16)
    monkeypatch.setattr(rl, "_CHUNK", 4096)
    chunked = _residual(unit_ball, phi, 1 / 16)
    assert chunked.volume_side == pytest.approx(rep.volume_side, rel=1e-12)
    assert chunked.boundary_side == pytest.approx(rep.boundary_side, rel=1e-12)
    for key, value in rep.term_breakdown.items():
        assert chunked.term_breakdown[key] == pytest.approx(value, rel=1e-12, abs=1e-15)
    # differences of nearly equal sums, so relative to the sides
    scale = abs(rep.boundary_side)
    assert chunked.residual == pytest.approx(rep.residual, abs=1e-12 * scale)
    assert chunked.mixed_term_uncertainty == pytest.approx(
        rep.mixed_term_uncertainty, abs=1e-12 * scale)
    assert chunked.details == rep.details
    assert _residual(unit_ball, phi, 1 / 16) == chunked
    # more workers than cores, switching threads as often as possible
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            monkeypatch.setattr("shrinkerlab.fields._WORKERS", workers)
            assert _residual(unit_ball, phi, 1 / 16) == chunked
    finally:
        sys.setswitchinterval(interval)


def test_cutoff_residual_peaks_below_36_mb(unit_ball, monkeypatch):
    # two workers hold two chunks at a time; a whole 147,456-node boundary
    # pass needs about 50 MB of temporaries
    monkeypatch.setattr("shrinkerlab.fields._WORKERS", 2)
    tracemalloc.start()
    try:
        _residual(unit_ball, rl.CutoffFamily(0.5), 1 / 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2 ** 20


def test_umbilic_check_reaches_the_last_boundary_chunk(unit_ball, monkeypatch):
    # the nodes nearest the north pole come last; bend the sphere there only
    def curvatures(self, x, exterior_sign):
        kappas = np.full((x.shape[0], 2), -exterior_sign / self.radius)
        kappas[x[:, 2] == x[:, 2].max(initial=0.0), 1] *= 2.0
        return kappas

    monkeypatch.setattr(geo.Sphere, "principal_curvatures", curvatures)
    with pytest.raises(MissingGeometryError, match="non-umbilic"):
        _residual(unit_ball, None, 1 / 8)


def test_volume_side_keeps_every_cell_with_a_positive_fraction(unit_ball):
    # depth-first dropping must keep exactly the cells the full box would
    h = 1 / 16
    axes = [(np.arange(32) + 0.5) * h - 1.0] * 3
    P = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    ob = unit_ball.sigma1
    frac = rl._box_fraction(ob.depth(P), -ob.exterior_normal(P), h)
    counters = _residual(unit_ball, None, h).details
    assert counters["volume_cells"] == np.count_nonzero(frac > 0.0)
    assert counters["cut_cells"] == np.count_nonzero((frac > 0.0) & (frac < 1.0))
    assert counters["volume_fd_step"] == 2e-5
    assert counters["stencil_evaluations_per_point"] == 13


def test_report_carries_volume_counters(unit_ball):
    rep = _residual(unit_ball, None, 1 / 8)
    assert {"volume_cells", "cut_cells", "volume_fd_step",
            "stencil_evaluations_per_point", "boundary_nodes"} <= set(rep.details)
    assert 0 < rep.details["cut_cells"] < rep.details["volume_cells"] <= 16 ** 3
    # the unit sphere on 384 x 384 Gauss-Legendre nodes
    assert rep.details["boundary_nodes"] == 384 ** 2


def test_f_minimal_pieces_have_zero_weighted_curvature():
    # sphere of radius sqrt(2) in R^3 and a plane through the origin
    ball = dm.ball_domain(np.sqrt(2.0), ambient_dim=3)
    pts, _ = ball.sigma1.quad_nodes(3.0, per_dim=16)
    worst = max(abs(ball.sigma1.weighted_mean_curvature(p)) for p in pts)
    assert worst <= 1e-8
    slab = dm.slab_domain(0.0, 1.0, ambient_dim=2, radius=3.0)
    pts, _ = slab.sigma1.quad_nodes(3.0, per_dim=16)
    worst = max(abs(slab.sigma1.weighted_mean_curvature(p)) for p in pts)
    assert worst <= 1e-8


@pytest.fixture(scope="module")
def off_origin():
    dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=8.0)
    sol = sv.solve_mixed_bvp(dom, h=1 / 32, tol=1e-11)
    return dom, sol


class TestChain:
    def test_failure_with_attribution(self, off_origin):
        dom, sol = off_origin
        rep = rl.energy_growth_chain(sol, dom, [1.0, 2.0, 4.0])
        holds = {r: h for r, _, _, h, _ in rep.per_R}
        assert holds[1.0] and holds[2.0] and not holds[4.0]
        assert not rep.consistent
        assert all(abs(v) > 1e-6 for v in rep.boundary_terms.values())
        assert not rep.f_minimal["sigma1"] and not rep.f_minimal["sigma2"]

    def test_truncation_flag(self, off_origin):
        dom, sol = off_origin
        rep = rl.energy_growth_chain(sol, dom, [6.0])
        assert rep.per_R[0][4]  # 2R = 12 > solved radius 8

    def test_half_minimal_slab(self):
        dom = dm.slab_domain(0.0, 1.0, ambient_dim=2, radius=8.0)
        sol = sv.solve_mixed_bvp(dom, h=1 / 32, tol=1e-11)
        rep = rl.energy_growth_chain(sol, dom, [1.0, 2.0])
        assert abs(rep.boundary_terms["sigma1"]) < 1e-6
        assert rep.boundary_terms["sigma2"] > 1.0
        assert rep.f_minimal["sigma1"] and not rep.f_minimal["sigma2"]

    def test_constant_solution_trivially_consistent(self, annulus_dom):
        sol = sv.solve_mixed_bvp(annulus_dom, h=1 / 16, tol=1e-11,
                                 boundary_values=(1.0, 1.0))
        rep = rl.energy_growth_chain(sol, annulus_dom, [1.0, 1.2])
        assert rep.consistent
        assert all(l == 0.0 for _, l, _, _, _ in rep.per_R)


def test_box_fraction_basics():
    # half cell, full cell, empty cell, and an oblique case checked by
    # dense subsampling
    f = rl._box_fraction(np.array([0.0, 1.0, -1.0]),
                         np.array([[1.0, 0], [1, 0], [1, 0]]), 1.0)
    np.testing.assert_allclose(f, [0.5, 1.0, 0.0])
    normal = np.array([[0.6, 0.8]])
    depth = np.array([0.21])
    f = rl._box_fraction(depth, normal, 1.0)
    xs = np.linspace(-0.5, 0.5, 201)
    X, Y = np.meshgrid(xs, xs)
    exact = np.mean(depth[0] + 0.6 * X + 0.8 * Y >= 0)
    assert f[0] == pytest.approx(exact, abs=2e-3)


# normal components: zero, tiny (near axis-parallel interfaces) or general
_COMPONENT = st.one_of(
    st.just(0.0), st.floats(-1.0, 1.0),
    st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-13.0, -6.0),
              st.sampled_from([1.0, -1.0])))


@settings(max_examples=300, deadline=None)
@given(comps=st.lists(_COMPONENT, min_size=2, max_size=3), scale=st.floats(0.2, 1.0),
       h=st.floats(0.01, 1.0), shift=st.floats(-1.0, 1.0))
@example(comps=[0.7, 3e-12, 5e-12], scale=1.0, h=1.0, shift=-0.3)
def test_box_fraction_matches_midpoint_count(comps, scale, h, shift):
    # a plane crosses at most dim * k^(dim-1) of the k^dim sub-cells, so the
    # midpoint count is within dim / k of the exact fraction
    dim = len(comps)
    norm = float(np.linalg.norm(comps))
    assume(norm > 1e-3)
    normal = np.array(comps) / norm * scale
    depth = shift * h
    k = 40 if dim == 2 else 16
    sub = ((np.arange(k) + 0.5) / k - 0.5) * h
    Y = np.stack(np.meshgrid(*[sub] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    brute = float(np.mean(depth + Y @ normal >= 0.0))
    frac = rl._box_fraction(np.array([depth]), normal[None, :], h)[0]
    assert abs(frac - brute) <= dim / k


def test_chain_needs_grid(annulus_dom, radial_profile):
    with pytest.raises(ParameterError):
        rl.energy_growth_chain(radial_profile, annulus_dom, [1.0])
