import ctypes
import math
import platform
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import shrinkerlab
from shrinkerlab import domain as dm
from shrinkerlab import energy as en
from shrinkerlab import fields as fl
from shrinkerlab import geometry as geo
from shrinkerlab import reilly as rl
from shrinkerlab import solver as sv
from shrinkerlab.errors import ContractViolation, MissingGeometryError, ParameterError
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


def _cutoff_slope(phi, r):
    """phi'(r) of the quintic transition: -30 s^2 (1 - s)^2 / R for
    s = (r - R) / R in (0, 1), and 0 elsewhere."""
    s = (r - phi.R) / phi.R
    return np.where((s > 0.0) & (s < 1.0), -30.0 * s ** 2 * (1.0 - s) ** 2 / phi.R, 0.0)


@pytest.mark.parametrize("R", [1.0, 2.0, 5.0, 10.0])
def test_cutoff_invariants(R):
    phi = rl.CutoffFamily(R)
    r = np.linspace(0.0, 2.5 * R, 4001)
    vals = phi.profile(r)
    assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
    assert np.all(vals[r <= R] == 1.0)
    assert np.all(vals[r >= 2.0 * R] == 0.0)
    band = np.linspace(R, 2.0 * R, 20001)
    slope, h = _cutoff_slope(phi, band), 1e-6 * R
    np.testing.assert_allclose((phi.profile(band + h) - phi.profile(band - h)) / (2.0 * h),
                               slope, rtol=0, atol=1e-6 / R)
    max_gradient = float(np.max(np.abs(slope)))
    assert max_gradient <= 2.0 / R + 1e-8
    assert max_gradient == pytest.approx(15.0 / (8.0 * R), rel=1e-6)
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
    # the whole residual: by default 1/16 is one volume item; items of 512
    # candidate runs (an item starts at every 512th) and runs classified 512
    # at a time split it (each boundary pass is always one item per piece)
    phi = rl.CutoffFamily(0.5)
    rep = _residual(unit_ball, phi, 1 / 16)
    monkeypatch.setattr(en, "_CLASSIFY_RUNS", 512)
    monkeypatch.setattr(en, "_ITEM_CELLS", 4096)
    chunked = _residual(unit_ball, phi, 1 / 16)
    # the volume side and the residual are differences of nearly equal sums
    # (phi vanishes on the sphere, so the boundary side is ~1e-32): regrouping
    # the cells may move them by rounding of the terms they cancel, a few ulp
    # (one, 2.2e-16, here), and no more
    rounding = 64 * np.finfo(float).eps * sum(map(abs, rep.term_breakdown.values()))
    assert chunked.volume_side == pytest.approx(rep.volume_side, rel=1e-12, abs=rounding)
    assert chunked.residual == pytest.approx(rep.residual, abs=rounding)
    assert chunked.boundary_side == pytest.approx(rep.boundary_side, rel=1e-12)
    for key, value in rep.term_breakdown.items():
        assert chunked.term_breakdown[key] == pytest.approx(value, rel=1e-12, abs=1e-15)
    # relative to the boundary side for the mixed term's change
    scale = abs(rep.boundary_side)
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


def test_cutoff_residual_peaks_below_16_mb(unit_ball, monkeypatch):
    # two workers hold two items at a time: a cell item of at most 30,720
    # cells (energy._ITEM_CELLS) or one piece's boundary pass (at most 16,384
    # nodes), and the cached nodes of both boundary passes take 0.8 MB
    monkeypatch.setattr("shrinkerlab.fields._WORKERS", 2)
    # the cached boundary nodes are built inside the measured call
    rl._piece_quadrature.cache_clear()
    tracemalloc.start()
    try:
        _residual(unit_ball, rl.CutoffFamily(0.5), 1 / 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_warm_residual_faults_in_no_fresh_pages(unit_ball, monkeypatch):
    # with glibc's thresholds left dynamic, every work item's last free
    # trimmed its worker's arena and the next item faulted the pages back in:
    # 1.4k-2.8k minor faults a call, against about 10 with them at the ceiling
    import resource
    monkeypatch.setattr("shrinkerlab.fields._WORKERS", 2)
    _residual(unit_ball, rl.CutoffFamily(0.5), 1 / 16)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _residual(unit_ball, rl.CutoffFamily(0.5), 1 / 16)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert min(faults) < 500


@pytest.mark.parametrize("libc, error", [
    (("", ""), None), (("musl", "1.2"), None),
    (("glibc", "2.36"), OSError), (("glibc", "2.36"), AttributeError)])
def test_malloc_thresholds_are_set_only_on_glibc(monkeypatch, libc, error):
    calls = []

    def recording_libc(name):
        return SimpleNamespace(mallopt=lambda *args: calls.append(args) or 1)

    def failing_libc(name):
        raise error("no usable mallopt")

    monkeypatch.setattr(platform, "libc_ver", lambda: libc)
    monkeypatch.setattr(ctypes, "CDLL", recording_libc if error is None else failing_libc)
    shrinkerlab._start_malloc_thresholds_at_ceiling()      # silent in every case
    assert calls == []
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(ctypes, "CDLL", recording_libc)
    shrinkerlab._start_malloc_thresholds_at_ceiling()
    assert calls == [(-3, 32 * 2 ** 20), (-1, 64 * 2 ** 20)]


def test_boundary_items_are_one_per_piece_and_pass(unit_ball):
    # one item of the 128 x 128 pass (16,384 nodes) and one of the 96 x 96
    # pass (9,216 nodes), each holding the piece's cached nodes whole
    sphere = unit_ball.sigma1.shape
    for per_dim in (rl._BOUNDARY_NODES_PER_DIM, rl._CHECK_NODES_PER_DIM):
        (item,), total = rl._boundary_items(U_X1, None, unit_ball, per_dim)
        nodes, weights, reach = rl._piece_quadrature(sphere, unit_ball.exhaustion_radius,
                                                     per_dim)
        assert total == nodes.shape[0] == per_dim ** 2
        # the item is partial(_boundary_sums, u, phi, ob, nodes, weights, step)
        assert item.args[3] is nodes and item.args[4] is weights
        assert item.args[5] == 1e-5 * (1.0 + reach)
    assert _residual(unit_ball, None, 1 / 16).details == {
        "ricci_mode": "gaussian identity", "volume_cells": 19544, "cut_cells": 4760,
        "volume_fd_step": 2e-05, "stencil_evaluations_per_point": 13,
        "boundary_nodes": rl._BOUNDARY_NODES_PER_DIM ** 2,
        "field_evaluations": 13 * (19544 + rl._BOUNDARY_NODES_PER_DIM ** 2
                                   + rl._CHECK_NODES_PER_DIM ** 2)}


def test_a_piece_outside_the_exhaustion_ball_gets_no_boundary_item():
    # the plane z = -3 lies outside B_2, so only the unit sphere has nodes
    dom = dm.domain_from_json({
        "kind": "generic", "ambient_dim": 3, "radius": 2.0,
        "sigma1": {"type": "plane", "normal": [0, 0, 1], "offset": -3.0, "side": 1},
        "sigma2": {"type": "sphere", "radius": 1.0, "side": -1}})
    items, total = rl._boundary_items(U_X1, None, dom, rl._BOUNDARY_NODES_PER_DIM)
    assert len(items) == 1 and items[0].args[2] is dom.sigma2
    assert total == rl._BOUNDARY_NODES_PER_DIM ** 2
    details = rl.reilly_residual(U_X1, None, dom, mesh_h=1 / 8).details
    assert details["boundary_nodes"] == rl._BOUNDARY_NODES_PER_DIM ** 2
    assert details["field_evaluations"] == 13 * (details["volume_cells"]
                                                 + rl._BOUNDARY_NODES_PER_DIM ** 2
                                                 + rl._CHECK_NODES_PER_DIM ** 2)


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
    frac = en._box_fraction(ob.depth(P), -ob.exterior_normal(P), h)
    counters = _residual(unit_ball, None, h).details
    assert counters["volume_cells"] == np.count_nonzero(frac > 0.0)
    assert counters["cut_cells"] == np.count_nonzero((frac > 0.0) & (frac < 1.0))
    assert counters["volume_fd_step"] == 2e-5
    assert counters["stencil_evaluations_per_point"] == 13


def test_report_carries_volume_counters(unit_ball):
    rep = _residual(unit_ball, None, 1 / 8)
    assert {"volume_cells", "cut_cells", "volume_fd_step", "stencil_evaluations_per_point",
            "boundary_nodes", "field_evaluations"} <= set(rep.details)
    assert 0 < rep.details["cut_cells"] < rep.details["volume_cells"] <= 16 ** 3
    # the unit sphere on 128 x 128 Gauss-Legendre nodes
    assert rep.details["boundary_nodes"] == rl._BOUNDARY_NODES_PER_DIM ** 2


def test_field_evaluations_count_every_point_the_field_is_read_at(unit_ball):
    rows = []
    u = ScalarField(lambda x: x[0], batch_evaluator=lambda P: rows.append(len(P)) or P[:, 0])
    details = rl.reilly_residual(u, None, unit_ball, mesh_h=1 / 16).details
    # the 13-point stencil at every kept cell and at the nodes of both passes
    assert details["field_evaluations"] == 13 * (details["volume_cells"]
                                                 + rl._BOUNDARY_NODES_PER_DIM ** 2
                                                 + rl._CHECK_NODES_PER_DIM ** 2)
    assert details["field_evaluations"] == sum(rows)


# u = <x, (0.36, 0.48, 0.8)>, a unit direction off every axis
U_OBLIQUE = ScalarField(lambda x: float(x @ [0.36, 0.48, 0.8]),
                        batch_evaluator=lambda P: P @ np.array([0.36, 0.48, 0.8]))


# u = x1^2, the CLI's x1sq field
U_X1SQ = ScalarField(lambda x: x[0] ** 2, batch_evaluator=lambda P: P[:, 0] ** 2)
_UNIT_BALL = dm.ball_domain(1.0, ambient_dim=3)
_ANNULUS_2D = dm.annulus_domain(0.5, 2.0, ambient_dim=2)
_ANNULUS_3D = dm.annulus_domain(0.5, 2.0, ambient_dim=3)


def _boundary_terms(u, phi, domain, per_dim, step):
    parts = []
    for _, ob in domain.pieces():
        nodes, weights, _ = rl._piece_quadrature(ob.shape, domain.exhaustion_radius, per_dim)
        parts.append(rl._boundary_sums(u, phi, ob, nodes, weights, step))
    return rl._column_sums(parts, 3)


@pytest.mark.parametrize("u, phi, domain", [
    (U_X1, None, _UNIT_BALL), (U_X1, rl.CutoffFamily(0.5), _UNIT_BALL),
    (U_X1, rl.CutoffFamily(0.6), _UNIT_BALL), (U_OBLIQUE, None, _UNIT_BALL),
    (U_OBLIQUE, rl.CutoffFamily(0.5), _UNIT_BALL), (U_OBLIQUE, rl.CutoffFamily(0.6), _UNIT_BALL),
    (U_X1SQ, None, _ANNULUS_2D), (U_X1SQ, None, _ANNULUS_3D),
], ids=["x1-ball", "x1-ball-cutoff0.5", "x1-ball-cutoff0.6", "oblique-ball",
        "oblique-ball-cutoff0.5", "oblique-ball-cutoff0.6", "x1sq-annulus2d", "x1sq-annulus3d"])
def test_boundary_quadrature_is_converged(u, phi, domain):
    # central differences are exact on linear and quadratic fields, so at a
    # step of 1e-2 (rounding about eps / step^2 = 2e-12 a node) the terms
    # differ only by the quadrature; at the residual's 2e-5 step the
    # stencil's rounding alone moves them by up to 1e-8 between node sets.
    # CutoffFamily(0.5) vanishes on the unit sphere but for rounding, so its
    # terms there are about 1e-32.
    passes = [_boundary_terms(u, phi, domain, per_dim, 1e-2)
              for per_dim in (rl._BOUNDARY_NODES_PER_DIM, rl._CHECK_NODES_PER_DIM)]
    for terms, per_dim in zip(passes, (384, 256)):
        assert terms == pytest.approx(_boundary_terms(u, phi, domain, per_dim, 1e-2),
                                      rel=1e-11, abs=1e-30)
    if u is not U_X1SQ:
        # the mixed term of the two passes, as mixed_term_uncertainty
        assert abs(passes[0][1] - passes[1][1]) <= 1e-12


def test_mixed_term_uncertainty_of_x1_is_below_1e_12(unit_ball):
    # at the residual's own step the stencil's rounding stays out of the
    # mixed term of u = x1 (1.5e-13 here, 1.4e-11 between 384 and 256 nodes
    # per direction), but not out of U_OBLIQUE's (about 6e-9)
    assert _residual(unit_ball, None, 1 / 16).mixed_term_uncertainty <= 1e-12


@pytest.mark.parametrize("phi", [None, rl.CutoffFamily(0.53)], ids=["phi1", "cutoff"])
def test_cached_boundary_quadrature_gives_the_cold_report(unit_ball, phi):
    rl._piece_quadrature.cache_clear()
    cold = rl.reilly_residual(U_OBLIQUE, phi, unit_ball, mesh_h=1 / 16)
    # one sphere, built once for each of the two passes
    assert rl._piece_quadrature.cache_info()[:2] == (0, 2)
    warm = rl.reilly_residual(U_OBLIQUE, phi, unit_ball, mesh_h=1 / 16)
    assert rl._piece_quadrature.cache_info()[:2] == (2, 2)
    # repr shows every float to the last bit, and the sign of a zero
    assert repr(warm) == repr(cold)


def test_boundary_quadrature_cache_is_keyed_by_shape_radius_and_nodes():
    rl._piece_quadrature.cache_clear()
    plane = geo.Hyperplane((0.0, 0.0, 1.0), 0.25)
    first = rl._piece_quadrature(plane, 2.0, 16)
    # an equal shape is the same key
    assert rl._piece_quadrature(geo.Hyperplane((0.0, 0.0, 1.0), 0.25), 2.0, 16) is first
    others = [(plane, 2.0, 12), (plane, 1.5, 16),
              (geo.Hyperplane((0.0, 0.0, 1.0), 0.5), 2.0, 16), (geo.Sphere(2, 1.0), 2.0, 16)]
    for shape, radius, per_dim in others:
        nodes, weights, reach = rl._piece_quadrature(shape, radius, per_dim)
        expected = shape.quad_nodes(radius, per_dim)
        np.testing.assert_array_equal(nodes, expected[0])
        np.testing.assert_array_equal(weights, expected[1])
        assert reach == np.max(np.linalg.norm(nodes, axis=1))
    assert rl._piece_quadrature.cache_info()[:2] == (1, 5)


def test_constant_cutoff_transport_is_positive_zero(unit_ball):
    # phi == 1 skips the transport contraction; the term is +0.0, not -0.0
    transport = rl.reilly_residual(U_OBLIQUE, None, unit_ball,
                                   mesh_h=1 / 16).term_breakdown["volume_transport"]
    assert transport == 0.0 and math.copysign(1.0, transport) == 1.0


def test_f_minimal_pieces_have_zero_weighted_curvature():
    # sphere of radius sqrt(2) in R^3 and a plane through the origin
    ball = dm.ball_domain(np.sqrt(2.0), ambient_dim=3)
    pts, _ = ball.sigma1.shape.quad_nodes(3.0, per_dim=16)
    worst = max(abs(ball.sigma1.weighted_mean_curvature(p)) for p in pts)
    assert worst <= 1e-8
    slab = dm.slab_domain(0.0, 1.0, ambient_dim=2, radius=3.0)
    pts, _ = slab.sigma1.shape.quad_nodes(3.0, per_dim=16)
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

    def test_constant_solution_trivially_consistent(self, annulus_dom, constant_solution):
        sol = constant_solution(annulus_dom, 1.0)
        rep = rl.energy_growth_chain(sol, annulus_dom, [1.0, 1.2])
        assert rep.consistent
        assert all(l == 0.0 for _, l, _, _, _ in rep.per_R)

    @pytest.mark.parametrize("a,b,label", [(0.5, 1.0, "sigma2"), (1.0, 2.0, "sigma1")])
    def test_unit_circle_is_f_minimal(self, a, b, label):
        # the shrinker circle r = 1 of R^2, read at its exact quadrature nodes
        dom = dm.annulus_domain(a, b, ambient_dim=2)
        rep = rl.energy_growth_chain(sv.solve_mixed_bvp(dom, h=1 / 32, tol=1e-11), dom, [1.0])
        assert rep.f_minimal[label]
        assert abs(rep.boundary_terms[label]) < 1e-12
        other = "sigma1" if label == "sigma2" else "sigma2"
        assert not rep.f_minimal[other] and abs(rep.boundary_terms[other]) > 1.0


class TestChain3D:
    """The chain on solved fields in R^3, where the interface has no
    marching-squares reconstruction."""

    @staticmethod
    def _chain(dom):
        return rl.energy_growth_chain(sv.solve_mixed_bvp(dom, h=1 / 8, tol=1e-11), dom, [1.0])

    def test_half_minimal_slab(self):
        rep = self._chain(dm.slab_domain(0.0, 1.0, ambient_dim=3, radius=3.0))
        assert rep.boundary_terms["sigma1"] == 0.0 and rep.f_minimal["sigma1"]
        assert abs(rep.boundary_terms["sigma2"]) > 1.0 and not rep.f_minimal["sigma2"]

    def test_symmetric_slab_terms_agree(self):
        rep = self._chain(dm.slab_domain(-1.0, 1.0, ambient_dim=3, radius=3.0))
        s1, s2 = rep.boundary_terms["sigma1"], rep.boundary_terms["sigma2"]
        assert abs(s1) > 1.0 and not any(rep.f_minimal.values())
        assert s2 == pytest.approx(s1, rel=1e-9)

    def test_shrinker_sphere_is_f_minimal(self):
        # sigma2 is the self-shrinker S^2 of radius sqrt(2)
        rep = self._chain(dm.annulus_domain(0.8, np.sqrt(2.0), ambient_dim=3))
        assert rep.f_minimal["sigma2"] and abs(rep.boundary_terms["sigma2"]) < 1e-12
        assert not rep.f_minimal["sigma1"]


@pytest.mark.parametrize("phi", [None, rl.CutoffFamily(0.5)], ids=["phi1", "cutoff"])
def test_solved_field_with_nan_reads_raises(phi):
    # a solved grid field is a usage error: it is NaN beyond the pieces, where
    # the stencils reach, and its multilinear Hessian does not converge
    dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=4.0)
    sol = sv.solve_mixed_bvp(dom, h=1 / 16, tol=1e-11)
    with pytest.raises(ParameterError, match="analytic field, not a GridField"):
        rl.reilly_residual(sol.field, phi, dom, mesh_h=1 / 16)


@pytest.mark.parametrize("phi", [None, rl.CutoffFamily(0.5)], ids=["phi1", "cutoff"])
def test_field_with_nan_reads_fails_the_volume_side(phi):
    # an analytic field that is NaN in the outer cells of the slab, within
    # the exhaustion radius 4
    dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=4.0)

    def inside(P):
        return np.where(np.sum(P ** 2, axis=1) <= 3.5 ** 2, P[:, 0], np.nan)

    u = ScalarField(lambda x: float(inside(x[None, :])[0]), batch_evaluator=inside)
    with pytest.raises(ContractViolation, match="volume side is not finite: its hess_sq term"):
        rl.reilly_residual(u, phi, dom, mesh_h=1 / 16)


def test_box_fraction_basics():
    # half cell, full cell, empty cell, and an oblique case checked by
    # dense subsampling
    f = en._box_fraction(np.array([0.0, 1.0, -1.0]),
                         np.array([[1.0, 0], [1, 0], [1, 0]]), 1.0)
    np.testing.assert_allclose(f, [0.5, 1.0, 0.0])
    normal = np.array([[0.6, 0.8]])
    depth = np.array([0.21])
    f = en._box_fraction(depth, normal, 1.0)
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
    frac = en._box_fraction(np.array([depth]), normal[None, :], h)[0]
    assert abs(frac - brute) <= dim / k


def _exact_box_fraction(depth, normal, h):
    """The inclusion-exclusion fraction of `en._box_fraction` in exact
    rationals, every component kept (each must be nonzero)."""
    a = [Fraction(abs(c)) for c in normal]
    h = Fraction(h)
    t = Fraction(depth) + h / 2 * sum(a)
    dim = len(a)
    vol = sum((-1) ** size * max(t - h * sum(a[i] for i in s), Fraction(0)) ** dim
              for size in range(dim + 1) for s in combinations(range(dim), size))
    return vol / (math.factorial(dim) * math.prod(a) * h ** dim)


@pytest.mark.parametrize("small", [9.5e-6, 1.2e-5])
def test_box_fraction_keeps_a_component_above_its_threshold(small):
    # components above 1e-5 times the largest (8e-6 here) are kept; dropping
    # one moves the fraction by about its size, 6e-6 to 7.5e-6 here
    normal = np.array([0.8, -math.sqrt(1.0 - 0.64 - small * small), small])
    h = 1 / 64
    for depth in (-0.3 * h, 0.0, 0.2 * h):
        frac = en._box_fraction(np.array([depth]), normal[None, :], h)[0]
        assert abs(frac - float(_exact_box_fraction(depth, normal, h))) <= 1e-10


def test_chain_needs_grid(annulus_dom, radial_profile):
    with pytest.raises(ParameterError):
        rl.energy_growth_chain(radial_profile, annulus_dom, [1.0])


@pytest.mark.parametrize("mesh_h", [0.0, -0.1, math.nan])
def test_mesh_step_must_be_positive_and_finite(mesh_h):
    # at mesh_h <= 0 the volume side read 0.0 from 0 cells, with no error
    u = ScalarField(lambda x: x[0], batch_evaluator=lambda P: P[:, 0])
    with pytest.raises(ParameterError, match=f"mesh_h must be positive and finite, got {mesh_h}"):
        rl.reilly_residual(u, None, dm.ball_domain(1.0, ambient_dim=3), mesh_h=mesh_h)


@pytest.mark.parametrize("R", [math.nan, math.inf, 0.0, -1.0])
def test_cutoff_radius_must_be_positive_and_finite(R):
    with pytest.raises(ParameterError, match=f"cutoff radius must be positive and finite, got {R}"):
        rl.CutoffFamily(R)


@pytest.mark.parametrize("radii, message", [
    ([0.0, 1.0], "energy chain radii must be positive and finite, got 0.0"),
    ([-1.0, 1.0], "energy chain radii must be positive and finite, got -1.0"),
    ([2.0, 1.0], "energy chain radii must be strictly increasing, got [2.0, 1.0]"),
], ids=["zero", "negative", "decreasing"])
def test_chain_radii_are_checked(annulus_dom, constant_solution, radii, message):
    # R = 0 divided by zero, and R = -1 was accepted
    with pytest.raises(ParameterError, match=re.escape(message)):
        rl.energy_growth_chain(constant_solution(annulus_dom, 0.0), annulus_dom, radii)


# --------------------------------------------------------------------------
# the lean kernels against whole-row and row-major references

# box cells per chunk of the whole-box reference scans
_SCAN = 32_768

_PIECES = {
    "ball": (dm.ball_domain(1.0, ambient_dim=3), 1 / 32),
    # the top plane cuts the last layer of cells
    "slab3d": (dm.slab_domain(-0.5, 0.53, ambient_dim=3, radius=1.5), 1 / 16),
    "annulus": (dm.annulus_domain(0.5, 1.5, ambient_dim=3), 1 / 16),
}


@pytest.mark.parametrize("name", sorted(_PIECES))
def test_band_fractions_equal_the_whole_row_product(name):
    # cells off the cut band have fraction exactly 0 or 1, so computing only
    # the band must give the whole-row product bit for bit on every chunk
    dom, h = _PIECES[name]
    lo, hi = dom.grid_box(dom.exhaustion_radius)
    counts, cells = en.box_cells(lo, hi, h)
    pieces = [ob for _, ob in dom.pieces()]
    interior = cut = 0
    for start in range(0, cells, _SCAN):
        pts = en.cell_centres(lo, counts, h, np.arange(start, min(start + _SCAN, cells)))
        whole = np.ones(pts.shape[0])
        for ob in pieces:
            whole = whole * en._box_fraction(ob.depth(pts), -ob.exterior_normal(pts), h)
        kept, band = en.kept_fractions(pieces, pts, h)
        np.testing.assert_array_equal(kept, pts[whole > 0.0])
        np.testing.assert_array_equal(band.view(np.int64), whole[whole > 0.0].view(np.int64))
        interior += np.count_nonzero(whole == 1.0)
        cut += np.count_nonzero((whole > 0.0) & (whole < 1.0))
    assert interior > 0 and cut > 0


def _every_run_a_candidate(pieces, lo, counts, h, run):
    """A box scan: no run is skipped, so the keep rule decides every
    cell."""
    return np.ones(run.size, dtype=bool)


def _box_scan_counts(dom, h):
    """Kept and cut cells of `energy.kept_fractions` over every cell of the
    box."""
    lo, hi = dom.grid_box(dom.exhaustion_radius)
    counts, cells = en.box_cells(lo, hi, h)
    pieces = [ob for _, ob in dom.pieces()]
    kept = cut = 0
    for start in range(0, cells, _SCAN):
        _, frac = en.kept_fractions(
            pieces, en.cell_centres(lo, counts, h, np.arange(start, min(start + _SCAN, cells))), h)
        kept += frac.size
        cut += np.count_nonzero(frac < 1.0)
    return kept, cut


def _centre_rule_scan(fld, dom, h):
    """`energy.energy_of_field`'s centre rule over every cell of the box, as
    a whole-box scan: the energy and the cells it keeps."""
    radius = min(dom.exhaustion_radius, 8.0)
    lo, hi = dom.grid_box(radius)
    counts, cells = en.box_cells(lo, hi, h)
    total, kept = 0.0, 0
    for start in range(0, cells, _SCAN):
        pts = en.cell_centres(lo, counts, h, np.arange(start, min(start + _SCAN, cells)))
        inside = np.linalg.norm(pts, axis=1) <= radius
        for _, ob in dom.pieces():
            inside &= ob.depth(pts) > 0
        pts = pts[inside]
        grad = fl.gradient(fld, pts, h=0.5 * h)
        total += float(np.sum(np.sum(grad ** 2, axis=1) * np.exp(-0.5 * np.sum(pts ** 2, axis=1))))
        kept += pts.shape[0]
    return 0.5 * total * h ** dom.ambient_dim, kept


def _run_domain(shape, dim, size, shift):
    if shape == "ball":
        return dm.ball_domain(0.5 + size, ambient_dim=dim)
    if shape == "annulus":
        return dm.annulus_domain(0.3 + 0.5 * shift, 0.8 + shift + size, ambient_dim=dim)
    return dm.slab_domain(-shift, 0.3 + size, ambient_dim=dim, radius=1.5)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(shape=st.sampled_from(["ball", "annulus", "slab"]), dim=st.sampled_from([2, 3]),
       size=st.floats(0.0, 1.0), shift=st.floats(0.0, 1.0), per_unit=st.integers(3, 13),
       cap=st.integers(en._RUN, 3000), cutoff=st.sampled_from([None, 0.4, 0.7]))
def test_run_classification_keeps_the_box_scan_cells(shape, dim, size, shift, per_unit,
                                                     cap, cutoff):
    # skipping the runs whose middle lies deep outside gives the cells and
    # fractions of a scan over every box cell, in items of at most `cap`
    # candidate cells, under both keep rules of the stream: the exact
    # fractions of the Reilly volume side and the centre rule of
    # `energy_of_field`; only the sums' grouping differs
    dom = _run_domain(shape, dim, size, shift)
    h = 1.0 / (per_unit * (3 if dim == 2 else 1))
    rng = np.random.default_rng(dim)
    b, A = rng.standard_normal(dim), rng.standard_normal((dim, dim))
    u = ScalarField(None, batch_evaluator=lambda P: P @ b + 0.5 * np.einsum(
        "ki,ij,kj->k", P, A + A.T, P) + P[:, 0] ** 3)
    phi = None if cutoff is None else rl.CutoffFamily(cutoff)
    rows = []
    counted = ScalarField(None, batch_evaluator=lambda P: rows.append(len(P)) or u.batch(P))

    def volume():
        items, _ = rl._volume_items(u, phi, dom, h)
        return items, rl._column_sums([item() for item in items], 6)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(en, "_ITEM_CELLS", cap)
        items, (*sums, kept, cut) = volume()
        # each item is partial(item_sums, cells), cells() its candidate centres
        assert all(item.args[0]().shape[0] <= cap for item in items)
        energy = en.energy_of_field(counted, dom, resolution=h)
        mp.setattr(en, "_candidate_runs", _every_run_a_candidate)
        _, (*scan, scan_kept, scan_cut) = volume()
    # the centre rule: fields.gradient reads 2 dim points per kept centre
    scan_energy, centre_kept = _centre_rule_scan(u, dom, h)
    assert sum(rows) == 2 * dim * centre_kept
    assert energy == pytest.approx(scan_energy, rel=1e-12, abs=1e-300)
    assert (kept, cut) == (scan_kept, scan_cut) == _box_scan_counts(dom, h)
    assert sums == pytest.approx(scan, rel=1e-12, abs=1e-300)
    side, scan_side = (s[0] - s[1] + s[2] + s[3] for s in (sums, scan))
    assert side == pytest.approx(scan_side, rel=1e-12, abs=1e-12 * sum(map(abs, scan)))


def _row_major(grad, hess):
    return grad.T, np.moveaxis(hess, -1, 0)


def _einsum_volume(u, phi, dom, h):
    """Row-major einsum reference of the volume sums, and the sums of their
    absolute row terms."""
    lo, hi = dom.grid_box(dom.exhaustion_radius)
    counts, cells = en.box_cells(lo, hi, h)
    step = 1e-5 * (1.0 + float(np.max(np.abs([lo, hi]))))
    sums, scale = np.zeros(4), np.zeros(4)
    for start in range(0, cells, _SCAN):
        pts = en.cell_centres(lo, counts, h, np.arange(start, min(start + _SCAN, cells)))
        frac = np.ones(pts.shape[0])
        for _, ob in dom.pieces():
            frac = frac * en._box_fraction(ob.depth(pts), -ob.exterior_normal(pts), h)
        pts, frac = pts[frac > 0.0], frac[frac > 0.0]
        grad, hess = _row_major(*fl.fd_gradient_hessian(u.batch, pts, step))
        lap_f = np.einsum("kii->k", hess) - np.einsum("ki,ki->k", pts, grad)
        r = np.linalg.norm(pts, axis=1)
        if phi is None:
            phi_sq, gps = 1.0, np.zeros_like(pts)
        else:
            phi_sq = np.asarray(phi(pts)) ** 2
            gps = (2.0 * phi.profile(r) * _cutoff_slope(phi, r) / r)[:, None] * pts
        transport = np.einsum("ki,ki->k", gps, np.einsum("kij,kj->ki", hess, grad)
                              - lap_f[:, None] * grad)
        w = np.exp(-0.5 * np.sum(pts ** 2, axis=1)) * frac * h ** 3
        terms = np.array([phi_sq * np.einsum("kij,kij->k", hess, hess) * w,
                          phi_sq * lap_f ** 2 * w,
                          phi_sq * np.einsum("ki,ki->k", grad, grad) * w, transport * w])
        sums += terms.sum(axis=1)
        scale += np.abs(terms).sum(axis=1)
    return sums, scale


def _einsum_boundary(u, phi, ob, nodes, weights, step):
    """Row-major einsum reference of `_boundary_sums`, and the sums of the
    absolute row terms."""
    grad, hess = _row_major(*fl.fd_gradient_hessian(u.batch, nodes, step))
    kappa = ob.principal_curvatures(nodes)[:, 0]
    tr_a = 2.0 * kappa
    nus = ob.exterior_normal(nodes)
    du_dnu = np.einsum("ki,ki->k", grad, nus)
    grad_tan = grad - du_dnu[:, None] * nus
    x_tan = nodes - np.einsum("ki,ki->k", nodes, nus)[:, None] * nus
    a_term = kappa * np.einsum("ki,ki->k", grad_tan, grad_tan)
    hess_nu = np.einsum("kij,kj->ki", hess, nus)
    mixed = np.einsum("ki,ki->k", grad_tan, hess_nu) - a_term
    lap_surface = (np.einsum("kii->k", hess) - np.einsum("ki,ki->k", hess_nu, nus)
                   + tr_a * du_dnu)
    lap_f_surface = lap_surface - np.einsum("ki,ki->k", x_tan, grad_tan)
    h_f = tr_a + np.einsum("ki,ki->k", nodes, nus)
    lap_term = -(lap_f_surface - h_f * du_dnu) * du_dnu
    w = np.exp(-0.5 * np.sum(nodes ** 2, axis=1)) * weights
    if phi is not None:
        w = w * np.asarray(phi(nodes)) ** 2
    terms = np.array([a_term * w, mixed * w, lap_term * w])
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


_COEFF = st.floats(-1.0, 1.0)


def _polynomial(quadratic, cubic):
    """u = b.x + x.A x / 2 + sum_i c_i x_i^3 + c_3 x_0 x_1 x_2 in R^3."""
    b, A = np.array(quadratic[:3]), np.array(quadratic[3:]).reshape(3, 3)
    A = A + A.T
    c = np.array(cubic)

    def batch(P):
        return (P @ b + 0.5 * np.einsum("ki,ij,kj->k", P, A, P)
                + (P ** 3) @ c[:3] + c[3] * P[:, 0] * P[:, 1] * P[:, 2])

    return ScalarField(lambda x: float(batch(x[None, :])[0]), batch_evaluator=batch)


_FIELDS = dict(quadratic=st.lists(_COEFF, min_size=12, max_size=12),
               cubic=st.one_of(st.just([0.0] * 4), st.lists(_COEFF, min_size=4, max_size=4)))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(**_FIELDS, piece=st.sampled_from(["ball", "slab3d"]),
       cutoff=st.sampled_from([None, 0.4]))
def test_component_major_volume_sums_match_einsum(quadratic, cubic, piece, cutoff):
    u = _polynomial(quadratic, cubic)
    dom = _PIECES[piece][0]
    phi = None if cutoff is None else rl.CutoffFamily(cutoff)
    items, _ = rl._volume_items(u, phi, dom, 1 / 8)
    lean = np.sum([item()[:4] for item in items], axis=0)
    reference, scale = _einsum_volume(u, phi, dom, 1 / 8)
    assert np.all(np.abs(lean - reference) <= 1e-13 * scale)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(**_FIELDS, piece=st.sampled_from(["ball", "slab3d"]),
       cutoff=st.sampled_from([None, 0.4]))
def test_component_major_boundary_sums_match_einsum(quadratic, cubic, piece, cutoff):
    u = _polynomial(quadratic, cubic)
    dom = _PIECES[piece][0]
    phi = None if cutoff is None else rl.CutoffFamily(cutoff)
    for _, ob in dom.pieces():
        nodes, weights = ob.shape.quad_nodes(dom.exhaustion_radius, per_dim=24)
        lean = np.array(rl._boundary_sums(u, phi, ob, nodes, weights, 1e-4))
        reference, scale = _einsum_boundary(u, phi, ob, nodes, weights, 1e-4)
        assert np.all(np.abs(lean - reference) <= 1e-13 * scale)


def test_cutoff_squared_with_gradient_is_the_product_rule():
    phi = rl.CutoffFamily(0.5)
    P = np.random.default_rng(3).uniform(-1.2, 1.2, size=(200, 3))
    P[0] = 0.0
    phi_sq, gps = phi.squared_with_gradient(P)
    r = np.linalg.norm(P, axis=1)
    np.testing.assert_array_equal(phi_sq, phi(P) ** 2)
    assert gps.shape == (3, 200) and np.all(gps[:, 0] == 0.0)
    expected = 2.0 * phi(P[1:]) * _cutoff_slope(phi, r[1:]) * P[1:].T / r[1:]
    np.testing.assert_allclose(gps[:, 1:], expected, rtol=1e-14, atol=1e-300)
