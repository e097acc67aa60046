"""Properties of the batched boundary protocol on plane and sphere pieces."""

import math
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shrinkerlab import domain as dm
from shrinkerlab import geometry as geo
from shrinkerlab import solver as sv

PROTOCOL = ("depth", "exterior_normal", "principal_curvatures",
            "weighted_mean_curvature", "shape.project")


@st.composite
def planes(draw, dim):
    v = draw(arrays(float, dim, elements=st.floats(-1.0, 1.0)).filter(
        lambda v: np.linalg.norm(v) > 0.1))
    return geo.Hyperplane(tuple(v / np.linalg.norm(v)), draw(st.floats(-2.0, 2.0)))


def spheres(dim):
    return st.builds(lambda r: geo.Sphere(dim - 1, r), st.floats(0.1, 5.0))


@st.composite
def cases(draw):
    """(oriented piece, (N, n) points with every row off the origin)."""
    dim = draw(st.sampled_from([2, 3]))
    piece = draw(st.one_of(planes(dim), spheres(dim)))
    side = draw(st.sampled_from([+1, -1]))
    count = draw(st.integers(1, 12))
    pts = draw(arrays(float, (count, dim), elements=st.floats(-5.0, 5.0)).filter(
        lambda p: np.all(np.linalg.norm(p, axis=1) > 1e-3)))
    return dm.OrientedBoundary(piece, side), pts


@settings(max_examples=200, deadline=None)
@given(cases())
def test_batched_answers_match_row_by_row(case):
    ob, pts = case
    for name in PROTOCOL:
        method = attrgetter(name)(ob)
        batched = np.asarray(method(pts))
        assert batched.shape[0] == pts.shape[0], name
        rows = np.array([method(p) for p in pts])
        # a plane's batch is a matrix-vector product and a row a dot product:
        # both are exact to rounding, not always to the same last bit
        np.testing.assert_allclose(batched, rows, rtol=1e-14, atol=1e-14, err_msg=name)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_projection_lands_on_the_zero_set(case):
    ob, pts = case
    assert np.max(np.abs(ob.shape.raw_signed(ob.shape.project(pts)))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(cases())
def test_exterior_normal_is_unit_and_outward(case):
    ob, pts = case
    nu = ob.exterior_normal(pts)
    np.testing.assert_allclose(np.linalg.norm(nu, axis=1), 1.0, rtol=1e-14)
    # stepping along the exterior normal lowers the depth at unit rate
    step = 1e-6
    slope = (ob.depth(pts + step * nu) - ob.depth(pts)) / step
    np.testing.assert_allclose(slope, -1.0, atol=1e-5)


@settings(max_examples=100, deadline=None)
@given(dim=st.sampled_from([2, 3]), radius=st.floats(0.1, 5.0),
       per_dim=st.sampled_from([4, 16, 64]), max_radius=st.floats(0.1, 6.0))
def test_sphere_quadrature_weights_sum_to_the_area(dim, radius, per_dim, max_radius):
    piece = geo.Sphere(dim - 1, radius)
    nodes, weights = piece.quad_nodes(max_radius, per_dim)
    area = 2.0 * math.pi * radius if dim == 2 else 4.0 * math.pi * radius ** 2
    assert math.isclose(float(np.sum(weights)), area, rel_tol=1e-12)
    assert np.max(np.abs(piece.raw_signed(nodes))) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]), per_dim=st.sampled_from([4, 16, 64]),
       max_radius=st.floats(2.5, 6.0))
def test_plane_quadrature_weights_sum_to_the_clipped_area(data, dim, per_dim, max_radius):
    piece = data.draw(planes(dim))
    nodes, weights = piece.quad_nodes(max_radius, per_dim)
    reach = math.sqrt(max_radius ** 2 - piece.offset ** 2)
    area = 2.0 * reach if dim == 2 else math.pi * reach ** 2
    assert math.isclose(float(np.sum(weights)), area, rel_tol=1e-12)
    assert np.max(np.abs(piece.raw_signed(nodes))) <= 1e-12
    assert np.max(np.linalg.norm(nodes, axis=1)) <= max_radius * (1.0 + 1e-12)


def test_plane_outside_the_ball_has_no_nodes():
    nodes, weights = geo.Hyperplane((0.0, 1.0), 3.0).quad_nodes(2.0, per_dim=16)
    assert nodes.shape == (0, 2) and weights.shape == (0,)


def test_sphere_normal_vanishes_at_the_center():
    ob = dm.OrientedBoundary(geo.Sphere(2, 1.0), -1)
    assert np.all(ob.exterior_normal(np.zeros(3)) == 0.0)
    assert np.all(ob.exterior_normal(np.zeros((4, 3))) == 0.0)


def _same_profile(p, q):
    """Same class, same parameters and the same tabulated values, bit for bit."""
    a, b = vars(p), vars(q)
    return type(p) is type(q) and a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) for k in a)


_PLANE = {"type": "plane", "normal": [0, 1], "offset": -1.5, "side": 1}
_SPHERE = {"type": "sphere", "radius": 0.6, "side": 1}


@pytest.mark.parametrize("config, closed_form", [
    ({"kind": "slab", "h1": -1, "h2": 1}, lambda: sv.solve_slab(-1, 1).profile),
    ({"kind": "slab", "h1": -0.5, "h2": 2, "ambient_dim": 3, "axis": 0},
     lambda: sv.solve_slab(-0.5, 2, ambient_dim=3, axis=0).profile),
    ({"kind": "annulus", "a": 0.5, "b": 2.0}, lambda: sv.solve_radial(0.5, 2.0, 2).profile),
    ({"kind": "annulus", "a": 1, "b": 3, "ambient_dim": 4},
     lambda: sv.solve_radial(1, 3, 4).profile),
    ({"kind": "ball", "rho": 1.0}, lambda: None),
    ({"kind": "generic", "ambient_dim": 2, "radius": 3.0, "sigma1": _PLANE,
      "sigma2": _SPHERE}, lambda: None),
], ids=["slab", "slab-axis-0", "annulus", "annulus-4d", "ball", "generic"])
def test_domain_carries_its_closed_form(config, closed_form):
    dom = dm.domain_from_json(config)
    expected = closed_form()
    if expected is None:
        assert dom.closed_form is None
    else:
        assert _same_profile(dom.closed_form, expected)
    assert dom.with_radius(2.5).closed_form is dom.closed_form
