import math

import numpy as np
import pytest

from shrinkerlab import fields as fl
from shrinkerlab.errors import BoundaryStencilError, ParameterError


def test_weighted_laplacian_examples():
    assert fl.weighted_laplacian(fl.ScalarField(lambda x: x[0]),
                                 [2, 0, 0]) == pytest.approx(-2.0, abs=1e-6)
    f = fl.ScalarField(lambda x: float(np.dot(x, x)))
    assert fl.weighted_laplacian(f, [1, 1, 0]) == pytest.approx(2.0, abs=1e-5)
    assert fl.weighted_laplacian(fl.ScalarField(lambda x: 1.0),
                                 [0.3, -0.7]) == pytest.approx(0.0, abs=1e-12)


def test_gradient_examples():
    f = fl.ScalarField(lambda x: x[0] + 2 * x[1])
    np.testing.assert_allclose(fl.gradient(f, [5, -3, 2]), [1, 2, 0], atol=1e-8)
    g = fl.ScalarField(lambda x: float(np.dot(x, x)))
    np.testing.assert_allclose(fl.gradient(g, [1, 0, -1]), [2, 0, -2], atol=1e-8)


def test_weighted_divergence_examples():
    c = fl.VectorField(lambda x: np.array([2.0, -1.0]))
    assert fl.weighted_divergence(c, [3.0, 1.0]) == pytest.approx(-5.0, abs=1e-7)
    v = fl.VectorField(lambda x: np.array([x[0], 0.0]))
    assert fl.weighted_divergence(v, [3.0, 0.0]) == pytest.approx(-8.0, abs=1e-7)
    z = fl.VectorField(lambda x: np.zeros(2))
    assert fl.weighted_divergence(z, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_coordinate_functions_are_eigenfields(quasi_points):
    # Lap_f x_A = -x_A
    for p in quasi_points[3][:15]:
        for axis in range(3):
            f = fl.ScalarField(lambda x, a=axis: x[a])
            assert fl.weighted_laplacian(f, p) == pytest.approx(-p[axis], abs=1e-6)


SMOOTH_FIELDS = [
    lambda x: math.sin(x[0]) * math.exp(0.3 * x[1]),
    lambda x: math.cos(0.7 * x[0] + 0.2 * x[1]) + 0.1 * x[0] ** 3,
    lambda x: math.exp(-0.25 * float(np.dot(x, x))),
]


@pytest.mark.parametrize("fn", SMOOTH_FIELDS, ids=["sin-exp", "cos-cubic", "gaussian"])
def test_weighted_product_rule(fn, quasi_points):
    # div_f(u grad u) = |grad u|^2 + u Lap_f u
    h = 2e-4
    u = fl.ScalarField(fn)
    for p in quasi_points[2][:10]:
        grad = fl.gradient(u, p, h=h)
        lhs = fl.weighted_divergence(
            fl.VectorField(lambda x: u(x) * fl.gradient(u, x, h=h)), p, h=h)
        rhs = float(np.dot(grad, grad)) + u(p) * fl.weighted_laplacian(u, p, h=h)
        assert lhs == pytest.approx(rhs, abs=5e-5)


def test_refinement_halving_ratio():
    f = fl.ScalarField(lambda x: math.sin(x[0]) * math.exp(0.3 * x[1]))
    p = np.array([0.7, -0.4])
    exact = (-math.sin(0.7) + 0.09 * math.sin(0.7)
             - 0.7 * math.cos(0.7) + 0.4 * 0.3 * math.sin(0.7)) * math.exp(-0.12)
    e1 = abs(fl.weighted_laplacian(f, p, h=1e-2) - exact)
    e2 = abs(fl.weighted_laplacian(f, p, h=5e-3) - exact)
    assert 3.0 <= e1 / e2 <= 5.0


def test_declared_domain_guard():
    box = fl.BoundingBox(lo=(-1.0, -1.0), hi=(1.0, 1.0))
    f = fl.ScalarField(lambda x: x[0], declared_domain=box)
    with pytest.raises(BoundaryStencilError):
        fl.weighted_laplacian(f, [0.99999, 0.0], h=1e-3)
    assert fl.weighted_laplacian(f, [0.5, 0.0], h=1e-3) == pytest.approx(-0.5, abs=1e-8)


class TestGridField:
    def _grid(self):
        xs = np.linspace(0, 1, 5)
        ys = np.linspace(0, 2, 9)
        vals = np.add.outer(xs ** 2, ys)
        return fl.GridField(origin=(0, 0), spacing=(0.25, 0.25), values=vals)

    def test_nodes_interpolate_exactly(self):
        g = self._grid()
        assert g([0.5, 1.0]) == 0.5 ** 2 + 1.0
        assert g([0.375, 0.125]) == pytest.approx(
            (g([0.25, 0.125]) + g([0.5, 0.125])) / 2)

    def test_binary_round_trip(self):
        g = self._grid()
        g2 = fl.GridField.from_binary(g.to_binary())
        np.testing.assert_array_equal(g.values, g2.values)
        np.testing.assert_allclose(g.origin, g2.origin)
        np.testing.assert_allclose(g.spacing, g2.spacing)
        with pytest.raises(ParameterError):
            fl.GridField.from_binary(b"bogus payload")

    def test_csv_layout(self):
        lines = self._grid().to_csv().splitlines()
        assert lines[0] == "x0,x1,value"
        assert len(lines) == 1 + 5 * 9

    def test_stencil_order_flags(self):
        g = self._grid()
        assert g.stencil_order([0.5, 1.0]) == 2
        assert g.stencil_order([0.01, 1.0]) == 1

    def test_slab_solution_gradient_matches_profile(self, slab_grid_solution,
                                                    slab_profile):
        field = slab_grid_solution.field
        prof = slab_profile.profile
        p = np.array([0.25, 0.125])  # mid-height, away from boundaries
        g = field.gradient(p)
        assert g[1] == pytest.approx(prof.derivative(p[1]), abs=5e-3)
        assert abs(g[0]) < 5e-3


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_batch_matches_pointwise(dim):
    rng = np.random.default_rng(20240801 + dim)
    shape = (9, 7, 5)[:dim]
    gf = fl.GridField(origin=rng.uniform(-1, 1, dim), spacing=rng.uniform(0.1, 0.3, dim),
                      values=rng.standard_normal(shape))
    hi = gf.origin + (np.array(shape) - 1) * gf.spacing
    P = rng.uniform(gf.origin, hi, size=(300, dim))
    for ax in range(dim):   # points on cell faces
        rows = slice(40 * ax, 40 * (ax + 1))
        P[rows, ax] = gf.node_coordinates(ax)[rng.integers(0, shape[ax], 40)]
    P = np.vstack([P, hi, gf.origin])   # the last node and the first
    batch = gf.batch(P)
    assert batch.shape == (P.shape[0],)
    np.testing.assert_allclose(batch, [gf(p) for p in P], rtol=0, atol=1e-15)
