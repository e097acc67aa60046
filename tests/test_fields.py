import ctypes
import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_batched_operators_match_row_by_row(dim):
    rng = np.random.default_rng(20240802 + dim)
    P = rng.uniform(-2.0, 2.0, size=(60, dim))
    pointwise = fl.ScalarField(lambda x: math.sin(x[0]) * math.exp(0.3 * x[1]))
    batched = fl.ScalarField(lambda x: math.cos(0.7 * x[0]) + 0.1 * x[-1] ** 3,
                             batch_evaluator=lambda X: np.cos(0.7 * X[:, 0])
                             + 0.1 * X[:, -1] ** 3)
    for f in (pointwise, batched):
        for h in (None, 1e-3):
            G = fl.gradient(f, P, h=h)
            L = fl.weighted_laplacian(f, P, h=h)
            assert G.shape == P.shape and L.shape == (P.shape[0],)
            # a scalar step, or one default step per row
            steps = fl.default_step(P) if h is None else h
            np.testing.assert_array_equal(G.T, fl.fd_gradient_hessian(f.batch, P, steps)[0])
            np.testing.assert_array_equal(G, [fl.gradient(f, p, h=h) for p in P])
            np.testing.assert_array_equal(L, [fl.weighted_laplacian(f, p, h=h) for p in P])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stencil_is_exact_on_quadratics(dim):
    # central differences, mixed terms included, have no truncation error on
    # quadratics, so only rounding is left at step 1e-2
    rng = np.random.default_rng(20240803 + dim)
    A = rng.standard_normal((dim, dim))
    A = A + A.T
    b = rng.standard_normal(dim)
    c = float(rng.standard_normal())
    P = rng.uniform(-1.5, 1.5, size=(40, dim))
    grad, hess = fl.fd_gradient_hessian(
        lambda X: c + X @ b + 0.5 * np.einsum("ki,ij,kj->k", X, A, X), P, 1e-2)
    # component-major: grad (n, N) and hess (n, n, N)
    assert grad.shape == (dim, 40) and hess.shape == (dim, dim, 40)
    np.testing.assert_allclose(grad, (b + P @ A).T, rtol=0, atol=1e-9)
    np.testing.assert_allclose(hess, np.broadcast_to(A[:, :, None], hess.shape), rtol=0, atol=1e-9)


@pytest.mark.parametrize("dim, evaluations", [(2, 7), (3, 13)])
def test_stencil_evaluation_count(dim, evaluations):
    rows = []

    def counting(X):
        rows.append(X.shape[0])
        return np.sin(X).sum(axis=1)

    P = np.random.default_rng(7).uniform(-1.0, 1.0, size=(25, dim))
    grad, hess = fl.fd_gradient_hessian(counting, P, 1e-3)
    assert sum(rows) == evaluations * P.shape[0]
    assert grad.shape == (dim, 25) and hess.shape == (dim, dim, 25)
    assert fl.stencil_evaluations(dim) == evaluations
    rows.clear()
    fl.gradient(fl.ScalarField(None, batch_evaluator=counting), P, h=1e-3)
    assert sum(rows) == 2 * dim * P.shape[0]


def test_stencil_copies_a_batch_that_returns_a_view():
    # the evaluator hands back a view of the shifted-point buffer
    P = np.random.default_rng(8).uniform(-1.0, 1.0, size=(30, 3))
    view = fl.ScalarField(None, batch_evaluator=lambda X: X[:, 0])
    for h in (1e-3, None):    # a scalar step, or one default step per row
        grad, hess = fl.fd_gradient_hessian(view.batch, P, fl.default_step(P) if h is None else h)
        np.testing.assert_allclose(grad, np.tile([[1.0], [0.0], [0.0]], (1, 30)),
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(hess, 0.0, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(fl.gradient(view, P, h=h).T, grad)


def test_ordered_map_holds_blas_at_one_thread_and_restores_it(monkeypatch):
    count, calls = [3], []

    def put(n):
        calls.append(n)
        count[0] = n

    monkeypatch.setattr(fl, "_OPENBLAS_THREADS", (lambda: count[0], put))
    assert fl.ordered_map(lambda i: (i, count[0]), range(5)) == [(i, 1) for i in range(5)]
    assert count[0] == 3 and calls == [1, 3]
    # restored when an item raises, too
    with pytest.raises(ZeroDivisionError):
        fl.ordered_map(lambda i: 1 / (i - 2), range(4))
    assert count[0] == 3
    # one item runs in the caller's thread, with the count as it is
    calls.clear()
    assert fl.ordered_map(lambda i: count[0], [0]) == [3] and calls == []
    # without OpenBLAS the pool runs as it is
    monkeypatch.setattr(fl, "_OPENBLAS_THREADS", None)
    assert fl.ordered_map(lambda i: i * i, range(5)) == [0, 1, 4, 9, 16]


@pytest.mark.skipif(fl._OPENBLAS_THREADS is None, reason="numpy links no OpenBLAS")
def test_ordered_map_leaves_the_openblas_thread_count_as_it_found_it():
    get, put = fl._OPENBLAS_THREADS
    before = get()
    try:
        for count in (1, 2):
            put(count)
            assert fl.ordered_map(lambda i: get(), range(4)) == [1] * 4
            assert get() == count
    finally:
        put(before)


@pytest.mark.parametrize("lib", [SimpleNamespace(), OSError])
def test_openblas_is_not_found_without_its_symbols(monkeypatch, lib):
    def load(path):
        if lib is OSError:
            raise OSError("no such library")
        return lib

    monkeypatch.setattr(ctypes, "CDLL", load)
    assert fl._openblas_thread_calls() is None


def test_declared_domain_guard_rejects_a_batch_with_one_bad_row():
    box = fl.BoundingBox(lo=(-1.0, -1.0), hi=(1.0, 1.0))
    f = fl.ScalarField(lambda x: x[0], declared_domain=box)
    P = np.array([[0.5, 0.0], [-0.2, 0.3], [0.99999, 0.0], [0.0, -0.4]])
    with pytest.raises(BoundaryStencilError):
        fl.weighted_laplacian(f, P, h=1e-3)
    with pytest.raises(BoundaryStencilError):
        fl.gradient(f, P, h=1e-3)
    good = np.delete(P, 2, axis=0)
    np.testing.assert_allclose(fl.weighted_laplacian(f, good, h=1e-3), -good[:, 0],
                               atol=1e-8)


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

    def test_freed_without_the_cycle_collector(self):
        # a solved field holds the whole grid of values, so a reference
        # cycle would keep it resident until the next cyclic collection
        g = self._grid()
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            gc.enable()

    def test_binary_round_trip(self):
        g = self._grid()
        g2 = fl.GridField.from_binary(g.to_binary())
        np.testing.assert_array_equal(g.values, g2.values)
        np.testing.assert_allclose(g.origin, g2.origin)
        np.testing.assert_allclose(g.spacing, g2.spacing)
        with pytest.raises(ParameterError):
            fl.GridField.from_binary(b"bogus payload")

    def test_binary_round_trip_is_exact(self):
        payload = self._grid().to_binary()
        assert fl.GridField.from_binary(payload).to_binary() == payload

    # 8 bytes of magic, the 8-byte ndim, a 48-byte header of the 5 x 9
    # grid's dims, spacing and origin, and 360 bytes of values
    @pytest.mark.parametrize("cut", [8, 12, 16, 40, 63, 64, 100, 416, 423])
    def test_a_truncated_binary_is_a_parameter_error(self, cut):
        payload = self._grid().to_binary()
        assert len(payload) == 424
        with pytest.raises(ParameterError, match=f"payload of {cut} bytes does not match"):
            fl.GridField.from_binary(payload[:cut])

    def test_trailing_bytes_are_a_parameter_error(self):
        with pytest.raises(ParameterError, match="payload of 432 bytes does not match"):
            fl.GridField.from_binary(self._grid().to_binary() + bytes(8))

    def test_slab_solution_gradient_matches_profile(self, slab_grid_solution,
                                                    slab_profile):
        field = slab_grid_solution.field
        prof = slab_profile.profile
        p = np.array([0.25, 0.125])  # mid-height, away from boundaries
        g = fl.gradient(field, p, h=field.spacing[0])
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
        P[rows, ax] = gf.origin[ax] + gf.spacing[ax] * rng.integers(0, shape[ax], 40)
    P = np.vstack([P, hi, gf.origin])   # the last node and the first
    batch = gf.batch(P)
    assert batch.shape == (P.shape[0],)
    np.testing.assert_allclose(batch, [gf(p) for p in P], rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=st.lists(st.integers(2, 6), min_size=1, max_size=3).map(tuple), data=st.data())
def test_grid_field_reads_back_every_finite_node_beside_nan_holes(shape, data):
    # dyadic spacing and origin put every node on exact coordinates; values
    # in [0, 1], as a solution holds them (no -0.0, which reads back as +0.0)
    spacing = 2.0 ** -data.draw(st.integers(0, 5))
    origin = [k * spacing for k in data.draw(
        st.lists(st.integers(-40, 40), min_size=len(shape), max_size=len(shape)))]
    values = data.draw(arrays(float, shape, elements=st.floats(0.0, 1.0)))
    holes = data.draw(arrays(bool, shape))
    values[holes] = np.nan
    gf = fl.GridField(origin, spacing, values)
    nodes = np.asarray(origin) + np.argwhere(~holes) * spacing
    expected = values[~holes].view(np.int64)
    np.testing.assert_array_equal(gf.batch(nodes).view(np.int64), expected)
    np.testing.assert_array_equal(np.array([gf(p) for p in nodes]).view(np.int64), expected)


def test_solved_slab_reads_its_dirichlet_band(slab_grid_solution):
    # the nodes at x2 = 1 and 1 + h carry the piece's data 1.0, the node at
    # 1 + 2h is unsolved (NaN) and must not leak into reads at 1 + h
    field = slab_grid_solution.field
    h = field.spacing[1]
    assert np.isnan(field.values).any()
    assert field([0.0, 1.0 + h]) == 1.0
    assert field.batch(np.array([[0.01, 1.0 + h]]))[0] == 1.0


@pytest.mark.parametrize("get_name, put_name", [
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),  # numpy 2 wheels
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),  # numpy 1 wheels
    ("openblas_get_num_threads", "openblas_set_num_threads")])  # system builds
def test_openblas_is_found_by_its_symbol_names(monkeypatch, get_name, put_name):
    def get():
        return 4

    def put(n):
        pass

    lib = SimpleNamespace(**{get_name: get, put_name: put})
    monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
    assert fl._openblas_thread_calls() == (get, put)
