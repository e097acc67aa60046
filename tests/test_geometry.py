import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shrinkerlab import geometry as geo
from shrinkerlab.errors import ContractViolation, ParameterError
from shrinkerlab.quadrature import halton


def test_signed_distance_examples():
    assert geo.Sphere(m=2).raw_signed([0, 0, 0]) == pytest.approx(-math.sqrt(2))
    assert geo.Sphere(m=2).raw_signed([3.0, 0, 4.0]) == pytest.approx(5.0 - math.sqrt(2))
    assert geo.Hyperplane(normal=(0, 0, 1.0)).raw_signed(
        [7, -1, 0.25]) == pytest.approx(0.25)


def test_inside_outside_sign_convention():
    sph = geo.Sphere(m=2)
    assert sph.raw_signed([0.5, 0.5, 0.5]) < 0
    assert sph.raw_signed([2.0, 0, 0]) > 0
    plane = geo.Hyperplane(normal=(0, 0, -1.0), offset=1.0)
    assert plane.raw_signed([0, 0, -2.0]) > 0
    assert plane.raw_signed([0, 0, 0]) < 0


MODELS = [
    geo.Hyperplane(normal=(0.0, 1.0)),
    geo.Sphere(m=1),
    geo.Hyperplane(normal=(0.0, 0.0, 1.0)),
    geo.Sphere(m=2),
    geo.Cylinder(k=1, m=2),
    geo.Sphere(m=3),
    geo.Cylinder(k=1, m=3),
    geo.Cylinder(k=2, m=3),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{type(m).__name__}-n{m.ambient_dim}")
def test_shrinker_residual_vanishes_on_models(model):
    worst = max(np.linalg.norm(geo.shrinker_residual(s))
                for s in geo.surface_samples(model, 1000))
    assert worst < 1e-9


def test_unit_sphere_is_not_a_shrinker():
    # radius 1 in R^3: x_perp = nu, H = -2 nu, residual has norm 1
    s = geo.SurfaceSample(point=np.array([1.0, 0, 0]), normal=np.array([1.0, 0, 0]),
                          second_fundamental_form=-np.eye(2),
                          frame=np.array([[0.0, 1, 0], [0, 0, 1]]))
    assert np.linalg.norm(geo.shrinker_residual(s)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", [geo.Sphere(m=2), geo.Hyperplane(normal=(0, 0, 1.0))],
                         ids=["sphere", "plane"])
def test_distance_gradient_is_unit(model, quasi_points):
    h = 1e-5
    for p in quasi_points[3]:
        if isinstance(model, geo.Sphere) and np.linalg.norm(p) < 0.3:
            continue  # near the centre, where the sphere's distance has a kink
        g = np.array([
            (model.raw_signed(p + h * e) - model.raw_signed(p - h * e))
            / (2 * h)
            for e in np.eye(3)])
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-6)


# samples written out by hand (point, normal, A, frame), independent of the model builders
E1, E2, E3 = np.eye(3)


class TestCylinderIdentities:
    def test_on_cylinder(self):
        # the cylinder S^1 x R at (1, 0, 3): nu = e1, A = diag(-1, 0)
        rep = geo.cylinder_identities(1, geo.SurfaceSample([1, 0, 3.0], E1, np.diag([-1.0, 0.0]),
                                                           [E2, E3]))
        assert rep.u == pytest.approx(1.0)
        assert abs(rep.grad_id_residual) < 1e-6
        assert abs(rep.laplu_residual) < 1e-6

    def test_on_plane_hand_values(self):
        # u = x1^2 + x2^2 at (2,0,0) on {x3=0}: u=4, both identities exact
        rep = geo.cylinder_identities(1, geo.SurfaceSample([2.0, 0, 0], E3, np.zeros((2, 2)),
                                                           [E1, E2]))
        assert rep.u == pytest.approx(4.0)
        assert abs(rep.grad_id_residual) < 1e-6
        assert abs(rep.laplu_residual) < 1e-6

    def test_on_sphere_symbolic_oracle(self):
        # on S^2_sqrt2 at (sqrt2,0,0): u = 2, and the symbolic surface
        # computation gives (1/2) Lap_f u = -1 = k+1-|Nbar|^2-u
        r2 = math.sqrt(2.0)
        rep = geo.cylinder_identities(1, geo.SurfaceSample([r2, 0, 0], E1, -np.eye(2) / r2,
                                                           [E2, E3]))
        assert rep.u == pytest.approx(2.0)
        assert abs(rep.grad_id_residual) < 1e-6
        assert abs(rep.laplu_residual) < 1e-6
        assert rep.sqrtu_slack >= -1e-8

    def test_slack_nonnegative_across_models(self):
        for model in (geo.Sphere(m=2), geo.Cylinder(k=1, m=2),
                      geo.Hyperplane(normal=(0, 0, 1.0))):
            for s in geo.surface_samples(model, 300):
                rep = geo.cylinder_identities(1, s)
                if rep.sqrtu_slack is not None:
                    assert rep.sqrtu_slack >= -1e-8

    def test_sqrt_slack_undefined_on_axis_plane(self):
        # the plane {x1 = 0} at the origin
        rep = geo.cylinder_identities(1, geo.SurfaceSample([0.0, 0, 0], E1, np.zeros((2, 2)),
                                                           [E2, E3]))
        assert rep.u == pytest.approx(0.0, abs=1e-15)
        assert rep.sqrtu_slack is None

    def test_fd_step_convergence_on_patches(self):
        r2 = math.sqrt(2.0)

        def sphere_chart(s):
            th, ph = s
            return np.array([r2 * math.sin(ph) * math.cos(th),
                             r2 * math.sin(ph) * math.sin(th),
                             r2 * math.cos(ph)])

        def cyl_chart(s):
            return np.array([math.cos(s[0]), math.sin(s[0]), s[1]])

        def plane_chart(s):
            return np.array([s[0], s[1], 0.0])

        # curved charts: chart differentiation error must shrink at order >= 1
        for chart, pt in ((sphere_chart, (0.7, 1.1)), (cyl_chart, (0.9, 0.4))):
            errs = []
            for fd in (2e-2, 1e-2, 5e-3):
                patch = geo.ParametrizedPatch(chart=chart, lo=(-10, -10),
                                              hi=(10, 10), fd_step=fd)
                rep = geo.cylinder_identities(1, patch.sample(np.array(pt)))
                errs.append(abs(rep.grad_id_residual) + abs(rep.laplu_residual))
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            assert min(orders) >= 1.0
        # the flat chart differences exactly: residuals sit at the floor
        for fd in (2e-2, 1e-2, 5e-3):
            patch = geo.ParametrizedPatch(chart=plane_chart, lo=(-10, -10),
                                          hi=(10, 10), fd_step=fd)
            rep = geo.cylinder_identities(1, patch.sample(np.array((1.3, 0.6))))
            assert abs(rep.grad_id_residual) + abs(rep.laplu_residual) < 1e-10


class TestVolumeGrowth:
    def test_plane_disc_area(self):
        res = geo.extrinsic_volume_growth(geo.Hyperplane(normal=(0, 0, 1.0)),
                                          range(2, 11))
        assert res.fitted_exponent == pytest.approx(2.0, abs=0.01)
        assert res.table[0][1] == pytest.approx(math.pi * 4, rel=1e-10)

    def test_cylinder_growth(self):
        res = geo.extrinsic_volume_growth(geo.Cylinder(k=1, m=2), range(2, 11))
        assert res.fitted_exponent <= 2.05
        assert 0.9 <= res.fitted_exponent <= 1.1
        # area oracle: circumference times clipped axial extent
        R = 4.0
        assert dict(res.table)[R] == pytest.approx(2 * math.pi * 2 * math.sqrt(R * R - 1),
                                                   rel=1e-6)

    def test_sphere_constant_area(self):
        res = geo.extrinsic_volume_growth(geo.Sphere(m=2), range(2, 11))
        assert abs(res.fitted_exponent) < 1e-10
        assert res.table[0][1] == pytest.approx(8 * math.pi, rel=1e-12)

    def test_closed_form_areas(self):
        # S^2_sqrt2 x R: sphere area times the axial reach 2 sqrt(R^2 - 2)
        R = 4.0
        assert geo.Cylinder(k=2, m=3).clipped_area(R) == pytest.approx(
            8 * math.pi * 2 * math.sqrt(R * R - 2), rel=1e-12)
        # the hyperplane of R^4 cut by B_R is a 3-ball
        assert geo.Hyperplane(normal=(0, 0, 0, 1.0)).clipped_area(R) == pytest.approx(
            4 / 3 * math.pi * R ** 3, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_slope_margin_is_a_twentieth(self, m):
        # the margin is m + 0.05: an area growing like R^(m + 0.04) passes,
        # one growing like R^(m + 0.06) raises
        class PowerArea:
            hypersurface_dim = m

            def __init__(self, exponent):
                self.exponent = exponent

            def clipped_area(self, R):
                return R ** self.exponent

        res = geo.extrinsic_volume_growth(PowerArea(m + 0.04), range(2, 11))
        assert res.fitted_exponent == pytest.approx(m + 0.04, abs=1e-9)
        with pytest.raises(ContractViolation, match="exceeds m"):
            geo.extrinsic_volume_growth(PowerArea(m + 0.06), range(2, 11))

    def test_parameter_errors(self):
        pl = geo.Hyperplane(normal=(0, 0, 1.0))
        with pytest.raises(ParameterError):
            geo.extrinsic_volume_growth(pl, [2, 3])
        with pytest.raises(ParameterError):
            geo.extrinsic_volume_growth(pl, [3, 2, 4])
        with pytest.raises(ParameterError):
            geo.extrinsic_volume_growth(geo.Sphere(m=2), [1.0, 2, 3])
        # a NaN radius gave the hyperplane a fitted exponent
        for radii in ([math.nan, 2, 3], [-1, 2, 3]):
            with pytest.raises(ParameterError, match="volume-growth radii must be positive"):
                geo.extrinsic_volume_growth(pl, radii)


def test_model_json_round_trip():
    for model in (geo.Hyperplane(normal=(0, 0, 1.0)), geo.Sphere(m=2),
                  geo.Cylinder(k=1, m=3)):
        assert geo.model_from_json(model.to_json()) == model
    with pytest.raises(ParameterError):
        geo.model_from_json({"type": "torus"})


def test_sample_invariants_are_enforced():
    with pytest.raises(ContractViolation):
        geo.SurfaceSample(point=np.zeros(3), normal=np.array([1.0, 0, 0]),
                          second_fundamental_form=np.array([[0.0, 1.0], [0.0, 0.0]]),
                          frame=np.array([[0.0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ContractViolation):
        geo.SurfaceSample(point=np.zeros(3), normal=np.array([1.0, 0, 0]),
                          second_fundamental_form=np.zeros((2, 2)),
                          frame=np.array([[1.0, 0, 0], [0, 0, 1]]))


def test_patch_immersion_check():
    patch = geo.ParametrizedPatch(chart=lambda s: np.array([s[0], s[0], 0.0]),
                                  lo=(0, 0), hi=(1, 1))
    with pytest.raises(ParameterError, match="immersion"):
        patch.sample(np.array([0.3, 0.4]))


@pytest.mark.parametrize("s", [[5.0, -3.0], [0.5, 1.0 + 1e-12], [math.nan, 0.5],
                               [0.5, 0.5, 0.5], [0.5]],
                         ids=["outside", "past-hi", "nan", "three-entries", "one-entry"])
def test_patch_sample_must_lie_in_its_rectangle(s):
    # the rectangle was validated and never read: any point, and any length
    # the chart accepted, gave a sample
    calls = []
    patch = geo.ParametrizedPatch(chart=lambda s: calls.append(s) or np.array([*s[:2], 0.0]),
                                  lo=(0, 0), hi=(1, 1))
    with pytest.raises(ParameterError, match="is not a point of the rectangle"):
        patch.sample(np.array(s))
    assert calls == []
    assert patch.sample(np.array([1.0, 0.0])).point.tolist() == [1.0, 0.0, 0.0]


def test_identities_need_a_sample_and_a_k():
    circle = geo.surface_samples(geo.Sphere(m=1), 5)
    with pytest.raises(ParameterError, match=re.escape("5 samples, k values []")):
        geo.identity_extremes(circle, [])
    with pytest.raises(ParameterError, match=re.escape("0 samples, k values [1]")):
        geo.identity_extremes([], [1])


def test_patch_sample_reads_the_chart_within_fd_step_of_its_rectangle():
    # at s = hi the stencil leaves the rectangle by fd_step in each coordinate
    lo, hi, h = np.array([-1.0, 0.5]), np.array([1.0, 2.0]), 1e-3
    seen = []

    def chart(s):
        seen.append(np.array(s))
        return np.array([s[0], s[1], s[0] * s[1]])

    geo.ParametrizedPatch(chart=chart, lo=tuple(lo), hi=tuple(hi), fd_step=h).sample(hi)
    seen = np.array(seen)
    assert np.all(seen >= lo - h) and np.all(seen <= hi + h)
    assert np.any(seen > hi)


@pytest.mark.parametrize("m, calls", [(1, 3), (2, 9), (3, 19)])
def test_patch_sample_calls_the_chart_once_per_stencil_point(m, calls):
    # the point, chart(s +- h e_i) shared by the Jacobian and the diagonal
    # second differences, and four points per mixed pair: 1 + 2 m^2
    seen = []

    def chart(s):
        seen.append(s)
        return np.append(s, np.sum(np.sin(s)) + s[0] * s[-1])

    patch = geo.ParametrizedPatch(chart=chart, lo=(-1,) * m, hi=(1,) * m)
    patch.sample(np.linspace(0.2, 0.6, m))
    assert len(seen) == calls == 1 + 2 * m * m


@pytest.mark.parametrize("build, message", [
    (lambda: geo.Hyperplane(normal=(0, 1.0), offset=math.inf),
     "hyperplane offset must be finite, got inf"),
    (lambda: geo.Hyperplane(normal=(0, 1.0), offset=math.nan),
     "hyperplane offset must be finite, got nan"),
    (lambda: geo.Sphere(1, math.inf), "sphere radius must be positive and finite, got inf"),
    (lambda: geo.Sphere(2, 0.0), "sphere radius must be positive and finite, got 0.0"),
    (lambda: geo.ParametrizedPatch(chart=lambda s: np.append(s, 0.0), lo=(0, 0), hi=(1, 1),
                                   fd_step=math.nan),
     "fd_step must be positive and finite, got nan"),
], ids=["inf-offset", "nan-offset", "inf-radius", "zero-radius", "nan-fd-step"])
def test_pieces_reject_non_finite_geometry(build, message):
    # a NaN fd_step used to end in numpy's LinAlgError at the first sample
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        build()


def test_model_validation():
    with pytest.raises(ParameterError):
        geo.Hyperplane(normal=(0, 0, 2.0))
    with pytest.raises(ParameterError):
        geo.Cylinder(k=2, m=2)
    with pytest.raises(ParameterError):
        geo.Sphere(m=0)


@st.composite
def shapes(draw):
    """A plane or sphere in R^2..R^5 (any offset or radius) or a cylinder."""
    dim = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["plane", "sphere", "cylinder"]))
    if kind == "plane":
        v = draw(arrays(float, dim, elements=st.floats(-1.0, 1.0)).filter(
            lambda v: np.linalg.norm(v) > 0.1))
        return geo.Hyperplane(tuple(v / np.linalg.norm(v)), draw(st.floats(-2.0, 2.0)))
    if kind == "sphere":
        return geo.Sphere(dim - 1, draw(st.none() | st.floats(0.1, 5.0)))
    m = max(dim - 1, 2)
    return geo.Cylinder(k=draw(st.integers(1, m - 1)), m=m)


@settings(max_examples=150, deadline=None)
@given(shape=shapes(), count=st.integers(1, 12))
def test_samples_lie_on_the_shape_with_its_normal(shape, count):
    # the sampling half of each class agrees with its piece or separation half
    samples = shape.quasi_random_samples(count)
    pts = np.array([s.point for s in samples])
    if isinstance(shape, geo.Cylinder):
        # the spherical factor has radius sqrt(k) in the first k + 1 coordinates
        rho = np.linalg.norm(pts[:, : shape.k + 1], axis=1)
        assert np.max(np.abs(rho - math.sqrt(shape.k))) <= 1e-12
        return
    assert np.max(np.abs(shape.raw_signed(pts))) <= 1e-12
    np.testing.assert_allclose(np.array([s.normal for s in samples]),
                               shape.raw_normal(pts), rtol=0, atol=1e-12)


def _radical_inverse(i, base):
    value, invb = 0.0, 1.0 / base
    while i > 0:
        value += (i % base) * invb
        i //= base
        invb /= base
    return value


@settings(max_examples=60, deadline=None)
@given(count=st.integers(0, 300), dim=st.integers(1, 12))
def test_halton_matches_the_scalar_radical_inverse(count, dim):
    # the first 20 points are skipped
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    ref = np.array([[_radical_inverse(i + 21, primes[d]) for d in range(dim)]
                    for i in range(count)]).reshape(count, dim)
    assert halton(count, dim).tobytes() == ref.tobytes()


def _fields(s):
    return [a.tobytes() for a in (s.point, s.normal, s.second_fundamental_form, s.frame,
                                  s.mean_curvature_vector)]


@settings(max_examples=150, deadline=None)
@given(shape=shapes(), total=st.integers(1, 200), data=st.data(), span=st.floats(0.5, 4.0))
def test_a_shorter_stack_is_a_prefix_of_a_longer_one(shape, total, data, span):
    # quasi_random_samples builds its rows as one stack; each row is built
    # as in a stack of any other length, bit for bit
    count = data.draw(st.integers(1, total))
    rows = shape.quasi_random_samples(total, span=span)
    prefix = shape.quasi_random_samples(count, span=span)
    assert [_fields(s) for s in prefix] == [_fields(s) for s in rows[:count]]


def _contracts_one_by_one(normal, a, frame):
    """The name of the first contract one sample breaks, by np.allclose."""
    if not (np.allclose(a, a.T, atol=1e-10) and np.isfinite(a).all()):
        return "symmetric"
    if not np.max(np.abs(frame @ normal)) <= 1e-10:  # a NaN product fails
        return "orthogonal"
    return None


_NEAR = st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0, np.nan, np.inf])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), count=st.integers(1, 6), m=st.integers(1, 3))
def test_stacked_contract_check_agrees_with_allclose(data, count, m):
    # perturbations of an exact stack by multiples of the tolerances, NaN and inf included
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    nu = np.zeros((count, m + 1))
    nu[:, 0] = 1.0
    frame = np.tile(np.eye(m + 1)[1:], (count, 1, 1))
    a = rng.normal(size=(count, m, m))
    a = a + a.swapaxes(1, 2)
    row = data.draw(st.integers(0, count - 1))
    which = data.draw(st.sampled_from(["symmetric", "orthogonal"]))
    scale = data.draw(_NEAR)
    if which == "symmetric" and m > 1:
        a[row, 0, 1] += scale * (1e-10 + 1e-5 * abs(a[row, 1, 0]))
    elif which == "orthogonal":
        frame[row, 0, 0] = scale * 1e-10
    expected = [_contracts_one_by_one(*fields) for fields in zip(nu, a, frame)]
    broken = next((e for e in expected if e is not None), None)
    if broken is None:
        geo.check_sample_contracts(nu, a, frame)
    else:
        with pytest.raises(ContractViolation, match=re.escape(broken)):
            geo.check_sample_contracts(nu, a, frame)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad, message", [
    ("form", "not symmetric"), ("frame", "not orthogonal"), ("inf", "not symmetric"),
    ("nan", "not symmetric")])
def test_one_bad_row_fails_the_stack(bad, message):
    nu = np.tile([1.0, 0.0, 0.0], (5, 1))
    a = np.tile(-np.eye(2), (5, 1, 1))
    frame = np.tile(np.eye(3)[1:], (5, 1, 1))
    geo.check_sample_contracts(nu, a, frame)
    # row 3 breaks one contract: <t_0, nu> != 0, A[0, 1] != A[1, 0], or A[0, 0]
    # is not finite (equal infinities pass np.allclose, not the contract)
    if bad == "frame":
        frame[3, 0, 0] = 0.5
    else:
        a[3, 0, int(bad == "form")] = {"form": 0.5, "inf": np.inf, "nan": np.nan}[bad]
    with pytest.raises(ContractViolation, match=re.escape(message)):
        geo.check_sample_contracts(nu, a, frame)
