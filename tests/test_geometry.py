import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shrinkerlab import geometry as geo
from shrinkerlab.errors import ContractViolation, ParameterError


def test_signed_distance_examples():
    assert geo.Cylinder(k=1, m=2).signed_distance([2, 0, 5]) == pytest.approx(1.0)
    assert geo.Sphere(m=2).signed_distance([0, 0, 0]) == pytest.approx(-math.sqrt(2))
    assert geo.Hyperplane(normal=(0, 0, 1.0)).signed_distance(
        [7, -1, 0.25]) == pytest.approx(0.25)


def test_cylinder_on_axis_is_flagged():
    cyl = geo.Cylinder(k=1, m=2)
    with pytest.warns(RuntimeWarning, match="axis"):
        assert cyl.signed_distance([0, 0, 3.0]) == pytest.approx(-1.0)


def test_inside_outside_sign_convention():
    cyl = geo.Cylinder(k=1, m=2)
    assert cyl.signed_distance([0.3, 0.2, -4.0]) < 0
    assert cyl.signed_distance([1.5, 0.0, 2.0]) > 0
    sph = geo.Sphere(m=2)
    assert sph.signed_distance([0.5, 0.5, 0.5]) < 0
    assert sph.signed_distance([2.0, 0, 0]) > 0


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


@pytest.mark.parametrize("model", [geo.Sphere(m=2), geo.Cylinder(k=1, m=2),
                                   geo.Hyperplane(normal=(0, 0, 1.0))],
                         ids=["sphere", "cylinder", "plane"])
def test_distance_gradient_is_unit(model, quasi_points):
    h = 1e-5
    for p in quasi_points[3]:
        if isinstance(model, geo.Cylinder) and np.linalg.norm(p[:2]) < 0.3:
            continue  # near the singular axis
        if isinstance(model, geo.Sphere) and np.linalg.norm(p) < 0.3:
            continue
        g = np.array([
            (model.signed_distance(p + h * e) - model.signed_distance(p - h * e))
            / (2 * h)
            for e in np.eye(3)])
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-6)


class TestCylinderIdentities:
    def test_on_cylinder(self):
        cyl = geo.Cylinder(k=1, m=2)
        rep = geo.cylinder_identities(1, cyl.sample([1, 0], [3.0]))
        assert rep.u == pytest.approx(1.0)
        assert abs(rep.grad_id_residual) < 1e-6
        assert abs(rep.laplu_residual) < 1e-6

    def test_on_plane_hand_values(self):
        # u = x1^2 + x2^2 at (2,0,0) on {x3=0}: u=4, both identities exact
        pl = geo.Hyperplane(normal=(0, 0, 1.0))
        rep = geo.cylinder_identities(1, pl.sample([2.0, 0, 0]))
        assert rep.u == pytest.approx(4.0)
        assert abs(rep.grad_id_residual) < 1e-6
        assert abs(rep.laplu_residual) < 1e-6

    def test_on_sphere_symbolic_oracle(self):
        # on S^2_sqrt2 at (sqrt2,0,0): u = 2, and the symbolic surface
        # computation gives (1/2) Lap_f u = -1 = k+1-|Nbar|^2-u
        sph = geo.Sphere(m=2)
        rep = geo.cylinder_identities(1, sph.sample([1.0, 0, 0]))
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
        pl = geo.Hyperplane(normal=(1.0, 0, 0))
        rep = geo.cylinder_identities(1, pl.sample([0.0, 0.0, 0.0]))
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

    def test_parameter_errors(self):
        pl = geo.Hyperplane(normal=(0, 0, 1.0))
        with pytest.raises(ParameterError):
            geo.extrinsic_volume_growth(pl, [2, 3])
        with pytest.raises(ParameterError):
            geo.extrinsic_volume_growth(pl, [3, 2, 4])
        with pytest.raises(ParameterError):
            geo.extrinsic_volume_growth(geo.Sphere(m=2), [1.0, 2, 3])

    def test_csv(self):
        res = geo.extrinsic_volume_growth(geo.Sphere(m=2), [2, 3, 4])
        lines = res.to_csv().splitlines()
        assert lines[0] == "R,area"
        assert len(lines) == 4


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
        assert np.max(shape.distance(pts)) <= 1e-12
        return
    assert np.max(np.abs(shape.raw_signed(pts))) <= 1e-12
    np.testing.assert_allclose(np.array([s.normal for s in samples]),
                               shape.raw_normal(pts), rtol=0, atol=1e-12)
