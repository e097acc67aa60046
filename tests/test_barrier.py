import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from shrinkerlab import barrier as br
from shrinkerlab import domain as dm
from shrinkerlab import energy as en
from shrinkerlab import geometry as geo
from shrinkerlab.errors import ParameterError
from shrinkerlab.quadrature import halton, sphere_directions

# frozen from an independent Gauss-Kronrod quadrature of
# 1 / int_0^1 e^(t^2/2) (1+t)^-2 dt
PSI_PRIME_0 = 1.768689951312755


class TestPsi:
    def test_frozen_slope(self):
        res = br.build_psi(br.BarrierParams(R=1.0, a=1.0, m=2, z_norm=0.0))
        assert res.psi_prime_0 == pytest.approx(PSI_PRIME_0, abs=1e-9)
        assert res.rough_bound == pytest.approx(4.0)
        assert res.psi_prime_0 <= res.rough_bound

    def test_normalization_and_monotonicity(self):
        res = br.build_psi(br.BarrierParams(R=0.5, a=2.0, m=3, z_norm=1.0))
        assert res.psi(0.0) == 0.0
        assert abs(res.psi(2.0) - 1.0) <= 1e-10
        ds = np.linspace(0.0, 2.0, 21)
        vals = [res.psi(d) for d in ds]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("z", [0.0, 1.0, 5.0, 10.0])
    def test_rough_bound_tracks_exponential(self, z):
        res = br.build_psi(br.BarrierParams(R=1.0, a=1.0, m=2, z_norm=z))
        assert 0.0 < res.psi_prime_0 <= res.rough_bound

    def test_parameter_grid_bound(self):
        for R in (0.5, 1.0, 2.0):
            for a in (0.5, 1.0, 2.0):
                for m in (1, 2, 3):
                    for z in (0.0, 1.0, 5.0):
                        res = br.build_psi(br.BarrierParams(R=R, a=a, m=m, z_norm=z))
                        assert res.psi_prime_0 <= res.rough_bound * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(R=st.floats(0.25, 4.0), a=st.floats(0.1, 3.0), m=st.integers(1, 4),
           z=st.floats(0.0, 6.0))
    def test_table_matches_quadrature(self, R, a, m, z):
        res = br.build_psi(br.BarrierParams(R=R, a=a, m=m, z_norm=z))

        def g(t):
            return math.exp(0.5 * t * t - z * t) / (t + R) ** m

        def integral(d):
            return quad(g, 0.0, d, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        ds = np.linspace(0.0, a, 9)
        vals = res.psi(ds)
        np.testing.assert_allclose(vals, [integral(d) / integral(a) for d in ds],
                                   rtol=0.0, atol=1e-12)
        assert res.psi(0.0) == 0.0 and res.psi(a) == 1.0
        assert np.all(np.diff(vals) > 0.0)
        assert res.psi_prime_0 == res.psi.derivative(0.0)

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            br.BarrierParams(R=0.0, a=1.0, m=2)
        with pytest.raises(ParameterError):
            br.BarrierParams(R=1.0, a=-1.0, m=2)
        with pytest.raises(ParameterError):
            br.BarrierParams(R=1.0, a=1.0, m=0)


class TestSupersolution:
    def test_ode_profile_is_supersolution(self):
        v = br.supersolution_check(br.BarrierParams(R=1.0, a=1.0, m=2, z_norm=0.0), 300)
        assert v <= 1e-6

    def test_nonzero_tangency_norm(self):
        v = br.supersolution_check(br.BarrierParams(R=1.0, a=0.5, m=2, z_norm=2.0), 200)
        assert v <= 1e-6

    def test_linear_control_violates(self):
        v = br.supersolution_check(br.BarrierParams(R=1.0, a=1.0, m=2, z_norm=0.0),
                                   300, profile="linear")
        assert v > 0.0

    @pytest.mark.parametrize("R,a,m,z,samples", [(1.0, 1.0, 2, 0.0, 1000),
                                                  (1.0, 0.5, 2, 2.0, 200)])
    def test_matches_the_analytic_operator(self, R, a, m, z, samples):
        # on the shell Lap_f(psi o d) = -psi'(d) (|z| + R) (1 + nu_1), nu the unit
        # vector from the ball centre; the check samples the same Halton points
        params = br.BarrierParams(R=R, a=a, m=m, z_norm=z)
        psi = br.build_psi(params).psi
        d = (0.05 + 0.9 * halton(samples, 1)[:, 0]) * a
        nu = sphere_directions(samples, m + 1)
        exact = -np.array([psi.derivative(t) for t in d]) * (z + R) * (1.0 + nu[:, 0])
        assert br.supersolution_check(params, samples) == pytest.approx(exact.max(),
                                                                        abs=5e-5)

    def test_empty_sample_is_vacuous(self):
        with pytest.warns(RuntimeWarning, match="vacuous"):
            v = br.supersolution_check(br.BarrierParams(R=1.0, a=1.0, m=2), 0)
        assert v == 0.0


class TestGradientEstimate:
    def test_formula_values(self):
        assert br.estimate_gradient(0.0, 1.0, 1.0, 2) == pytest.approx(4.0)
        assert br.estimate_gradient(2.0, 1.0, 0.5, 2) == pytest.approx(
            8.0 * math.exp(2.0))
        z = np.array([0.0, 0.0, 2.0])
        assert br.estimate_gradient(z, 1.0, 0.5, 2) == pytest.approx(8 * math.exp(2))

    def test_guards(self):
        with pytest.raises(ParameterError):
            br.estimate_gradient(0.0, -1.0, 1.0, 2)
        with pytest.raises(ParameterError):
            br.estimate_gradient(0.0, 1.0, 0.0, 2)

    def test_annulus_boundary_gradient_respects_bound(self, annulus_grid_solution,
                                                      annulus_dom):
        mids, _, _ = en.interface_segments(annulus_grid_solution, "sigma2")
        kept, dudnu = en.normal_derivative(annulus_grid_solution, annulus_dom, "sigma2", mids)
        assert kept.all()
        bound = br.estimate_gradient(2.0, R=2.0, dist_to_sigma1=1.5, m=1)
        assert np.max(np.abs(dudnu)) <= bound


class TestLipschitzBarrier:
    def test_slab_is_clamped_height(self):
        dom = dm.slab_domain(0.0, 1.0, ambient_dim=2, radius=5.0)
        psi = br.lipschitz_barrier("positive-distance", dom)
        assert psi(np.array([0.7, 0.5])) == pytest.approx(0.5)
        assert psi(np.array([3.0, 0.0])) == 0.0
        assert psi(np.array([-2.0, 1.0])) == 1.0

    def test_annulus_projection_profile(self, annulus_dom):
        psi = br.lipschitz_barrier("projection", annulus_dom)
        for r in (0.5, 0.8, 1.25, 2.0):
            direction = np.array([math.cos(0.3), math.sin(0.3)])
            assert psi(r * direction) == pytest.approx(
                min(max((r - 0.5) / 1.5, 0.0), 1.0), abs=1e-12)

    def test_boundary_values_both_modes(self, annulus_dom):
        for mode in ("positive-distance", "projection"):
            psi = br.lipschitz_barrier(mode, annulus_dom)
            for th in np.linspace(0, 2 * math.pi, 9):
                p1 = 0.5 * np.array([math.cos(th), math.sin(th)])
                p2 = 2.0 * np.array([math.cos(th), math.sin(th)])
                assert psi(p1) == 0.0
                assert psi(p2) == 1.0

    def test_range_is_unit_interval(self, annulus_dom):
        psi = br.lipschitz_barrier("positive-distance", annulus_dom)
        pts = np.random.default_rng(3).uniform(-3, 3, size=(200, 2))
        vals = psi.batch(pts)
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_minimizer_domination(self, annulus_dom, radial_profile):
        psi = br.lipschitz_barrier("projection", annulus_dom)
        e_psi = en.energy_of_field(psi, annulus_dom, resolution=1 / 64)
        e_u = en.dirichlet_energy(radial_profile)
        assert e_u <= e_psi - 1e-4
        assert np.isfinite(e_psi)

    def test_zero_separation_rejected(self):
        degenerate = dm.DomainSpec(
            dm.OrientedBoundary(geo.Sphere(1, 1.0), side=+1),
            dm.OrientedBoundary(geo.Sphere(1, 1.0), side=-1),
            exhaustion_radius=3.0, ambient_dim=2)
        with pytest.raises(ParameterError, match="positive"):
            br.lipschitz_barrier("positive-distance", degenerate)

    def test_measured_lipschitz_slab(self):
        dom = dm.slab_domain(0.0, 1.0, ambient_dim=2, radius=5.0)
        psi = br.lipschitz_barrier("positive-distance", dom)
        lip = br.measured_lipschitz(psi, dom)
        assert lip == pytest.approx(1.0, rel=0.2)  # Psi = clamp(s) inside


class TestSeparation:
    def test_plane_vs_cylinder_passes(self):
        rep = br.separation_check(br.SeparationHypothesis(b=0.0),
                                  geo.Hyperplane(normal=(0, 0, 1.0)),
                                  geo.Cylinder(k=1, m=2),
                                  [2, 3, 4, 5, 6, 8])
        assert rep.passes
        # distance along the cylinder is the axial coordinate sqrt(s^2 - 1)
        z, ratio = rep.ratios[0]
        assert ratio == pytest.approx(math.sqrt(z * z - 1.0), rel=1e-6)

    def test_parallel_planes_pass(self):
        rep = br.separation_check(br.SeparationHypothesis(b=0.3),
                                  geo.Hyperplane(normal=(0, 0, 1.0)),
                                  geo.Hyperplane(normal=(0, 0, 1.0), offset=1.0),
                                  [2, 3, 4, 5, 6, 8])
        assert rep.passes

    def test_gaussian_graph_fails(self):
        rep = br.separation_check(
            br.SeparationHypothesis(b=0.4),
            geo.Hyperplane(normal=(0, 0, 1.0)),
            br.GraphSurface(height=lambda r: math.exp(-r * r), ambient_dim=3),
            [2, 3, 4, 5, 6, 8])
        assert not rep.passes

    def test_truncation_flag(self):
        rep = br.separation_check(br.SeparationHypothesis(b=0.0),
                                  geo.Hyperplane(normal=(0, 0, 1.0)),
                                  geo.Cylinder(k=1, m=2),
                                  [0.5, 2, 3, 4])
        assert rep.truncated

    def test_hypothesis_validation(self):
        with pytest.raises(ParameterError):
            br.SeparationHypothesis(b=0.6)
        with pytest.raises(ParameterError):
            br.SeparationHypothesis(b=-0.1)

    def test_empty_polynomial_is_rejected(self):
        # np.polyval reads () as p = 0, which would zero every ratio
        with pytest.raises(ParameterError, match="'poly_p'"):
            br.SeparationHypothesis(b=0.0, poly_p=())

    def test_csv(self):
        rep = br.separation_check(br.SeparationHypothesis(b=0.0),
                                  geo.Hyperplane(normal=(0, 0, 1.0)),
                                  geo.Cylinder(k=1, m=2), [2, 3, 4])
        assert rep.to_csv().splitlines()[0] == "z_norm,ratio"


@pytest.mark.parametrize("kwargs, message", [
    ({"R": math.nan}, "barrier radius R must be positive and finite, got nan"),
    ({"R": math.inf}, "barrier radius R must be positive and finite, got inf"),
    ({"a": math.nan}, "shell width a must be positive and finite, got nan"),
    ({"z_norm": math.nan}, "|z| must be nonnegative and finite, got nan"),
    ({"z_norm": -1.0}, "|z| must be nonnegative and finite, got -1.0"),
], ids=["nan-R", "inf-R", "nan-a", "nan-z", "negative-z"])
def test_barrier_params_name_a_nonfinite_value(kwargs, message):
    # a NaN R gave psi'(0) = nan and a nan supersolution violation, with no error
    with pytest.raises(ParameterError, match=re.escape(message)):
        br.BarrierParams(**{"R": 1.0, "a": 1.0, "m": 2, **kwargs})


@pytest.mark.parametrize("norms", [[0.0, 2.0], [math.nan, 2.0], [3.0, 2.0]])
def test_separation_norms_are_checked(norms):
    with pytest.raises(ParameterError, match="separation sample norms must be"):
        br.separation_check(br.SeparationHypothesis(b=0.0), geo.Hyperplane(normal=(0, 0, 1.0)),
                            geo.Cylinder(k=1, m=2), norms)
