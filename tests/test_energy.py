import math

import pytest

from shrinkerlab import domain as dm
from shrinkerlab import energy as en
from shrinkerlab import solver as sv
from shrinkerlab.errors import ParameterError

# frozen from an independent Gauss-Kronrod quadrature:
#   E_slab = (1/2) sqrt(2 pi) / int_{-1}^{1} e^(t^2/2) dt
#   E_radial = pi / int_{0.5}^{2} s^-1 e^(s^2/2) ds
E_SLAB = 0.5244178004231487
E_RADIAL = 0.9930054566120907
SLAB_GRAD_ON_SIGMA2 = 0.6898659773704978


def test_profile_energies_frozen(slab_profile, radial_profile):
    assert en.dirichlet_energy(slab_profile) == pytest.approx(E_SLAB, abs=1e-9)
    assert en.dirichlet_energy(radial_profile) == pytest.approx(E_RADIAL, abs=1e-9)


def test_constant_solution_has_zero_energy(annulus_dom):
    sol = sv.solve_mixed_bvp(annulus_dom, h=1 / 16, tol=1e-11,
                             boundary_values=(1.0, 1.0))
    assert en.dirichlet_energy(sol) == pytest.approx(0.0, abs=1e-16)


def test_grid_energy_converges_to_profile(annulus_dom, radial_profile):
    ref = en.dirichlet_energy(radial_profile)
    errs = []
    for h in (1 / 16, 1 / 32):
        sol = sv.solve_mixed_bvp(annulus_dom, h=h, tol=1e-11)
        errs.append(abs(en.dirichlet_energy(sol) - ref))
    assert math.log2(errs[0] / errs[1]) >= 0.9  # documented first order


class TestGrowthProfile:
    def test_slab_profile_decreasing(self, slab_profile):
        entries = en.energy_growth_profile(slab_profile, None, [2, 4, 8])
        vals = [e.value for e in entries]
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] < vals[0] / 4

    def test_saturated_radial_is_exact(self, radial_profile):
        total = 2.0 * en.dirichlet_energy(radial_profile)
        entries = en.energy_growth_profile(radial_profile, None, [3.0, 5.0])
        assert entries[0].value == pytest.approx(total / 9.0, rel=1e-9)
        assert entries[1].value == pytest.approx(total / 25.0, rel=1e-9)

    def test_zero_field_gives_zeros(self, annulus_dom):
        sol = sv.solve_mixed_bvp(annulus_dom, h=1 / 16, tol=1e-11,
                                 boundary_values=(0.0, 0.0))
        entries = en.energy_growth_profile(sol, annulus_dom, [1, 2])
        assert all(e.value == 0.0 for e in entries)

    def test_truncation_flag(self, annulus_grid_solution, annulus_dom):
        entries = en.energy_growth_profile(annulus_grid_solution, annulus_dom,
                                           [2.0, 10.0])
        assert not entries[0].truncated
        assert entries[1].truncated

    def test_eventually_monotone_tail(self, slab_grid_solution, slab_dom):
        entries = en.energy_growth_profile(slab_grid_solution, slab_dom,
                                           [1, 2, 3, 4, 4.8])
        tail = [e.value for e in entries[-3:]]
        assert tail[0] > tail[1] > tail[2]


class TestCaccioppoli:
    def test_profile_closed_forms(self, slab_profile, radial_profile):
        rep = en.caccioppoli_check(slab_profile, None)
        # for exact 1D solutions the energy equals the flux, so lhs = rhs/2
        assert rep.lhs == pytest.approx(rep.rhs / 2, rel=1e-9)
        assert rep.satisfied
        # flux = u'(1) e^{-1/2} sqrt(2 pi) with u'(1) = e^{1/2}/Z
        assert rep.boundary_flux == pytest.approx(
            SLAB_GRAD_ON_SIGMA2 * math.exp(-0.5) * math.sqrt(2 * math.pi), rel=1e-9)
        rep = en.caccioppoli_check(radial_profile, None)
        assert rep.satisfied
        assert rep.lhs == pytest.approx(2 * math.pi / 3.1637214404724365, rel=1e-9)

    def test_grid_benchmarks(self, slab_grid_solution, slab_dom,
                             annulus_grid_solution, annulus_dom):
        for sol, dom in ((slab_grid_solution, slab_dom),
                         (annulus_grid_solution, annulus_dom)):
            rep = en.caccioppoli_check(sol, dom)
            assert rep.satisfied
            assert rep.lhs <= rep.rhs * 1.05

    def test_degenerate_constant(self, annulus_dom):
        sol = sv.solve_mixed_bvp(annulus_dom, h=1 / 16, tol=1e-11,
                                 boundary_values=(1.0, 1.0))
        rep = en.caccioppoli_check(sol, annulus_dom)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.satisfied

    def test_needs_sigma2(self):
        ball = dm.ball_domain(1.0, ambient_dim=2)
        sol = sv.solve_slab(-1, 1)
        with pytest.raises(ParameterError):
            en.caccioppoli_check(sol, ball)

    def test_flux_positive(self, slab_grid_solution, slab_dom):
        rep = en.caccioppoli_check(slab_grid_solution, slab_dom)
        assert rep.boundary_flux > 0


def test_energy_report_serializes(slab_grid_solution, slab_dom):
    rep = en.energy_report(slab_grid_solution, slab_dom, [1, 2, 4])
    obj = rep.to_json()
    assert set(obj) >= {"total_energy", "growth_profile", "caccioppoli_lhs",
                        "caccioppoli_rhs", "boundary_flux", "tail_sup_estimate"}
    assert rep.growth_csv().splitlines()[0] == "R,value"


def test_batched_boundary_integral_matches_segment_loop(annulus_grid_solution, annulus_dom):
    # reference: one normal, two field reads and one integrand call per segment
    sol, ob, h = annulus_grid_solution, annulus_dom.sigma2, annulus_grid_solution.grid.h
    mids, lengths = en._interface_segments(sol, "sigma2")
    assert mids.shape == (lengths.size, 2) and lengths.size > 0
    total = 0.0
    for mid, length in zip(mids, lengths):
        if math.hypot(*mid) > sol.grid.radius - 3.0 * h:
            continue
        nu = ob.exterior_normal(mid)
        u1, u2 = sol.field(mid - h * nu), sol.field(mid - 2.0 * h * nu)
        if not (math.isnan(u1) or math.isnan(u2)):
            dudnu = (3.0 - 4.0 * u1 + u2) / (2.0 * h)
            total += ob.weighted_mean_curvature(mid) * dudnu ** 2 * math.exp(
                -0.5 * float(mid @ mid)) * length
    batched = en.marching_boundary_integral(
        sol, annulus_dom, "sigma2",
        lambda p, dudnu: ob.weighted_mean_curvature(p) * dudnu ** 2, boundary_value=1.0)
    assert batched == pytest.approx(total, rel=1e-12)
