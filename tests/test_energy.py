import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from shrinkerlab import domain as dm
from shrinkerlab import energy as en
from shrinkerlab import reilly as rl
from shrinkerlab import solver as sv
from shrinkerlab.errors import ParameterError
from shrinkerlab.fields import ScalarField
from shrinkerlab.geometry import gaussian_ball_mass, sphere_measure
from shrinkerlab.quadrature import gauss_legendre

# frozen from an independent Gauss-Kronrod quadrature:
#   E_slab = (1/2) sqrt(2 pi) / int_{-1}^{1} e^(t^2/2) dt
#   E_radial = pi / int_{0.5}^{2} s^-1 e^(s^2/2) ds
E_SLAB = 0.5244178004231487
E_RADIAL = 0.9930054566120907
SLAB_GRAD_ON_SIGMA2 = 0.6898659773704978


def test_profile_energies_frozen(slab_profile, radial_profile):
    assert en.dirichlet_energy(slab_profile) == pytest.approx(E_SLAB, abs=1e-9)
    assert en.dirichlet_energy(radial_profile) == pytest.approx(E_RADIAL, abs=1e-9)


@pytest.mark.parametrize("reader, read", [
    ("max_node_error", lambda sol, dom: sv.max_node_error(sol, sol.profile)),
    ("interface_segments", lambda sol, dom: en.interface_segments(sol, "sigma2")),
    ("normal_derivative", lambda sol, dom: en.normal_derivative(sol, dom, "sigma2",
                                                                np.array([[0.0, 1.0]]))),
    ("weighted_gradient_cells", lambda sol, dom: en.weighted_gradient_cells(sol)),
    ("energy_growth_chain", lambda sol, dom: rl.energy_growth_chain(sol, dom, [1.0, 2.0])),
])
def test_grid_only_readers_reject_a_profile_backed_solution(slab_profile, slab_dom, reader,
                                                            read):
    # a profile-backed solution carries no grid: each reader names itself
    with pytest.raises(ParameterError, match=f"^{reader} needs a grid-backed solution$"):
        read(slab_profile, slab_dom)


def test_constant_solution_has_zero_energy(annulus_dom, constant_solution):
    sol = constant_solution(annulus_dom, 1.0)
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
        entries = en.energy_growth_profile(slab_profile, [2, 4, 8])
        vals = [e.value for e in entries]
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] < vals[0] / 4

    def test_saturated_radial_is_exact(self, radial_profile):
        total = 2.0 * en.dirichlet_energy(radial_profile)
        entries = en.energy_growth_profile(radial_profile, [3.0, 5.0])
        assert entries[0].value == pytest.approx(total / 9.0, rel=1e-9)
        assert entries[1].value == pytest.approx(total / 25.0, rel=1e-9)

    def test_zero_field_gives_zeros(self, annulus_dom, constant_solution):
        sol = constant_solution(annulus_dom, 0.0)
        entries = en.energy_growth_profile(sol, [1, 2])
        assert all(e.value == 0.0 for e in entries)

    def test_truncation_flag(self, annulus_grid_solution):
        entries = en.energy_growth_profile(annulus_grid_solution, [2.0, 10.0])
        assert not entries[0].truncated
        assert entries[1].truncated

    def test_eventually_monotone_tail(self, slab_grid_solution):
        entries = en.energy_growth_profile(slab_grid_solution, [1, 2, 3, 4, 4.8])
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

    def test_degenerate_constant(self, annulus_dom, constant_solution):
        sol = constant_solution(annulus_dom, 1.0)
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
    obj = dataclasses.asdict(rep)
    assert set(obj) >= {"total_energy", "growth_profile", "caccioppoli_lhs",
                        "caccioppoli_rhs", "boundary_flux", "tail_sup_estimate"}


def test_energy_report_makes_two_cell_passes(slab_grid_solution, slab_dom, monkeypatch):
    # one for the growth profile, one for the Caccioppoli side, whose half
    # is the total energy bit for bit
    energy = en.dirichlet_energy(slab_grid_solution)
    passes = []
    cells = en.weighted_gradient_cells

    def counted(solution):
        passes.append(solution)
        return cells(solution)

    monkeypatch.setattr(en, "weighted_gradient_cells", counted)
    rep = en.energy_report(slab_grid_solution, slab_dom, [1, 2, 4])
    assert len(passes) == 2
    assert rep.total_energy.hex() == energy.hex()


def test_batched_boundary_integral_matches_segment_loop(annulus_grid_solution, annulus_dom):
    # reference for the flux: one normal and two field reads per segment
    sol, ob, h = annulus_grid_solution, annulus_dom.sigma2, annulus_grid_solution.grid.h
    mids, lengths, _ = en.interface_segments(sol, "sigma2")
    assert mids.shape == (lengths.size, 2) and lengths.size > 0
    total = 0.0
    for mid, length in zip(mids, lengths):
        if math.hypot(*mid) > sol.grid.radius - 3.0 * h:
            continue
        nu = ob.exterior_normal(mid)
        u1, u2 = sol.field(mid - h * nu), sol.field(mid - 2.0 * h * nu)
        if not (math.isnan(u1) or math.isnan(u2)):
            dudnu = (3.0 - 4.0 * u1 + u2) / (2.0 * h)
            total += abs(dudnu) * math.exp(-0.5 * float(mid @ mid)) * length
    assert en.boundary_flux(sol, annulus_dom)[0] == pytest.approx(total, rel=1e-12)


# --------------------------------------------------------------------------
# closed forms against independent scipy quadrature

def _quad(f, lo, hi):
    return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] if lo < hi else 0.0


def _ball_mass_reference(d, r):
    if d == 0:
        return 1.0
    omega = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return omega * _quad(lambda rho: rho ** (d - 1) * math.exp(-0.5 * rho * rho), 0.0, r)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_gaussian_ball_mass_matches_quadrature(d):
    for r in (0.0, 0.3, 1.0, 2.5, 6.0):
        assert gaussian_ball_mass(d, r) == pytest.approx(_ball_mass_reference(d, r),
                                                            rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("h1,h2", [(-0.5, 1.5), (0.5, 2.0)])
def test_slab_growth_matches_quadrature(n, h1, h2):
    # R below both |h1| and h2, between them, and beyond both
    radii = [0.3, 1.0, 3.0]
    norm = _quad(lambda t: math.exp(0.5 * t * t), h1, h2)
    entries = en.energy_growth_profile(sv.solve_slab(h1, h2, ambient_dim=n), radii)
    for R, entry in zip(radii, entries):
        # |u'(s)|^2 e^(-s^2/2) = e^(s^2/2) / F^2 on the slice of height s
        mass = _quad(lambda s: math.exp(0.5 * s * s)
                     * _ball_mass_reference(n - 1, math.sqrt(max(R * R - s * s, 0.0))),
                     max(h1, -R), min(h2, R)) / norm ** 2
        assert entry.value == pytest.approx(mass / (R * R), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_radial_growth_matches_quadrature(n):
    a, b = 0.5, 2.0
    radii = [0.3, 1.2, 3.0]   # R < a, a < R < b, R > b
    g = lambda r: r ** (1 - n) * math.exp(0.5 * r * r)
    norm = _quad(g, a, b)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    entries = en.energy_growth_profile(sv.solve_radial(a, b, n), radii)
    for R, entry in zip(radii, entries):
        mass = omega * _quad(g, a, min(b, R)) / norm ** 2
        assert entry.value == pytest.approx(mass / (R * R), rel=1e-12, abs=0.0)


def _reference_reduced_mass(prof):
    if isinstance(prof, sv.SlabProfile):
        return (2.0 * math.pi) ** ((prof.ambient_dim - 1) / 2.0)
    return sphere_measure(prof.ambient_dim)


def _reference_ball_mass(prof, R):
    """int_{B_R} |grad u|^2 e^-f written out apart from the profile classes,
    in the same floating-point order."""
    if isinstance(prof, sv.RadialProfile):
        return _reference_reduced_mass(prof) * prof.value(min(prof.b, R)) / prof.normalization
    lo, hi = max(prof.h1, -R), min(prof.h2, R)
    if lo >= hi:
        return 0.0
    t0, t1 = math.asin(lo / R), math.asin(hi / R)
    x, w = gauss_legendre(64)
    theta = t0 + (t1 - t0) * x
    reach = R * np.cos(theta)
    dens = (prof.density(R * np.sin(theta))
            * gaussian_ball_mass(prof.ambient_dim - 1, reach) * reach)
    return (t1 - t0) * float(np.dot(w, dens)) / prof.normalization ** 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_profile_integrals_match_the_reference_formulas_bit_for_bit(n):
    profiles = [sv.SlabProfile(-0.5, 1.5, n), sv.SlabProfile(0.5, 2.0, n, axis=0),
                sv.RadialProfile(0.5, 2.0, n)]
    # R below, between and beyond the pieces of each profile
    for prof in profiles:
        assert prof.reduced_mass == _reference_reduced_mass(prof)
        for R in (0.3, 0.7, 1.2, 3.0):
            assert prof.ball_mass(R) == _reference_ball_mass(prof, R)
    # the profile energy and flux read the same constant
    sol = sv.solve_radial(0.5, 2.0, n)
    c = _reference_reduced_mass(sol.profile)
    assert en.dirichlet_energy(sol) == 0.5 * c / sol.profile.normalization
    assert en.boundary_flux(sol, None) == (c / sol.profile.normalization, 0)


@pytest.mark.parametrize("radii, message", [
    ([0.0, 1.0], "energy growth radii must be positive and finite, got 0.0"),
    ([-1.0, 1.0], "energy growth radii must be positive and finite, got -1.0"),
    ([math.nan], "energy growth radii must be positive and finite, got nan"),
    ([2.0, 1.0], "energy growth radii must be strictly increasing, got [2.0, 1.0]"),
], ids=["zero", "negative", "nan", "decreasing"])
def test_growth_radii_are_checked(slab_grid_solution, radii, message):
    # R = 0 raised ZeroDivisionError; R = -1 and NaN were accepted
    with pytest.raises(ParameterError, match=re.escape(message)):
        en.energy_growth_profile(slab_grid_solution, radii)


@pytest.mark.parametrize("keywords, message", [
    ({"resolution": 0}, "energy resolution must be positive and finite, got 0"),
    ({"resolution": -1 / 64}, "energy resolution must be positive and finite, got -0.015625"),
    ({"resolution": math.nan}, "energy resolution must be positive and finite, got nan"),
    ({"resolution": math.inf}, "energy resolution must be positive and finite, got inf"),
    ({"radius": 0}, "energy radius must be positive and finite, got 0"),
    ({"radius": -1}, "energy radius must be positive and finite, got -1"),
    ({"radius": math.nan}, "energy radius must be positive and finite, got nan"),
], ids=["zero-resolution", "negative-resolution", "nan-resolution", "inf-resolution",
        "zero-radius", "negative-radius", "nan-radius"])
def test_energy_of_field_checks_its_scalars(slab_dom, keywords, message):
    # each of these returned 0.0 or NaN without a word
    fld = ScalarField(lambda x: x[0], batch_evaluator=lambda P: P[:, 0])
    with pytest.raises(ParameterError, match=re.escape(message)):
        en.energy_of_field(fld, slab_dom, **keywords)


@pytest.mark.parametrize("counts", [(7,), (5, 9), (3, 4, 6), (40, 50, 60)])
def test_cell_centres_match_unravel_index(counts):
    # the divmod index block gives the unravel_index centres bit for bit,
    # on index ranges that start and stop inside a row
    counts = np.array(counts)
    lo = -np.arange(1.0, counts.size + 1.0) / 3.0
    h = 1 / 64
    cells = int(np.prod(counts))
    for start, stop in ((0, cells), (1, 2), (cells // 3, cells // 3 + 1001), (cells - 5, cells + 7)):
        flat = np.arange(start, min(stop, cells))
        index = np.unravel_index(flat, tuple(counts))
        expected = np.stack([lo[ax] + (index[ax] + 0.5) * h for ax in range(counts.size)], axis=1)
        got = en.cell_centres(lo, counts, h, flat)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)


def test_gradient_cells_equal_the_corner_rule(classified_solution):
    # the former rule: a cell counts when each of its 2^n corners is solved
    # or a Dirichlet node, found by a loop over the corners
    _, sol, (solved, _, dirichlet) = classified_solution
    grid, V = sol.grid, sol.field.values
    known = solved | dirichlet
    n, h = V.ndim, grid.h
    kept = np.ones([s - 1 for s in V.shape], dtype=bool)
    for corner in itertools.product((0, 1), repeat=n):
        kept &= known[tuple(slice(c, s - 1 + c) for c, s in zip(corner, V.shape))]
    grad_sq = 0.0
    for ax in range(n):
        d = np.diff(V, axis=ax) / h
        for other in range(n):
            if other != ax:
                d = 0.5 * (np.delete(d, -1, axis=other) + np.delete(d, 0, axis=other))
        grad_sq = grad_sq + d * d
    index = np.nonzero(kept)
    centres = np.stack([(0.5 * (c[:-1] + c[1:]))[i] for c, i in zip(grid.axes, index)], axis=1)
    weighted = grad_sq[index] * (np.exp(-0.5 * np.sum(centres ** 2, axis=1)) * h ** n)
    got_centres, got = en.weighted_gradient_cells(sol)
    assert got_centres.tobytes() == centres.tobytes()
    assert got.tobytes() == weighted.tobytes()
    assert np.all(np.isfinite(got)) and got.size > 0


def _saddle_cells(grid, label):
    """Cells whose four corners alternate in sign around the cell, a node
    within the snap distance of the surface counting as the far side."""
    beyond = (grid.depths[label] > grid.snap).reshape(grid.shape)
    a, b = beyond[:-1, :-1], beyond[1:, :-1]
    c, d = beyond[1:, 1:], beyond[:-1, 1:]
    return int(np.count_nonzero((a == c) & (b == d) & (a != b)))


def test_reports_count_the_dropped_saddle_cells(annulus_dom, annulus_grid_solution,
                                                constant_solution):
    # the annulus interface has no saddle; two crossing lines make one
    sol = annulus_grid_solution
    assert en.caccioppoli_check(sol, annulus_dom).dropped_saddle_cells == 0
    assert _saddle_cells(sol.grid, "sigma2") == 0
    crossed = constant_solution(annulus_dom, 0.5)
    grid = crossed.grid
    x, y = np.meshgrid(*grid.axes, indexing="ij")
    grid.depths["sigma2"] = ((x - 0.3 * grid.h) * (y - 1.7 * grid.h)).reshape(-1)
    mids, lengths, saddles = en.interface_segments(crossed, "sigma2")
    assert saddles == _saddle_cells(grid, "sigma2") == 1
    assert mids.shape == (lengths.size, 2)
    assert en.caccioppoli_check(crossed, annulus_dom).dropped_saddle_cells == 1
    rep = en.energy_report(crossed, annulus_dom, [1, 2])
    assert rep.details["dropped_saddle_cells"] == 1
    assert en.caccioppoli_check(sv.solve_radial(0.5, 2, 2), None).dropped_saddle_cells == 0
