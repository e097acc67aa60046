"""Weighted Dirichlet energy, growth profiles, and the Caccioppoli check.

Grid energies use a midpoint rule over cells whose corners are all inside the
classified region (documented first-order near the boundary).  Profile-backed
solutions have closed forms: u' = g / F(hi), so Green's identity gives the
energy (1/2) c / F(hi) and the flux c / F(hi), where c is the Gaussian mass
of the reduced directions, (2 pi)^((n-1)/2) for the slab and |S^(n-1)| for
the annulus.  The annulus energy inside B_R is c u(min(b, R)) / F(hi); the
slab's is one order-64 Gauss-Legendre rule in theta with s = R sin(theta).
Surface integrals on grids reconstruct the Dirichlet interface cell by cell
(marching squares) with a second-order one-sided normal stencil into the
domain.  scipy is imported where it is called: only the Gamma-function
measures `geometry.sphere_measure` and `gaussian_ball_mass` load
scipy.special.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import MissingGeometryError, ParameterError
from .geometry import sphere_measure
from .quadrature import gauss_legendre
from .solver import EXTERIOR, SlabProfile

__all__ = [
    "EnergyReport",
    "GrowthEntry",
    "CaccioppoliReport",
    "dirichlet_energy",
    "energy_growth_profile",
    "caccioppoli_check",
    "energy_report",
    "energy_of_field",
    "weighted_gradient_cells",
    "marching_boundary_integral",
]


def gaussian_ball_mass(d, radius):
    """int_{|t| <= radius, t in R^d} e^{-|t|^2/2} dt (d = 0 gives 1), for a
    scalar or an array of radii."""
    from scipy.special import gammainc

    if d == 0:
        return 1.0
    r = np.maximum(radius, 0.0)
    return (2.0 * math.pi) ** (d / 2.0) * gammainc(d / 2.0, 0.5 * r * r)


@dataclass
class GrowthEntry:
    R: float
    value: float
    truncated: bool = False


@dataclass
class CaccioppoliReport:
    lhs: float
    rhs: float
    satisfied: bool
    boundary_flux: float

    def to_json(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "satisfied": self.satisfied,
                "boundary_flux": self.boundary_flux}


@dataclass
class EnergyReport:
    total_energy: float
    growth_profile: list
    caccioppoli_lhs: float
    caccioppoli_rhs: float
    boundary_flux: float
    tail_sup_estimate: float = 0.0
    details: dict = dataclass_field(default_factory=dict)

    def to_json(self):
        return {
            "total_energy": self.total_energy,
            "growth_profile": [{"R": e.R, "value": e.value, "truncated": e.truncated}
                               for e in self.growth_profile],
            "caccioppoli_lhs": self.caccioppoli_lhs,
            "caccioppoli_rhs": self.caccioppoli_rhs,
            "boundary_flux": self.boundary_flux,
            "tail_sup_estimate": self.tail_sup_estimate,
            "details": self.details,
        }

    def growth_csv(self):
        lines = ["R,value"]
        lines += [f"{e.R!r},{e.value!r}" for e in self.growth_profile]
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# volume energies


def _reduced_mass(prof):
    """Gaussian mass c of the directions a profile does not depend on, so
    that the exact solution has int |grad u|^2 e^-f = c / F(hi)."""
    if isinstance(prof, SlabProfile):
        return (2.0 * math.pi) ** ((prof.ambient_dim - 1) / 2.0)
    return sphere_measure(prof.ambient_dim)


def _slab_ball_mass(prof, R):
    """int_{B_R} |grad u|^2 e^-f for a slab profile.

    The slice at height s is a tangential ball of radius sqrt(R^2 - s^2), and
    |u'(s)|^2 e^(-s^2/2) = g(s) / F(hi)^2; s = R sin(theta) turns the sqrt
    endpoint singularity into the smooth factor R cos(theta).
    """
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


def weighted_gradient_cells(solution):
    """Cell-midpoint data for grid solutions: centers and |grad u|^2 e^-f h^n.

    Only cells with every corner classified non-exterior contribute; this is
    the documented first-order treatment of the boundary band.
    """
    grid = solution.grid
    if grid is None:
        raise ParameterError("weighted_gradient_cells needs a grid-backed solution")
    V = solution.field.values
    n = V.ndim
    h = grid.h
    nonext = (grid.codes != EXTERIOR).reshape(grid.shape)

    cell_ok = None
    for corner in np.ndindex(*([2] * n)):
        sl = tuple(slice(c, s - 1 + c) for c, s in zip(corner, V.shape))
        piece = nonext[sl]
        cell_ok = piece.copy() if cell_ok is None else (cell_ok & piece)

    grad_sq = np.zeros([s - 1 for s in V.shape])
    for ax in range(n):
        d = np.diff(V, axis=ax) / h
        for other in range(n):
            if other == ax:
                continue
            sl0 = [slice(None)] * n
            sl1 = [slice(None)] * n
            sl0[other] = slice(0, -1)
            sl1[other] = slice(1, None)
            d = 0.5 * (d[tuple(sl0)] + d[tuple(sl1)])
        grad_sq = grad_sq + d * d

    centers = np.stack(np.meshgrid(
        *[0.5 * (ax_coords[:-1] + ax_coords[1:]) for ax_coords in grid.axes],
        indexing="ij"), axis=-1).reshape(-1, n)
    mask = cell_ok.reshape(-1)
    grad_sq = grad_sq.reshape(-1)[mask]
    centers = centers[mask]
    w = np.exp(-0.5 * np.sum(centers ** 2, axis=1)) * h ** n
    return centers, grad_sq * w


def dirichlet_energy(solution, domain=None):
    """Weighted energy (1/2) int |grad u|^2 e^-f over the solved region."""
    if solution.profile is not None:
        return 0.5 * _reduced_mass(solution.profile) / solution.profile.normalization
    _, cells = weighted_gradient_cells(solution)
    return 0.5 * float(np.sum(cells))


def energy_growth_profile(solution, domain, radii):
    """(1/R^2) times the weighted gradient mass inside each ball."""
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ParameterError("radii must be increasing")
    entries = []
    if solution.profile is not None:
        prof = solution.profile
        for R in radii:
            if isinstance(prof, SlabProfile):
                mass = _slab_ball_mass(prof, R)
            else:
                mass = (_reduced_mass(prof) * prof.value(min(prof.b, R))
                        / prof.normalization)
            entries.append(GrowthEntry(R=R, value=mass / (R * R)))
        return entries

    centers, cells = weighted_gradient_cells(solution)
    rad = np.linalg.norm(centers, axis=1)
    solved_reach = solution.grid.radius
    for R in radii:
        mass = float(np.sum(cells[rad <= R]))
        entries.append(GrowthEntry(R=R, value=mass / (R * R), truncated=R > solved_reach))
    return entries


# --------------------------------------------------------------------------
# boundary flux and the Caccioppoli inequality


def _interface_segments(solution, label):
    """Marching-squares reconstruction of a Dirichlet interface (2D grids).

    Returns the midpoints (M, 2) and lengths (M,) of the segments in the cut
    cells, in row-major cell order; saddle cells and segments whose midpoint
    lies beyond the exhaustion ball are dropped.
    """
    grid = solution.grid
    if grid.ndim != 2:
        raise MissingGeometryError(
            "grid surface reconstruction implemented for 2D grids; profile-backed "
            "solutions cover the higher-dimensional 1D reductions")
    d = grid.depths[label].reshape(grid.shape).copy()
    # nodes exactly on the surface count as the far side so that the crossing
    # lands on the node itself (aligned planes pass through lattice rows)
    d[np.abs(d) <= grid.snap] = -1e-30
    xs, ys = grid.axes
    flip_x = d[:-1, :] * d[1:, :] < 0
    flip_y = d[:, :-1] * d[:, 1:] < 0
    ci, cj = np.nonzero(flip_x[:, :-1] | flip_x[:, 1:] | flip_y[:-1, :] | flip_y[1:, :])
    crossings, points = [], []
    for (ai, aj), (bi, bj) in (((0, 0), (1, 0)), ((0, 1), (1, 1)),
                               ((0, 0), (0, 1)), ((1, 0), (1, 1))):
        da, db = d[ci + ai, cj + aj], d[ci + bi, cj + bj]
        crossings.append(da * db < 0)
        xa, ya = xs[ci + ai], ys[cj + aj]
        with np.errstate(divide="ignore", invalid="ignore"):  # edges without a crossing
            t = da / (da - db)
            points.append(np.stack([xa + t * (xs[ci + bi] - xa),
                                    ya + t * (ys[cj + bj] - ya)], axis=1))
    crossings, points = np.array(crossings), np.array(points)
    # two crossings per cell; saddles (four) are measure-zero for smooth interfaces
    two = crossings.sum(axis=0) == 2
    # boolean indexing is row-major, so each cell's two crossings stay in edge order
    sel = points.transpose(1, 0, 2)[two][crossings.T[two]].reshape(-1, 2, 2)
    p0, p1 = sel[:, 0], sel[:, 1]
    mids = 0.5 * (p0 + p1)
    keep = np.linalg.norm(mids, axis=1) <= grid.radius
    return mids[keep], np.linalg.norm(p1 - p0, axis=1)[keep]


def marching_boundary_integral(solution, domain, label, integrand, boundary_value):
    """Integrate `integrand(points, du/dnu)` over a Dirichlet piece with the
    surface Gaussian weight; du/dnu is a one-sided second-order stencil along
    the exterior normal.  The integrand maps (M, n) points and (M,) normal
    derivatives to (M,) values."""
    ob = dict(domain.pieces())[label]
    h = solution.grid.h
    mids, lengths = _interface_segments(solution, label)
    if mids.shape[0] == 0:
        raise ParameterError(f"boundary piece {label} has no reconstructed interface")
    # stay clear of the exhaustion sphere: stencils there would read mirrored
    # ghost values, and the surface Gaussian weight makes the collar negligible
    near = np.linalg.norm(mids, axis=1) <= solution.grid.radius - 3.0 * h
    nu = ob.exterior_normal(mids)
    u1 = solution.field.batch(mids - h * nu)
    u2 = solution.field.batch(mids - 2.0 * h * nu)
    ok = near & ~np.isnan(u1) & ~np.isnan(u2)
    mids, lengths = mids[ok], lengths[ok]
    dudnu = (3.0 * boundary_value - 4.0 * u1[ok] + u2[ok]) / (2.0 * h)
    weight = np.exp(-0.5 * np.sum(mids * mids, axis=1))
    return float(np.sum(integrand(mids, dudnu) * weight * lengths))


def boundary_flux(solution, domain):
    """int_{Sigma_2} |grad u| with the surface Gaussian weight."""
    if solution.profile is not None:
        return _reduced_mass(solution.profile) / solution.profile.normalization
    if domain is None or domain.sigma2 is None:
        raise ParameterError("boundary flux needs a domain with a sigma2 piece")
    return marching_boundary_integral(solution, domain, "sigma2",
                                      lambda p, dudnu: abs(dudnu), boundary_value=1.0)


def caccioppoli_check(solution, domain, slack=0.05):
    """Energy bounded by boundary flux: int |grad u|^2 <= 2 int_{Sigma_2} |grad u|.

    `satisfied` allows the stated discretization slack on the right side.
    """
    if domain is not None and domain.sigma2 is None:
        raise ParameterError("Caccioppoli check undefined without a sigma2 piece")
    lhs = 2.0 * dirichlet_energy(solution, domain)
    flux = boundary_flux(solution, domain)
    rhs = 2.0 * flux
    return CaccioppoliReport(lhs=lhs, rhs=rhs,
                             satisfied=bool(lhs <= rhs * (1.0 + slack)),
                             boundary_flux=flux)


def energy_report(solution, domain, radii):
    """Full energy bookkeeping for one solution."""
    entries = energy_growth_profile(solution, domain, radii)
    cac = caccioppoli_check(solution, domain)
    tail = max((e.value for e in entries[len(entries) // 2:]), default=0.0)
    return EnergyReport(
        total_energy=dirichlet_energy(solution, domain),
        growth_profile=entries,
        caccioppoli_lhs=cac.lhs,
        caccioppoli_rhs=cac.rhs,
        boundary_flux=cac.boundary_flux,
        tail_sup_estimate=tail,
        details={"note": "tail sup estimate over the listed radii only; "
                         "no claim about the true limsup"})


# --------------------------------------------------------------------------
# energies of plain fields (barrier competitors)


# cells of a box mesh, or Reilly boundary nodes, per streamed chunk
_CHUNK = 32_768


def box_cells(lo, hi, h):
    """Cells of step h covering the box [lo, hi]: their count per axis (the
    last cell of an axis may overhang hi) and in total."""
    counts = np.maximum(np.ceil((hi - lo) / h - 1e-12).astype(int), 1)
    return counts, int(np.prod(counts))


def cell_centres(lo, counts, h, start, stop):
    """Centres lo + (index + 1/2) h of the cells with flat C-order indices
    start .. stop - 1 of a box of `counts` cells per axis, as (m, n) rows."""
    flat = np.arange(start, min(stop, int(np.prod(counts))))
    index = np.unravel_index(flat, tuple(counts))
    return np.stack([lo[ax] + (index[ax] + 0.5) * h for ax in range(len(counts))], axis=1)


def energy_of_field(fld, domain, resolution=1 / 128, radius=None):
    """Midpoint-rule weighted energy of a scalar field over Omega.

    The gradient is a central difference at half the cell size, read through
    `fld.batch` on chunks of _CHUNK cell centres.
    """
    if radius is None:
        radius = min(domain.exhaustion_radius, 8.0)
    lo, hi = domain.grid_box(radius)
    h = float(resolution)
    counts, cells = box_cells(lo, hi, h)
    n = len(counts)
    delta = 0.5 * h
    total = 0.0
    for start in range(0, cells, _CHUNK):
        centers = cell_centres(lo, counts, h, start, start + _CHUNK)
        inside = np.linalg.norm(centers, axis=1) <= radius
        for _, ob in domain.pieces():
            inside &= np.asarray(ob.depth(centers)) > 0
        centers = centers[inside]
        grad_sq = np.zeros(centers.shape[0])
        for ax in range(n):
            e = np.zeros(n)
            e[ax] = delta
            grad_sq += ((fld.batch(centers + e) - fld.batch(centers - e)) / (2 * delta)) ** 2
        w = np.exp(-0.5 * np.sum(centers ** 2, axis=1))
        total += float(np.sum(grad_sq * w))
    return 0.5 * total * h ** n
