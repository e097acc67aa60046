"""Weighted Dirichlet energy, growth profiles, and the Caccioppoli check.

Grid energies use a midpoint rule over cells whose corners are all inside the
classified region (documented first-order near the boundary); profile-backed
solutions integrate their 1D reduction with adaptive quadrature and carry the
exact Gaussian mass of the reduced directions.  Surface integrals on grids
reconstruct the Dirichlet interface cell by cell (marching squares) with a
second-order one-sided normal stencil into the domain.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.special import erf, gammaln

from .errors import MissingGeometryError, ParameterError
from .quadrature import adaptive_simpson
from .solver import EXTERIOR, RadialProfile, SlabProfile

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


def sphere_measure(d):
    """Surface measure of the unit (d-1)-sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.exp(gammaln(d / 2.0))


def gaussian_ball_mass(d, radius):
    """int_{|t| <= radius, t in R^d} e^{-|t|^2/2} dt (d = 0 gives 1)."""
    if d == 0:
        return 1.0
    if radius <= 0:
        return 0.0
    if d == 1:
        return math.sqrt(2.0 * math.pi) * float(erf(radius / math.sqrt(2.0)))
    return sphere_measure(d) * adaptive_simpson(
        lambda r: r ** (d - 1) * math.exp(-0.5 * r * r), 0.0, radius, tol=1e-13)


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


def _profile_energy_density(solution):
    """(integrand, lo, hi) with integrand(s) = |u'|^2 * reduced weighted measure."""
    prof = solution.profile
    if isinstance(prof, SlabProfile):
        tangential = (2.0 * math.pi) ** ((prof.ambient_dim - 1) / 2.0)

        def density(s):
            return prof.derivative(s) ** 2 * math.exp(-0.5 * s * s) * tangential

        return density, prof.h1, prof.h2
    if isinstance(prof, RadialProfile):
        omega = sphere_measure(prof.ambient_dim)

        def density(r):
            return (prof.derivative(r) ** 2 * math.exp(-0.5 * r * r)
                    * omega * r ** (prof.ambient_dim - 1))

        return density, prof.a, prof.b
    raise ParameterError(f"unknown profile type {type(prof).__name__}")


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
        density, lo, hi = _profile_energy_density(solution)
        return 0.5 * adaptive_simpson(density, lo, hi, tol=1e-12)
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
                lo = max(prof.h1, -R)
                hi = min(prof.h2, R)
                if lo >= hi:
                    mass = 0.0
                else:
                    d_tan = prof.ambient_dim - 1

                    def density(s):
                        reach = math.sqrt(max(R * R - s * s, 0.0))
                        return (prof.derivative(s) ** 2 * math.exp(-0.5 * s * s)
                                * gaussian_ball_mass(d_tan, reach))

                    mass = adaptive_simpson(density, lo, hi, tol=1e-12)
            else:
                omega = sphere_measure(prof.ambient_dim)
                hi = min(prof.b, R)
                if hi <= prof.a:
                    mass = 0.0
                else:
                    mass = omega * adaptive_simpson(
                        lambda r: (prof.derivative(r) ** 2 * math.exp(-0.5 * r * r)
                                   * r ** (prof.ambient_dim - 1)),
                        prof.a, hi, tol=1e-12)
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

    Yields (midpoint, length) per cut cell; points beyond the exhaustion ball
    are dropped.
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
    segs = []
    sign = np.sign(d)
    flip_x = sign[:-1, :] * sign[1:, :] < 0
    flip_y = sign[:, :-1] * sign[:, 1:] < 0
    cut_cells = (flip_x[:, :-1] | flip_x[:, 1:] | flip_y[:-1, :] | flip_y[1:, :])
    for i, j in zip(*np.nonzero(cut_cells)):
        pts = []
        corners = {(0, 0): d[i, j], (1, 0): d[i + 1, j],
                   (0, 1): d[i, j + 1], (1, 1): d[i + 1, j + 1]}
        edges = (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 0), (0, 1)), ((1, 0), (1, 1)))
        for a, b in edges:
            da, db = corners[a], corners[b]
            if da == db or da * db > 0:
                continue
            t = da / (da - db)
            px = xs[i + a[0]] + t * (xs[i + b[0]] - xs[i + a[0]])
            py = ys[j + a[1]] + t * (ys[j + b[1]] - ys[j + a[1]])
            pts.append((px, py))
        if len(pts) != 2:
            continue  # degenerate or saddle cell; measure-zero for smooth interfaces
        p0, p1 = np.array(pts[0]), np.array(pts[1])
        mid = 0.5 * (p0 + p1)
        if np.linalg.norm(mid) > grid.radius:
            continue
        segs.append((mid, float(np.linalg.norm(p1 - p0))))
    return segs


def marching_boundary_integral(solution, domain, label, integrand, boundary_value):
    """Integrate `integrand(point, du/dnu)` over a Dirichlet piece with the
    surface Gaussian weight; du/dnu is a one-sided second-order stencil along
    the exterior normal."""
    ob = dict(domain.pieces())[label]
    grid = solution.grid
    h = grid.h
    total = 0.0
    segs = _interface_segments(solution, label)
    if not segs:
        raise ParameterError(f"boundary piece {label} has no reconstructed interface")
    # stay clear of the exhaustion sphere: stencils there would read mirrored
    # ghost values, and the surface Gaussian weight makes the collar negligible
    reach = grid.radius - 3.0 * h
    for mid, length in segs:
        if np.linalg.norm(mid) > reach:
            continue
        nu = ob.exterior_normal(mid)
        u1 = solution.field(mid - h * nu)
        u2 = solution.field(mid - 2.0 * h * nu)
        if math.isnan(u1) or math.isnan(u2):
            continue
        dudnu = (3.0 * boundary_value - 4.0 * u1 + u2) / (2.0 * h)
        weight = math.exp(-0.5 * float(np.dot(mid, mid)))
        total += integrand(mid, dudnu) * weight * length
    return total


def boundary_flux(solution, domain):
    """int_{Sigma_2} |grad u| with the surface Gaussian weight."""
    if solution.profile is not None:
        prof = solution.profile
        if isinstance(prof, SlabProfile):
            tangential = (2.0 * math.pi) ** ((prof.ambient_dim - 1) / 2.0)
            return prof.derivative(prof.h2) * math.exp(-0.5 * prof.h2 ** 2) * tangential
        omega = sphere_measure(prof.ambient_dim)
        return (prof.derivative(prof.b) * math.exp(-0.5 * prof.b ** 2)
                * omega * prof.b ** (prof.ambient_dim - 1))
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


def energy_of_field(fld, domain, resolution=1 / 128, radius=None, batch_eval=None):
    """Midpoint-rule weighted energy of a callable field over Omega.

    The gradient is a central difference at half the cell size.  `batch_eval`
    may supply a vectorized evaluator mapping (N, n) arrays to (N,) values;
    otherwise the field is called pointwise (slow for fine resolutions).
    """
    if radius is None:
        radius = min(domain.exhaustion_radius, 8.0)
    lo, hi = domain.grid_box(radius)
    h = float(resolution)
    counts = np.maximum(np.ceil((hi - lo) / h).astype(int), 1)
    axes = [lo[ax] + (np.arange(counts[ax]) + 0.5) * h for ax in range(len(counts))]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(counts))

    inside = np.ones(centers.shape[0], dtype=bool)
    for _, ob in domain.pieces():
        inside &= np.asarray(ob.depth(centers)) > 0
    inside &= np.linalg.norm(centers, axis=1) <= radius
    centers = centers[inside]

    if batch_eval is None:
        batch_eval = getattr(fld, "batch_eval", None)
    if batch_eval is None:
        def batch_eval(pts):
            return np.array([fld(p) for p in pts])

    delta = 0.5 * h
    grad_sq = np.zeros(centers.shape[0])
    for ax in range(centers.shape[1]):
        e = np.zeros(centers.shape[1])
        e[ax] = delta
        grad_sq += ((batch_eval(centers + e) - batch_eval(centers - e)) / (2 * delta)) ** 2
    w = np.exp(-0.5 * np.sum(centers ** 2, axis=1))
    return 0.5 * float(np.sum(grad_sq * w)) * h ** centers.shape[1]
