"""Weighted Dirichlet energy, growth profiles, and the Caccioppoli check.

Grid energies use a midpoint rule over cells whose corners are all inside the
classified region (documented first-order near the boundary).  Profile-backed
solutions read their closed forms off the profile (see `solver`): the energy
(1/2) c / F(hi) and the flux c / F(hi) from its `reduced_mass` c and
`normalization` F(hi), the mass inside B_R from its `ball_mass`.
On grids du/dnu is one second-order one-sided stencil, `normal_derivative`,
at any boundary points: the flux takes them on the marching-squares
interface (2D grids), `reilly.energy_growth_chain` at the pieces' exact
quadrature nodes.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import MissingGeometryError, ParameterError, require_radii
from .solver import DIRICHLET_DATA, EXTERIOR

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
    "interface_segments",
    "normal_derivative",
]


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
    dropped_saddle_cells: int = 0


@dataclass
class EnergyReport:
    total_energy: float
    growth_profile: list
    caccioppoli_lhs: float
    caccioppoli_rhs: float
    boundary_flux: float
    tail_sup_estimate: float = 0.0
    details: dict = dataclass_field(default_factory=dict)

    def growth_csv(self):
        lines = ["R,value"]
        lines += [f"{e.R!r},{e.value!r}" for e in self.growth_profile]
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# volume energies


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

    # |grad u|^2 at the cell centres, each axis's difference averaged over
    # the other axes; built in place, which rounds as 0 + d_0^2 + d_1^2 ...
    grad_sq = None
    for ax in range(n):
        d = np.diff(V, axis=ax)
        d /= h
        for other in range(n):
            if other == ax:
                continue
            sl0 = [slice(None)] * n
            sl1 = [slice(None)] * n
            sl0[other] = slice(0, -1)
            sl1[other] = slice(1, None)
            d = d[tuple(sl0)] + d[tuple(sl1)]
            d *= 0.5
        d *= d
        if grad_sq is None:
            grad_sq = d
        else:
            grad_sq += d

    # the kept cells' centres, axis by axis, and |centre|^2 summed over the
    # columns in axis order, as np.sum(centers ** 2, axis=1) sums them
    mask = cell_ok.reshape(-1)
    grad_sq = grad_sq.reshape(-1)[mask]
    centers = np.empty((grad_sq.size, n))
    sq = np.zeros(grad_sq.size)
    for ax, i in enumerate(np.unravel_index(np.flatnonzero(mask), cell_ok.shape)):
        coords = grid.axes[ax]
        c = (0.5 * (coords[:-1] + coords[1:]))[i]
        centers[:, ax] = c
        c *= c
        sq += c
    w = np.exp(-0.5 * sq) * h ** n
    return centers, grad_sq * w


def dirichlet_energy(solution):
    """Weighted energy (1/2) int |grad u|^2 e^-f over the solved region."""
    prof = solution.profile
    if prof is not None:
        return 0.5 * prof.reduced_mass / prof.normalization
    _, cells = weighted_gradient_cells(solution)
    return 0.5 * float(np.sum(cells))


def energy_growth_profile(solution, radii):
    """(1/R^2) times the weighted gradient mass inside each ball."""
    radii = require_radii(radii, "energy growth radii")
    prof = solution.profile
    if prof is not None:
        return [GrowthEntry(R=R, value=prof.ball_mass(R) / (R * R)) for R in radii]

    entries = []
    centers, cells = weighted_gradient_cells(solution)
    rad = np.linalg.norm(centers, axis=1)
    solved_reach = solution.grid.radius
    for R in radii:
        mass = float(np.sum(cells[rad <= R]))
        entries.append(GrowthEntry(R=R, value=mass / (R * R), truncated=R > solved_reach))
    return entries


# --------------------------------------------------------------------------
# boundary flux and the Caccioppoli inequality


def interface_segments(solution, label):
    """Marching-squares reconstruction of a Dirichlet interface (2D grids).

    Returns the midpoints (M, 2) and lengths (M,) of the segments in the cut
    cells, in row-major cell order, and the number of saddle cells (a
    crossing on all four edges), which are dropped, as are segments whose
    midpoint lies beyond the exhaustion ball.
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
    return mids[keep], np.linalg.norm(p1 - p0, axis=1)[keep], int(np.count_nonzero(~two))


def normal_derivative(solution, domain, label, points):
    """(kept, du/dnu) at (M, n) points of the piece `label` of a grid
    solution: (3 u_b - 4 u(x - h nu) + u(x - 2h nu)) / 2h along the exterior
    normal, u_b the piece's `solver.DIRICHLET_DATA`.  The (M,) mask `kept`
    drops stencils that read an unsolved (NaN) node and points within 3h of
    the exhaustion sphere (mirrored ghost values; the Gaussian weight makes
    that collar negligible); du/dnu is given at the kept points."""
    h = solution.grid.h
    nu = dict(domain.pieces())[label].exterior_normal(points)
    u1 = solution.field.batch(points - h * nu)
    u2 = solution.field.batch(points - 2.0 * h * nu)
    ok = ((np.linalg.norm(points, axis=1) <= solution.grid.radius - 3.0 * h)
          & ~np.isnan(u1) & ~np.isnan(u2))
    return ok, (3.0 * DIRICHLET_DATA[label] - 4.0 * u1[ok] + u2[ok]) / (2.0 * h)


def boundary_flux(solution, domain):
    """(int_{Sigma_2} |grad u| with the surface Gaussian weight, the saddle
    cells that the interface drops on grids)."""
    prof = solution.profile
    if prof is not None:
        return prof.reduced_mass / prof.normalization, 0
    if domain is None or domain.sigma2 is None:
        raise ParameterError("boundary flux needs a domain with a sigma2 piece")
    mids, lengths, saddles = interface_segments(solution, "sigma2")
    if mids.shape[0] == 0:
        raise ParameterError("boundary piece sigma2 has no reconstructed interface")
    ok, dudnu = normal_derivative(solution, domain, "sigma2", mids)
    mids, lengths = mids[ok], lengths[ok]
    weight = np.exp(-0.5 * np.sum(mids * mids, axis=1))
    return float(np.sum(np.abs(dudnu) * weight * lengths)), saddles


CACCIOPPOLI_SLACK = 1.05


def caccioppoli_check(solution, domain):
    """Energy bounded by boundary flux: int |grad u|^2 <= 2 int_{Sigma_2} |grad u|.

    `satisfied` allows lhs up to CACCIOPPOLI_SLACK (1.05) times rhs; the
    report carries the saddle cells that the flux's interface drops.
    """
    if domain is not None and domain.sigma2 is None:
        raise ParameterError("Caccioppoli check undefined without a sigma2 piece")
    lhs = 2.0 * dirichlet_energy(solution)
    flux, saddles = boundary_flux(solution, domain)
    rhs = 2.0 * flux
    return CaccioppoliReport(lhs=lhs, rhs=rhs,
                             satisfied=bool(lhs <= rhs * CACCIOPPOLI_SLACK),
                             boundary_flux=flux, dropped_saddle_cells=saddles)


def energy_report(solution, domain, radii):
    """Full energy bookkeeping for one solution."""
    entries = energy_growth_profile(solution, radii)
    cac = caccioppoli_check(solution, domain)
    tail = max((e.value for e in entries[len(entries) // 2:]), default=0.0)
    return EnergyReport(
        total_energy=dirichlet_energy(solution),
        growth_profile=entries,
        caccioppoli_lhs=cac.lhs,
        caccioppoli_rhs=cac.rhs,
        boundary_flux=cac.boundary_flux,
        tail_sup_estimate=tail,
        details={"note": "tail sup estimate over the listed radii only; "
                         "no claim about the true limsup",
                 "dropped_saddle_cells": cac.dropped_saddle_cells})


# --------------------------------------------------------------------------
# energies of plain fields (barrier competitors)


# cells of a box mesh, or Reilly boundary nodes, per streamed chunk
CHUNK = 32_768


def box_cells(lo, hi, h):
    """Cells of step h covering the box [lo, hi]: their count per axis (the
    last cell of an axis may overhang hi) and in total."""
    counts = np.maximum(np.ceil((hi - lo) / h - 1e-12).astype(int), 1)
    return counts, int(np.prod(counts))


def cell_centres(lo, counts, h, start, stop):
    """Centres lo + (index + 1/2) h of the cells with flat C-order indices
    start .. stop - 1 of a box of `counts` cells per axis, as (m, n) rows.
    Each axis index is peeled off the flat one, last axis first, by divmod
    as q = i // c and i - q c (np.divmod is several times slower on int64),
    and written straight into its column."""
    rest = np.arange(start, min(stop, int(np.prod(counts))))
    out = np.empty((rest.size, len(counts)))
    for ax in range(len(counts) - 1, 0, -1):
        quot = rest // counts[ax]
        out[:, ax] = lo[ax] + (rest - quot * counts[ax] + 0.5) * h
        rest = quot
    out[:, 0] = lo[0] + (rest + 0.5) * h
    return out


def energy_of_field(fld, domain, resolution=1 / 128, radius=None):
    """Midpoint-rule weighted energy of a scalar field over Omega.

    The gradient is a central difference at half the cell size, read through
    `fld.batch` on chunks of CHUNK cell centres.
    """
    if radius is None:
        radius = min(domain.exhaustion_radius, 8.0)
    lo, hi = domain.grid_box(radius)
    h = float(resolution)
    counts, cells = box_cells(lo, hi, h)
    n = len(counts)
    delta = 0.5 * h
    total = 0.0
    for start in range(0, cells, CHUNK):
        centers = cell_centres(lo, counts, h, start, start + CHUNK)
        inside = np.linalg.norm(centers, axis=1) <= radius
        for _, ob in domain.pieces():
            inside &= np.asarray(ob.depth(centers)) > 0
        centers = np.compress(inside, centers, axis=0)
        grad_sq = np.zeros(centers.shape[0])
        for ax in range(n):
            e = np.zeros(n)
            e[ax] = delta
            grad_sq += ((fld.batch(centers + e) - fld.batch(centers - e)) / (2 * delta)) ** 2
        w = np.exp(-0.5 * np.sum(centers ** 2, axis=1))
        total += float(np.sum(grad_sq * w))
    return 0.5 * total * h ** n
