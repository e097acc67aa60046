"""Weighted Dirichlet energy, growth profiles, the Caccioppoli check, and
the one cell stream of the weighted volume integrals.

Grid energies use a midpoint rule over cells with data at every corner, where
the solution's values are not NaN (documented first-order near the boundary).  Profile-backed
solutions read their closed forms off the profile (see `solver`): the energy
(1/2) c / F(hi) and the flux c / F(hi) from its `reduced_mass` c and
`normalization` F(hi), the mass inside B_R from its `ball_mass`.
On grids du/dnu is one second-order one-sided stencil, `normal_derivative`,
at any boundary points: the flux takes them on the marching-squares
interface (2D grids), `reilly.energy_growth_chain` at the pieces' exact
quadrature nodes.

The Reilly volume side and `energy_of_field` walk a domain's box through
one cell stream, `cell_stream`: runs of 8 cells along the last axis, with
each piece's depth read once at a run's middle, and a run skipped when that
middle lies 3.5 h plus the cell half-diagonal h sqrt(n) / 2 outside a piece
(depths are exact signed distances).  The other runs, classified 4,096 at a
time, are candidates; a work item starts at every 3,840th of them, so it
holds at most 30,720 candidate cells and only a mask of one byte a run spans
the box.  Two keep rules read the items: the fraction rule
(`kept_fractions`, the Reilly volume side) keeps the cells of positive
exact plane-cut fraction, the centre rule (`energy_of_field`) the cells
whose centre lies in the ball and inside every piece.  A skipped run holds
no cell that either keeps, so each rule gives a whole-box scan's cells, in
its flat order.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from itertools import combinations

import numpy as np

from .errors import MissingGeometryError, ParameterError, require_positive, require_radii
from .fields import gradient, row_dot
from .solver import DIRICHLET_DATA

__all__ = [
    "EnergyReport",
    "GrowthEntry",
    "CaccioppoliReport",
    "dirichlet_energy",
    "energy_growth_profile",
    "ball_masses",
    "caccioppoli_check",
    "energy_report",
    "energy_of_field",
    "weighted_gradient_cells",
    "interface_segments",
    "normal_derivative",
    "cell_stream",
    "kept_fractions",
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


# --------------------------------------------------------------------------
# volume energies


def weighted_gradient_cells(solution):
    """Cell-midpoint data for grid solutions: centers and |grad u|^2 e^-f h^n.

    Only cells with data at every corner contribute; this is the documented
    first-order treatment of the boundary band.  A cell's |grad u|^2 reads
    all 2^n corners, and the values are NaN where a node has no data, so
    the kept cells are those where it is not NaN.
    """
    grid = solution.grid_for("weighted_gradient_cells")
    V = solution.field.values
    n = V.ndim
    h = grid.h

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

    # the kept cells' centres, one column per axis; |centre|^2 adds the
    # columns' squares in axis order, as np.sum(centers ** 2, axis=1) does,
    # at a fraction of the cost of a reduction along short rows
    mask = ~np.isnan(grad_sq.reshape(-1))
    index = np.unravel_index(np.flatnonzero(mask), grad_sq.shape)
    grad_sq = grad_sq.reshape(-1)[mask]
    cols = [(0.5 * (c[:-1] + c[1:]))[i] for c, i in zip(grid.axes, index)]
    w = np.exp(-0.5 * sum(c * c for c in cols)) * h ** n
    return np.stack(cols, axis=1), grad_sq * w


def dirichlet_energy(solution):
    """Weighted energy (1/2) int |grad u|^2 e^-f over the solved region."""
    prof = solution.profile
    if prof is not None:
        return 0.5 * prof.reduced_mass / prof.normalization
    _, cells = weighted_gradient_cells(solution)
    return 0.5 * float(np.sum(cells))


def ball_masses(solution, radii):
    """The weighted gradient mass int_{B_R} |grad u|^2 e^-f inside each ball
    of radius R in radii, in the given order: the profile's `ball_mass`, or
    the cells of `weighted_gradient_cells` whose centre lies in the ball."""
    prof = solution.profile
    if prof is not None:
        return [prof.ball_mass(R) for R in radii]
    centers, cells = weighted_gradient_cells(solution)
    rad = np.linalg.norm(centers, axis=1)
    return [float(np.sum(cells[rad <= R])) for R in radii]


def energy_growth_profile(solution, radii):
    """(1/R^2) times the weighted gradient mass inside each ball."""
    radii = require_radii(radii, "energy growth radii")
    return [GrowthEntry(R=R, value=mass / (R * R),
                        truncated=solution.profile is None and R > solution.grid.radius)
            for R, mass in zip(radii, ball_masses(solution, radii))]


# --------------------------------------------------------------------------
# boundary flux and the Caccioppoli inequality


def interface_segments(solution, label):
    """Marching-squares reconstruction of a Dirichlet interface (2D grids).

    Returns the midpoints (M, 2) and lengths (M,) of the segments in the cut
    cells, in row-major cell order, and the number of saddle cells (a
    crossing on all four edges), which are dropped, as are segments whose
    midpoint lies beyond the exhaustion ball.
    """
    grid = solution.grid_for("interface_segments")
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
    grid = solution.grid_for("normal_derivative")
    h = grid.h
    nu = dict(domain.pieces())[label].exterior_normal(points)
    u1 = solution.field.batch(points - h * nu)
    u2 = solution.field.batch(points - 2.0 * h * nu)
    ok = ((np.linalg.norm(points, axis=1) <= grid.radius - 3.0 * h)
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
    """Full energy bookkeeping for one solution; the total energy is half
    the Caccioppoli left side, which is twice the energy (exact in binary)."""
    entries = energy_growth_profile(solution, radii)
    cac = caccioppoli_check(solution, domain)
    tail = max((e.value for e in entries[len(entries) // 2:]), default=0.0)
    return EnergyReport(
        total_energy=0.5 * cac.lhs,
        growth_profile=entries,
        caccioppoli_lhs=cac.lhs,
        caccioppoli_rhs=cac.rhs,
        boundary_flux=cac.boundary_flux,
        tail_sup_estimate=tail,
        details={"note": "tail sup estimate over the listed radii only; "
                         "no claim about the true limsup",
                 "dropped_saddle_cells": cac.dropped_saddle_cells})


# --------------------------------------------------------------------------
# the cell stream: the cells of a box in runs, work items and cut fractions


def box_cells(lo, hi, h):
    """Cells of step h covering the box [lo, hi]: their count per axis (the
    last cell of an axis may overhang hi) and in total."""
    counts = np.maximum(np.ceil((hi - lo) / h - 1e-12).astype(int), 1)
    return counts, int(np.prod(counts))


def cell_centres(lo, counts, h, index):
    """Centres lo + (axis index + 1/2) h of the cells with flat C-order
    indices `index` (an int array) in a box of `counts` cells per axis, as
    (m, n) rows.  Each axis index is peeled off the flat one, last axis
    first, by divmod as q = i // c and i - q c (np.divmod is several times
    slower on int64), and written straight into its column."""
    rest = np.asarray(index)
    out = np.empty((rest.size, len(counts)))
    for ax in range(len(counts) - 1, 0, -1):
        quot = rest // counts[ax]
        out[:, ax] = lo[ax] + (rest - quot * counts[ax] + 0.5) * h
        rest = quot
    out[:, 0] = lo[0] + (rest + 0.5) * h
    return out


def _box_fraction(depth, normal, h):
    """Fraction of the cube [-h/2, h/2]^n lying in {depth + <normal, y> >= 0}.

    Vectorized over cells: depth (N,), normal (N, n) with |normal| <= 1 rows.
    Inclusion-exclusion over box corners, exact for planar interfaces up to
    rounding, except that a component at most 1e-5 times the largest is
    dropped, which moves the fraction by up to about that component (4.1e-6
    for a component of 6.5e-6 next to 0.8 at depth 0).  The
    components are held component-major, (n, N): a reduction over axis 0
    adds them one after another in axis order, as a row's np.sum does, and
    costs a fraction of a reduction along short rows.
    """
    depth = np.asarray(depth, dtype=float)
    a = np.abs(np.asarray(normal, dtype=float)).T.copy()
    n = a.shape[0]
    frac = np.where(depth >= 0.0, 1.0, 0.0)

    # cells genuinely cut: |depth| below the cube half-diagonal reach
    reach = 0.5 * h * np.sum(a, axis=0)
    cut = np.abs(depth) < reach
    if not np.any(cut):
        return frac
    ac = np.compress(cut, a, axis=1)
    t = depth[cut] + reach[cut]

    # drop components that are zero or negligible next to the largest (the
    # interface is then parallel to those axes): the inclusion-exclusion sum
    # below divides by their product, so tiny ones would swamp it in rounding
    active = ac > np.maximum(1e-12, 1e-5 * ac.max(axis=0))
    d_eff = np.count_nonzero(active, axis=0)
    # a row with no active component (d_eff 0) is cut by its offset alone
    out = np.where(t >= 0.0, 1.0, 0.0)
    for d in range(1, n + 1):
        rows = d_eff == d
        if not np.any(rows):
            continue
        # each row keeps exactly d active components, in axis order
        comp = (np.compress(rows, ac, axis=1) if d == n
                else ac.T[rows][active.T[rows]].reshape(-1, d).T)
        # one corner per subset of the d axes, by size and then in
        # combinations order; its shift adds the subset's components in
        # axis order from 0 (0 + c is exact), as np.sum over the subset does
        subsets = [s for size in range(d + 1) for s in combinations(range(d), size)]
        member = np.array([[axis in s for s in subsets] for axis in range(d)], dtype=float)
        shift = member[0][:, None] * comp[0]
        for axis in range(1, d):
            shift += member[axis][:, None] * comp[axis]
        corner = np.maximum(t[rows] - h * shift, 0.0) ** d
        vol = corner[0].copy()
        for k, s in enumerate(subsets[1:], start=1):
            if len(s) % 2:
                vol -= corner[k]
            else:
                vol += corner[k]
        denom = math.factorial(d) * np.prod(comp, axis=0) * h ** d
        out[rows] = np.clip(vol / denom, 0.0, 1.0)
    frac[cut] = out
    return frac


# A work item holds at most _ITEM_CELLS candidate cells: on the 3D unit ball,
# with two workers and a cutoff of radius 0.5, the Reilly residual's traced
# peak at 1/32 and 1/64 was 10.3-12.1 and 12.3-12.9 MB at 30,720, and
# 12.8-13.8 and 14.4-15.0 MB with box chunks of 32,768 cells.  _CLASSIFY_RUNS
# runs (up to 32,768 cells) are classified at a time.
_RUN = 8
_ITEM_CELLS = 30_720
_CLASSIFY_RUNS = 4096


def _runs(counts, run):
    """Flat index of the first cell of each run (an int array of run
    numbers, row by row of the mesh's lines along its last axis), its index
    along that axis and its length (_RUN, or less at a line's end)."""
    per_row = -(-counts[-1] // _RUN)
    row = run // per_row
    start = _RUN * (run - row * per_row)
    return row * counts[-1] + start, start, np.minimum(_RUN, counts[-1] - start)


def _candidate_runs(pieces, lo, counts, h, run):
    """Whether each run is a candidate.  Depths are exact signed distances,
    so a cell's depth differs from its run middle's by at most
    (_RUN - 1) h / 2.  With the cell half-diagonal added (both times
    1 + 1e-9, which covers rounding), a run whose middle lies that margin
    or more outside some piece has only cells of fraction 0 there, whose
    centres lie outside it too; every other run is a candidate."""
    first_cell, start, length = _runs(counts, run)
    mids = cell_centres(lo, counts, h, first_cell)
    mids[:, -1] = lo[-1] + (start + 0.5 * length) * h
    margin = 0.5 * h * (_RUN - 1 + math.sqrt(len(counts))) * (1.0 + 1e-9)
    candidate = np.ones(run.size, dtype=bool)
    for ob in pieces:
        candidate &= ob.depth(mids) > -margin
    return candidate


def _run_cells(lo, counts, h, first, candidate):
    """Centres (m, n), in flat order, of the cells of the candidate runs
    among first, first + 1, ...  A run's cells share its first cell's centre
    but for the last axis, whose index is the run's start plus the cell's
    place in the run."""
    first_cell, start, length = _runs(counts, first + np.flatnonzero(candidate))
    pts = np.repeat(cell_centres(lo, counts, h, first_cell), length, axis=0)
    along = np.repeat(start + length - np.cumsum(length), length)
    along += np.arange(along.size)
    pts[:, -1] = lo[-1] + (along + 0.5) * h
    return pts


def cell_stream(domain, radius, h):
    """The work items of the cells of step h in the box
    `domain.grid_box(radius)`, in flat order: each a partial of `_run_cells`
    giving the centres (m, n) of its candidate cells to a keep rule.  The
    runs are classified _CLASSIFY_RUNS at a time into one mask.  The first
    item starts at run 0 and item k at the candidate run of rank
    k (_ITEM_CELLS // _RUN), read at call time, so an item holds at most
    _ITEM_CELLS candidate cells; there is at least one item."""
    lo, hi = domain.grid_box(radius)
    counts, _ = box_cells(lo, hi, h)
    pieces = [ob for _, ob in domain.pieces()]
    runs = int(np.prod(counts[:-1])) * -(-counts[-1] // _RUN)
    every = _ITEM_CELLS // _RUN
    candidate = np.empty(runs, dtype=bool)
    starts, seen = [0], 0   # the items' first runs, and the candidates before this block
    for begin in range(0, runs, _CLASSIFY_RUNS):
        block = candidate[begin:begin + _CLASSIFY_RUNS]
        block[:] = _candidate_runs(pieces, lo, counts, h, np.arange(begin, begin + block.size))
        # the block's candidates have ranks seen, seen + 1, ...; rank 0 opens no item
        where = np.flatnonzero(block)
        starts += (begin + where[(-seen) % every if seen else every::every]).tolist()
        seen += where.size
    return [partial(_run_cells, lo, counts, h, first, candidate[first:end])
            for first, end in zip(starts, starts[1:] + [runs])]


def kept_fractions(pieces, pts, h):
    """The fraction rule: centres (m, n) and fractions (m,) of the cells of
    step h at pts (m, n) whose fraction in every piece, the product over
    pieces of `_box_fraction`, is positive.  A cell whose centre lies deeper
    than the cube's half-diagonal outside a piece has fraction exactly 0,
    and inside it exactly 1 (the margin covers rounding), so only the cut
    band between is computed."""
    reach = 0.5 * h * math.sqrt(pts.shape[1]) * (1.0 + 1e-9)
    frac = np.ones(pts.shape[0])
    for ob in pieces:
        d = ob.depth(pts)
        frac[d <= -reach] = 0.0
        band = np.abs(d) < reach
        if np.any(band):
            # the unit gradient of the depth is the inward normal
            frac[band] *= _box_fraction(
                d[band], -ob.exterior_normal(np.compress(band, pts, axis=0)), h)
    keep = frac > 0.0
    # np.compress gathers rows several times faster than a boolean index
    return np.compress(keep, pts, axis=0), frac[keep]


# --------------------------------------------------------------------------
# energies of plain fields (barrier competitors)


def energy_of_field(fld, domain, resolution=1 / 128, radius=None):
    """Midpoint-rule weighted energy of a scalar field over Omega: the cells
    of `cell_stream` whose centre lies in the ball of `radius` and inside
    every piece (the centre rule), item by item on the calling thread,
    differentiated by `fields.gradient` (with its declared-domain guard) at
    half the cell size.  A non-finite or non-positive resolution or radius
    is a ParameterError."""
    h = require_positive("energy resolution", resolution)
    radius = require_positive("energy radius", min(domain.exhaustion_radius, 8.0)
                              if radius is None else radius)
    total = 0.0
    for cells in cell_stream(domain, radius, h):
        centers = cells()
        # |centre|^2 adds the columns' squares in axis order, the bits of a
        # row's np.sum and of np.linalg.norm's before its square root
        r_sq = row_dot(centers.T, centers.T)
        inside = np.sqrt(r_sq) <= radius
        for _, ob in domain.pieces():
            inside &= np.asarray(ob.depth(centers)) > 0
        centers = np.compress(inside, centers, axis=0)
        grad = gradient(fld, centers, h=0.5 * h).T
        w = np.exp(-0.5 * np.compress(inside, r_sq))
        total += float(np.sum(row_dot(grad, grad) * w))
    return 0.5 * total * h ** domain.ambient_dim
