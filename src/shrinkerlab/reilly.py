"""Both sides of the localized Reilly identity, term by term.

The volume side integrates  phi^2 (|Hess u|^2 - (Lap_f u)^2 + Ric_f(grad u,
grad u))  plus the transport term  <grad phi^2, 1/2 grad |grad u|^2 -
Lap_f u grad u>  over the domain; the boundary side integrates the second
fundamental form, mixed, and surface-Laplacian terms over the (exactly
parametrized) boundary.  Ric_f is the identity (Gaussian space).

Volume quadrature is a midpoint rule on a Cartesian mesh with cut cells
weighted by the exact plane-cut fraction of the signed-distance crossing.
The mesh is read in runs of 8 consecutive cells along its last axis, with
each piece's depth read once at a run's middle.  Depths are exact signed
distances, so a run whose middle lies 3.5 h plus the cell half-diagonal
h sqrt(n) / 2 outside a piece is skipped (no centres, no depth), and only
the cells of the other, candidate, runs get depths of their own.  There a
cell whose centre lies deeper than the half-diagonal outside a piece has
fraction 0 and inside it fraction 1, so normals and fractions are computed
only on each piece's cut band between.  Every cell thus gets the fraction
that a scan of the whole box gives it, in the same flat order.  The runs
are classified 4,096 at a time, so no array spans the mesh, and cut into
work items of consecutive runs holding at most 30,720 candidate cells, so
an item's memory follows the cells it keeps, not the box.  On the 3D unit
ball at 1/64, 37% of the 262,144 runs are skipped, and 43 items hold the
1,136,840 kept cells, where box chunks of 32,768 cells took 64.  Each item
differentiates u with the 13-point stencil of `fields.fd_gradient_hessian`
(in 3D) at one step per call, 1e-5 (1 + largest box coordinate), and drops
each array once read, so it peaks in the stencil at about 216 bytes a kept
cell (5.9 MB traced at 28,657 kept cells).  Both sides contract the
stencil's component-major arrays component by component (`fields.row_dot`),
and the cutoff gives phi^2 and grad(phi^2) from one radius and one clipped
transition per row.  For phi == 1 (phi None) both sides skip the factor
phi^2, and the volume side skips the transport term, which is then exactly
+0.0.

The boundary uses a tensor Gauss-Legendre rule on each piece's exact
parametrization: 128^(n-1) nodes per piece, and a second pass on 96^(n-1)
nodes for `mixed_term_uncertainty`.  The field is analytic (a GridField is
a usage error), so the rule converges geometrically: on the unit ball and
the annuli (0.5, 2), at a step where central differences are exact,
384^(n-1) and 256^(n-1) nodes move no boundary term by more than 1e-11
relative.  The residual then tracks the volume mesh alone, except where
phi == 1 and the domain meets the exhaustion sphere: neither side has a
term there, and the residual measures the missing one.  Each pass takes
one differencing step per piece from the largest radius of its nodes and
then streams the nodes in order, in items of `energy.CHUNK` // 2 (16,384)
nodes: a node's stencil, normals and curvatures cost about twice a cell's,
so such an item peaks near a chunk of cells.  A piece's nodes, weights and
largest radius are built once per (shape, exhaustion radius, nodes per
dimension) and cached read-only (`_piece_quadrature`), so repeated
residuals and energy chains on one domain only slice them.

One residual is one ordered stream of work items -- the cell items, then
the node items of both boundary passes -- run on os.cpu_count() threads by
`fields.ordered_map`, so a thread holds at most one item at a time: 30,720
candidate cells or 16,384 nodes with their stencil temporaries, at most
about 6 MB traced on the 3D unit ball.  The items' partial sums are added
in item order, so the result does not depend on the worker count.  The
report's field_evaluations counts every point at which u is evaluated: the
stencil's evaluations per point times the kept cells and the nodes of both
boundary passes.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .energy import CHUNK, ball_masses, box_cells, cell_centres, normal_derivative
from .errors import (ContractViolation, MissingGeometryError, ParameterError, require_positive,
                     require_radii)
from .fields import (GridField, fd_gradient_hessian, ordered_map, row_dot, stencil_evaluations,
                     trace)
from .geometry import radii

__all__ = ["CutoffFamily", "ReillyReport", "reilly_residual",
           "energy_growth_chain", "ChainReport"]

# Gauss-Legendre nodes per direction of a boundary piece: every caller of the
# residual passes an analytic field, while the energy chain reads du/dnu off
# a grid field, which has a kink in every cell, so its rule converges slowly.
_BOUNDARY_NODES_PER_DIM = 128
_CHECK_NODES_PER_DIM = 96
_CHAIN_NODES_PER_DIM = 384


class CutoffFamily:
    """Radial cutoff: 1 on B_R, 0 outside B_2R, quintic transition.

    The transition is the unique quintic with value/first/second derivative
    (1,0,0) -> (0,0,0) across [R, 2R]; its gradient peaks at 15/(8R), under
    the required 2/R bound.
    """

    def __init__(self, R):
        self.R = require_positive("cutoff radius", R)

    def _transition(self, r):
        """s = (r - R) / R clipped to [0, 1]: 0 on B_R, 1 outside B_2R."""
        return np.clip((np.asarray(r, dtype=float) - self.R) / self.R, 0.0, 1.0)

    @staticmethod
    def _value(s):
        return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)

    def profile(self, r):
        return self._value(self._transition(r))

    def __call__(self, x):
        return self.profile(radii(np.asarray(x, dtype=float)))

    def squared_with_gradient(self, x):
        """phi^2 (N,) and grad(phi^2) = 2 phi phi' x/|x| (n, N, component-major)
        at the (N, n) rows of x, from one radius and one clipped s per row.

        Computed in place, with the operations of `_transition`, `_value`
        and phi' = -30 s^2 (1 - s)^2 / R in their order (products swap their
        factors, which is exact), so the bits are theirs."""
        r = radii(x)
        s = r - self.R
        s /= self.R
        np.clip(s, 0.0, 1.0, out=s)
        phi = s ** 3
        poly = 15.0 * s
        np.subtract(10.0, poly, out=poly)
        sq = 6.0 * s
        sq *= s
        poly += sq
        phi *= poly
        np.subtract(1.0, phi, out=phi)
        # fac = 2 phi phi', phi' = 0 off the transition (0, 1)
        fac = s ** 2
        fac *= -30.0
        np.subtract(1.0, s, out=sq)
        sq **= 2
        fac *= sq
        fac /= self.R
        np.copyto(fac, 0.0, where=~((s > 0.0) & (s < 1.0)))
        np.multiply(2.0, phi, out=sq)
        fac *= sq
        centre = ~(r > 0)
        np.maximum(r, 1e-300, out=r)
        with np.errstate(invalid="ignore", divide="ignore"):
            grad = x.T / r
        if np.any(centre):  # no direction at the origin (or a NaN radius)
            grad[:, centre] = 0.0
        grad *= fac
        phi *= phi
        return phi, grad


@dataclass
class ReillyReport:
    """Both sides of the identity, their mismatch and its terms.

    mixed_term_uncertainty is the change of the mixed boundary term between
    128^(n-1) and 96^(n-1) Gauss-Legendre nodes per piece, a check of the
    boundary quadrature.  It also holds the stencil's rounding, which
    averages down differently over the two node sets: for u = x1 on the
    unit ball it reads 1.5e-13, for the CLI's x1sq 4e-9 to 6e-8 on the
    ball and the annuli (0.5, 2) (1e-9 to 2e-8 on 384^(n-1) and 256^(n-1)
    nodes), and that is rounding, not quadrature error.  u is analytic, and
    each pass takes the step of its own nodes, the same on a sphere.  With
    phi == 1 neither side has a term on the exhaustion sphere, so where the
    domain meets that sphere the residual measures the missing term, not
    the mesh: for x1sq on the 3D slab (-1, 1) at radius 4 it reads 0.7326,
    0.7357 and 0.7364 at mesh 1/8, 1/16 and 1/32.  details holds
    deterministic counters: volume_cells, cut_cells, volume_fd_step,
    stencil_evaluations_per_point, boundary_nodes (the nodes of the
    128^(n-1) pass) and field_evaluations (stencil_evaluations_per_point
    times the volume cells and the nodes of both passes).
    """

    volume_side: float
    boundary_side: float
    residual: float
    mesh_h: float
    term_breakdown: dict
    mixed_term_uncertainty: float = 0.0
    details: dict = dataclass_field(default_factory=dict)


# --------------------------------------------------------------------------
# cut-cell fractions


def _box_fraction(depth, normal, h):
    """Fraction of the cube [-h/2, h/2]^n lying in {depth + <normal, y> >= 0}.

    Vectorized over cells: depth (N,), normal (N, n) with |normal| <= 1 rows.
    Exact for planar interfaces (inclusion-exclusion over box corners).  The
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
    out = np.empty(t.size)
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
    zero_rows = d_eff == 0
    if np.any(zero_rows):
        out[zero_rows] = np.where(t[zero_rows] >= 0.0, 1.0, 0.0)
    frac[cut] = out
    return frac


def _cell_fractions(pieces, pts, h):
    """Fraction of each cell of step h (centres pts, (m, n)) lying in every
    piece: the product over pieces of `_box_fraction`.  A cell whose centre
    lies deeper than the cube's half-diagonal outside a piece has fraction
    exactly 0, and inside it exactly 1 (the margin covers rounding), so only
    the cut band between is computed."""
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
    return frac


# The volume side reads each piece's depth once per run of _RUN consecutive
# cells along the last axis, at the run's middle, and skips the runs that lie
# outside.  A volume item holds at most _ITEM_CELLS cells of the other runs
# (its candidate cells): on the 3D unit ball, with two workers and a cutoff
# of radius 0.5, the residual's traced peak at 1/32 and 1/64 was 10.3-12.1
# and 12.3-12.9 MB at 30,720, 12.1-12.3 and 13.0-13.3 MB at 31,744, and
# 12.4-13.2 and 13.4-13.7 MB at 32,768; box chunks of 32,768 cells gave
# 12.8-13.8 and 14.4-15.0 MB.  The runs are classified _CLASSIFY_RUNS (about
# a box chunk's worth of cells) at a time, so no array spans the mesh.
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
    """Whether each run is a candidate, and its candidate cells (its length,
    or 0).

    Depths are exact signed distances, so a cell's depth differs from its
    run middle's by at most (_RUN - 1) h / 2.  With the cell half-diagonal
    added (both times 1 + 1e-9, which covers rounding), a run whose middle
    lies that margin or more outside some piece has only cells that
    `_cell_fractions` gives fraction 0; every other run is a candidate."""
    first_cell, start, length = _runs(counts, run)
    mids = cell_centres(lo, counts, h, first_cell)
    mids[:, -1] = lo[-1] + (start + 0.5 * length) * h
    margin = 0.5 * h * (_RUN - 1 + math.sqrt(len(counts))) * (1.0 + 1e-9)
    candidate = np.ones(run.size, dtype=bool)
    for ob in pieces:
        candidate &= ob.depth(mids) > -margin
    return candidate, length * candidate


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


def _kept_cells(pieces, lo, counts, h, first, candidate):
    """Centres (m, n) and fractions (m,) of the cells of positive fraction
    in the candidate runs among first, first + 1, ..."""
    pts = _run_cells(lo, counts, h, first, candidate)
    frac = _cell_fractions(pieces, pts, h)
    keep = frac > 0.0
    # np.compress gathers rows several times faster than a boolean index
    return np.compress(keep, pts, axis=0), frac[keep]


def _run_items(pieces, lo, counts, h):
    """(first run, which of its runs are candidates) of each volume item:
    consecutive runs in flat order with at most _ITEM_CELLS candidate cells
    (read at call time, at least _RUN), each item after the first starting
    at a candidate run; at least one item.  The runs are classified
    _CLASSIFY_RUNS at a time."""
    runs = int(np.prod(counts[:-1])) * -(-counts[-1] // _RUN)
    items = []
    pending = []        # candidate masks of the open item's runs before this step
    first = 0           # the open item's first run
    taken = total = 0   # candidate cells before that run, and before this step
    for begin in range(0, runs, _CLASSIFY_RUNS):
        candidate, cells = _candidate_runs(pieces, lo, counts, h,
                                           np.arange(begin, min(begin + _CLASSIFY_RUNS, runs)))
        cum = total + np.cumsum(cells)
        while True:
            # the open item ends before the first run that overfills it
            cut = int(np.searchsorted(cum, taken + _ITEM_CELLS, side="right"))
            if cut == cum.size:
                break
            items.append((first, np.concatenate(pending + [candidate[max(first - begin, 0):cut]])))
            pending = []
            first, taken = begin + cut, int(cum[cut - 1]) if cut else total
        pending.append(candidate[max(first - begin, 0):])
        total = int(cum[-1])
    if total > taken or not items:
        items.append((first, np.concatenate(pending)))
    return items


def _volume_items(u, phi, domain, mesh_h):
    """Work items of the volume integrals, one per `_run_items` item, each
    returning (hess_sq, lap_f_sq, ricci, transport, kept cells, cut cells);
    and the counters fixed before any item runs."""
    lo, hi = domain.grid_box(domain.exhaustion_radius)
    h = float(mesh_h)
    counts, _ = box_cells(lo, hi, h)
    n = len(counts)
    pieces = [ob for _, ob in domain.pieces()]
    # one step per call, so that no sum depends on the chunking
    step = 1e-5 * (1.0 + float(np.max(np.abs([lo, hi]))))

    def item_sums(first, candidate):
        pts, frac = _kept_cells(pieces, lo, counts, h, first, candidate)
        kept, cut = pts.shape[0], int(np.count_nonzero(frac < 1.0))
        if kept == 0:
            return 0.0, 0.0, 0.0, 0.0, 0, 0

        # each array is dropped once read, so the item peaks in its stencil
        grad, hess = fd_gradient_hessian(u.batch, pts, step)
        if phi is not None:
            phi_sq, gps = phi.squared_with_gradient(pts)
        x = pts.T.copy()
        del pts
        w = np.exp(-0.5 * row_dot(x, x))
        w *= frac
        w *= h ** n
        del frac
        lap_f = trace(hess)
        lap_f -= row_dot(x, grad)
        del x

        def weighted_sum(term):
            """sum of phi^2 term w over the cells (phi^2 == 1 for phi None);
            term is a fresh array and is scaled in place"""
            if phi is not None:
                term *= phi_sq
            term *= w
            return float(np.sum(term))

        # each term is summed as soon as it is formed
        hess_sq = weighted_sum(row_dot(hess.reshape(n * n, -1), hess.reshape(n * n, -1)))
        lap_f_sq = weighted_sum(lap_f ** 2)
        ricci = weighted_sum(row_dot(grad, grad))  # Ric_f = identity (Gaussian)
        if phi is None:
            # phi^2 == 1 and grad(phi^2) == 0: no factor, and no transport
            transport = 0.0
        else:
            transport = float(np.sum(
                row_dot(gps, [row_dot(hess[i], grad) - lap_f * grad[i] for i in range(n)]) * w))
        return hess_sq, lap_f_sq, ricci, transport, kept, cut

    items = [partial(item_sums, first, candidate)
             for first, candidate in _run_items(pieces, lo, counts, h)]
    return items, {"volume_fd_step": float(step),
                   "stencil_evaluations_per_point": stencil_evaluations(n)}


def _boundary_sums(u, phi, ob, nodes, weights, step):
    """(second_fundamental, mixed, surface_laplacian) over quadrature nodes
    of one piece, with its exact geometry."""
    n = nodes.shape[1]
    grad, hess = fd_gradient_hessian(u.batch, nodes, step)

    kappas = ob.principal_curvatures(nodes)
    # equal curvatures, as on a plane or a sphere, need no tolerance test
    if not (np.all(kappas == kappas[:, :1]) or np.allclose(kappas, kappas[:, :1])):
        raise MissingGeometryError("non-umbilic boundary pieces are not supported")
    kappa = kappas[:, 0]
    tr_a = kappa * (n - 1)

    x = nodes.T.copy()
    nu = ob.exterior_normal(nodes).T.copy()
    du_dnu = row_dot(grad, nu)
    grad_tan = grad - du_dnu * nu
    grad_tan_sq = row_dot(grad_tan, grad_tan)
    x_nu = row_dot(x, nu)
    x_tan = x - x_nu * nu

    a_term = kappa * grad_tan_sq
    hess_nu = [row_dot(hess[i], nu) for i in range(n)]
    mixed = row_dot(grad_tan, hess_nu) - a_term
    lap_surface = trace(hess) - row_dot(hess_nu, nu) + tr_a * du_dnu
    lap_f_surface = lap_surface - row_dot(x_tan, grad_tan)
    h_f = tr_a + x_nu
    lap_term = -(lap_f_surface - h_f * du_dnu) * du_dnu

    w = np.exp(-0.5 * row_dot(x, x)) * weights
    if phi is not None:
        w = w * np.asarray(phi(nodes)) ** 2
    return float(np.sum(a_term * w)), float(np.sum(mixed * w)), float(np.sum(lap_term * w))


@lru_cache(maxsize=8)
def _piece_quadrature(shape, max_radius, per_dim):
    """Read-only quadrature of a piece's shape clipped to B_max_radius:
    nodes, weights and the largest node radius (0.0 without nodes).

    Cached like `quadrature.gauss_legendre`: every Reilly residual and energy
    chain on one domain reads the same nodes.  The shapes are frozen
    dataclasses, so equal shapes share an entry."""
    nodes, weights = shape.quad_nodes(max_radius, per_dim)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights, float(np.max(np.linalg.norm(nodes, axis=1), initial=0.0))


def _boundary_items(u, phi, domain, per_dim):
    """Work items of the boundary integrals on per_dim^(n-1) Gauss-Legendre
    nodes of each piece, one per CHUNK // 2 nodes in node order, each
    returning `_boundary_sums`; and the node count.

    CHUNK is read at call time.  On the 3D unit ball the residual's passes
    are one item each, of 16,384 and 9,216 nodes.  An item of 16,384 nodes
    peaks at 5.1-5.8 MB traced and a volume item of 30,720 candidate cells
    at up to 5.9 MB; twice the nodes would peak at 10.3-11.3 MB."""
    items = []
    total = 0
    size = CHUNK // 2
    for _, ob in domain.pieces():
        nodes, weights, reach = _piece_quadrature(ob.shape, domain.exhaustion_radius, per_dim)
        if nodes.shape[0] == 0:
            continue
        # one step per piece over all of its nodes, so that no sum depends
        # on the chunking
        step = 1e-5 * (1.0 + reach)
        items += [partial(_boundary_sums, u, phi, ob, nodes[start:start + size],
                          weights[start:start + size], step)
                  for start in range(0, nodes.shape[0], size)]
        total += nodes.shape[0]
    return items, total


def _column_sums(parts, width):
    """Sum of each column of the items' partial sums, added in item order so
    that no total depends on the worker count; zeros when there is no item."""
    return [sum(column) for column in zip(*parts)] if parts else [0.0] * width


def reilly_residual(u, phi, domain, mesh_h):
    """Evaluate both sides of the localized identity and their mismatch.

    u must be an analytic field, C^2 on a neighborhood of the closed domain
    (stencils cross the boundary); a GridField is a ParameterError, since a
    Hessian differenced through its multilinear interpolant does not
    converge.  phi may be a CutoffFamily or None for phi == 1.  mesh_h, the
    volume mesh step, must be positive and finite.  A side with a non-finite
    term raises ContractViolation naming the side and its first such term.
    """
    if isinstance(u, GridField):
        raise ParameterError("reilly_residual takes an analytic field, not a GridField")
    mesh_h = require_positive("mesh_h", mesh_h)
    volume_items, counters = _volume_items(u, phi, domain, mesh_h)
    boundary_items, nodes = _boundary_items(u, phi, domain, per_dim=_BOUNDARY_NODES_PER_DIM)
    # the mixed term on fewer nodes gives mixed_term_uncertainty, a check of
    # the boundary quadrature
    second_items, second_nodes = _boundary_items(u, phi, domain, per_dim=_CHECK_NODES_PER_DIM)
    # one ordered stream, so the boundary chunks share the pool with the cells
    parts = ordered_map(lambda item: item(),
                        volume_items + boundary_items + second_items)
    a = len(volume_items)
    b = a + len(boundary_items)
    *vol_sums, kept, cut = _column_sums(parts[:a], 6)
    vol_terms = dict(zip(("hess_sq", "lap_f_sq", "ricci", "transport"), vol_sums))
    volume = (vol_terms["hess_sq"] - vol_terms["lap_f_sq"] + vol_terms["ricci"]
              + vol_terms["transport"])
    names = ("second_fundamental", "mixed", "surface_laplacian")
    bnd_terms = dict(zip(names, _column_sums(parts[a:b], 3)))
    for side, terms in (("volume", vol_terms), ("boundary", bnd_terms)):
        bad = [name for name, value in terms.items() if not math.isfinite(value)]
        if bad:
            raise ContractViolation(f"Reilly {side} side is not finite: its {bad[0]} "
                                    f"term is {terms[bad[0]]}")
    boundary = sum(bnd_terms.values())
    second_mixed = _column_sums(parts[b:], 3)[1]
    breakdown = {f"volume_{k}": v for k, v in vol_terms.items()}
    breakdown.update({f"boundary_{k}": v for k, v in bnd_terms.items()})
    return ReillyReport(
        volume_side=volume, boundary_side=boundary,
        residual=abs(volume - boundary), mesh_h=mesh_h,
        term_breakdown=breakdown,
        mixed_term_uncertainty=abs(bnd_terms["mixed"] - second_mixed),
        details={"ricci_mode": "gaussian identity", "volume_cells": kept,
                 "cut_cells": cut, **counters, "boundary_nodes": nodes,
                 "field_evaluations": counters["stencil_evaluations_per_point"]
                 * (kept + nodes + second_nodes)})


# --------------------------------------------------------------------------
# energy-growth chain check with boundary-term attribution


@dataclass
class ChainReport:
    per_R: list                    # (R, lhs, rhs, holds, truncated)
    consistent: bool
    boundary_terms: dict           # label -> int H_f (du/dnu)^2 over the piece
    f_minimal: dict                # label -> bool (max |H_f| <= 1e-8 at the nodes)


def energy_growth_chain(solution, domain, radii):
    """Check int_{B_R} |grad u|^2 <= (8 / R^2) int_{B_2R} |grad u|^2 (the
    chain's 4 eps / R^2 at eps = 2) radius by radius, and attribute failures
    to the dropped boundary term containing H_f (du/dnu)^2 on non-f-minimal
    boundary pieces, read at each piece's exact quadrature nodes (so in any
    dimension).  The radii must be positive, finite and increasing."""
    reach = solution.grid_for("energy_growth_chain").radius
    radii = require_radii(radii, "energy chain radii")
    masses = ball_masses(solution, [*radii, *(2.0 * R for R in radii)])

    per_R = []
    consistent = True
    for R, lhs, outer in zip(radii, masses, masses[len(radii):]):
        rhs = (8.0 / (R * R)) * outer
        truncated = 2.0 * R > reach
        holds = bool(lhs <= rhs * (1.0 + 1e-9))
        if not truncated and not holds:
            consistent = False
        per_R.append((R, lhs, rhs, holds, truncated))

    boundary_terms = {}
    f_minimal = {}
    for label, ob in domain.pieces():
        nodes, weights, _ = _piece_quadrature(ob.shape, domain.exhaustion_radius,
                                              _CHAIN_NODES_PER_DIM)
        h_f = ob.weighted_mean_curvature(nodes)
        ok, dudnu = normal_derivative(solution, domain, label, nodes)
        weight = np.exp(-0.5 * np.sum(nodes[ok] ** 2, axis=1)) * weights[ok]
        boundary_terms[label] = float(np.sum(h_f[ok] * dudnu ** 2 * weight))
        f_minimal[label] = bool(np.max(np.abs(h_f), initial=0.0) <= 1e-8)
    return ChainReport(per_R=per_R, consistent=consistent,
                       boundary_terms=boundary_terms, f_minimal=f_minimal)
