"""Both sides of the localized Reilly identity, term by term.

The volume side integrates  phi^2 (|Hess u|^2 - (Lap_f u)^2 + Ric_f(grad u,
grad u))  plus the transport term  <grad phi^2, 1/2 grad |grad u|^2 -
Lap_f u grad u>  over the domain; the boundary side integrates the second
fundamental form, mixed, and surface-Laplacian terms over the (exactly
parametrized) boundary.  Ric_f is the identity (Gaussian space).

Volume quadrature is a midpoint rule on a Cartesian mesh with cut cells
weighted by the exact plane-cut fraction of the signed-distance crossing.
The cells stream in chunks of `energy.CHUNK` (32,768) built from flat
index ranges, with no full-box array.  A cell whose centre lies deeper than
the cube's half-diagonal h sqrt(n) / 2 outside a piece has fraction 0, and
inside it fraction 1, so normals and fractions are computed only on each
piece's cut band between.  Each chunk differentiates u with the 13-point
stencil of `fields.fd_gradient_hessian` (in 3D) at one step per call: the
smallest spacing of a `GridField` u, else 1e-5 (1 + largest box
coordinate).  Both sides contract the stencil's component-major arrays
component by component (`fields.row_dot`), and the cutoff gives phi^2 and
grad(phi^2) from one radius and one clipped transition per row.  For
phi == 1 (phi None) both sides skip the factor phi^2, and the volume side
skips the transport term, which is then exactly +0.0.

The boundary uses Gauss-Legendre panels at fixed high order, so the
reported residual tracks the volume mesh: 384^(n-1) nodes per piece, and a
second pass on 256^(n-1) nodes for `mixed_term_uncertainty`.  Each pass
takes one differencing step per piece from the largest radius of its nodes
and then streams the nodes in chunks of the same size.  A piece's nodes,
weights and largest radius are built once per (shape, exhaustion radius,
nodes per dimension) and cached read-only (`_piece_quadrature`), so
repeated residuals and energy chains on one domain only slice them.

One residual is one ordered stream of work items -- the cell chunks, then
the node chunks of both boundary passes -- run on os.cpu_count() threads by
`fields.ordered_map`, so no stage holds more than a chunk of points per
thread.  The items' partial sums are added in item order, so the result
does not depend on the worker count.  The report's field_evaluations
counts every point at which u is evaluated: the stencil's evaluations per
point times the kept cells and the nodes of both boundary passes.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .energy import CHUNK, box_cells, cell_centres, normal_derivative, weighted_gradient_cells
from .errors import (ContractViolation, MissingGeometryError, ParameterError,
                     require_positive, require_radii)
from .fields import (GridField, fd_gradient_hessian, ordered_map, row_dot, stencil_evaluations,
                     trace)
from .geometry import radii

__all__ = ["CutoffFamily", "ReillyReport", "reilly_residual",
           "energy_growth_chain", "ChainReport"]

_NODES_PER_DIM = 384  # Gauss-Legendre nodes per direction of a boundary piece


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

    def _slope(self, s):
        return np.where((s > 0.0) & (s < 1.0), -30.0 * s ** 2 * (1.0 - s) ** 2 / self.R, 0.0)

    def profile(self, r):
        return self._value(self._transition(r))

    def profile_derivative(self, r):
        return self._slope(self._transition(r))

    def __call__(self, x):
        return self.profile(radii(np.asarray(x, dtype=float)))

    def squared_with_gradient(self, x):
        """phi^2 (N,) and grad(phi^2) = 2 phi phi' x/|x| (n, N, component-major)
        at the (N, n) rows of x, from one radius and one clipped s per row."""
        r = radii(x)
        s = self._transition(r)
        phi = self._value(s)
        fac = 2.0 * phi * self._slope(s)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = x.T / np.maximum(r, 1e-300)
        centre = ~(r > 0)
        if np.any(centre):  # no direction at the origin (or a NaN radius)
            unit[:, centre] = 0.0
        return phi ** 2, fac * unit


@dataclass
class ReillyReport:
    """Both sides of the identity, their mismatch and its terms.

    mixed_term_uncertainty is the change of the mixed boundary term between
    384^(n-1) and 256^(n-1) Gauss-Legendre nodes per piece, a check of the
    boundary quadrature.  For a GridField u the differencing step is its
    smallest spacing, and the second pass halves it; for any other u each
    pass takes the step of its own nodes, the same on a sphere.  details
    holds deterministic counters: volume_cells, cut_cells, volume_fd_step,
    stencil_evaluations_per_point, boundary_nodes (the nodes of the
    384^(n-1) pass) and field_evaluations (stencil_evaluations_per_point
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


def _volume_items(u, phi, domain, mesh_h, fd_h):
    """Work items of the volume integrals, one per chunk of CHUNK cells, each
    returning (hess_sq, lap_f_sq, ricci, transport, kept cells, cut cells);
    and the counters fixed before any item runs."""
    lo, hi = domain.grid_box(domain.exhaustion_radius)
    h = float(mesh_h)
    counts, cells = box_cells(lo, hi, h)
    n = len(counts)
    pieces = [ob for _, ob in domain.pieces()]
    # one step per call, so that no sum depends on the chunking
    step = fd_h if fd_h is not None else 1e-5 * (1.0 + float(np.max(np.abs([lo, hi]))))

    def chunk_sums(start):
        pts = cell_centres(lo, counts, h, start, start + CHUNK)
        frac = _cell_fractions(pieces, pts, h)
        keep = frac > 0.0
        if not np.any(keep):
            return 0.0, 0.0, 0.0, 0.0, 0, 0
        # np.compress gathers rows several times faster than a boolean index
        pts = np.compress(keep, pts, axis=0)
        frac = frac[keep]

        grad, hess = fd_gradient_hessian(u.batch, pts, step)
        x = pts.T.copy()
        lap_f = trace(hess) - row_dot(x, grad)
        hess_sq = row_dot(hess.reshape(n * n, -1), hess.reshape(n * n, -1))
        lap_f_sq = lap_f ** 2
        ricci = row_dot(grad, grad)  # Ric_f = identity (Gaussian)
        w = np.exp(-0.5 * row_dot(x, x)) * frac * h ** n
        if phi is None:
            # phi^2 == 1 and grad(phi^2) == 0: no factor, and no transport
            transport = 0.0
        else:
            phi_sq, gps = phi.squared_with_gradient(pts)
            hess_sq, lap_f_sq, ricci = phi_sq * hess_sq, phi_sq * lap_f_sq, phi_sq * ricci
            transport = float(np.sum(
                row_dot(gps, [row_dot(hess[i], grad) - lap_f * grad[i] for i in range(n)]) * w))
        return (float(np.sum(hess_sq * w)), float(np.sum(lap_f_sq * w)),
                float(np.sum(ricci * w)), transport,
                pts.shape[0], int(np.count_nonzero(frac < 1.0)))

    items = [partial(chunk_sums, start) for start in range(0, cells, CHUNK)]
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


def _boundary_items(u, phi, domain, fd_h, per_dim):
    """Work items of the boundary integrals on per_dim^(n-1) Gauss-Legendre
    nodes of each piece, one per chunk of CHUNK nodes, each returning
    `_boundary_sums`; and the node count."""
    items = []
    total = 0
    for _, ob in domain.pieces():
        nodes, weights, reach = _piece_quadrature(ob.shape, domain.exhaustion_radius, per_dim)
        if nodes.shape[0] == 0:
            continue
        # one step per piece over all of its nodes, so that no sum depends
        # on the chunking
        step = fd_h if fd_h is not None else 1e-5 * (1.0 + reach)
        items += [partial(_boundary_sums, u, phi, ob, nodes[start:start + CHUNK],
                          weights[start:start + CHUNK], step)
                  for start in range(0, nodes.shape[0], CHUNK)]
        total += nodes.shape[0]
    return items, total


def _column_sums(parts, width):
    """Sum of each column of the items' partial sums, added in item order so
    that no total depends on the worker count; zeros when there is no item."""
    return [sum(column) for column in zip(*parts)] if parts else [0.0] * width


def reilly_residual(u, phi, domain, mesh_h):
    """Evaluate both sides of the localized identity and their mismatch.

    u must be C^2 on a neighborhood of the closed domain (stencils cross the
    boundary).  phi may be a CutoffFamily or None for phi == 1.  mesh_h, the
    volume mesh step, must be positive and finite.  A side with a non-finite
    term raises ContractViolation naming the side and its first such term; a
    solved GridField is NaN beyond its pieces and the exhaustion ball, where
    the stencils reach.
    """
    mesh_h = require_positive("mesh_h", mesh_h)
    fd_h = float(u.spacing.min()) if isinstance(u, GridField) else None
    volume_items, counters = _volume_items(u, phi, domain, mesh_h, fd_h)
    boundary_items, nodes = _boundary_items(u, phi, domain, fd_h, per_dim=_NODES_PER_DIM)
    # the mixed term on fewer nodes (and half a grid field's step) gives
    # mixed_term_uncertainty, a check of the boundary quadrature
    second_items, second_nodes = _boundary_items(u, phi, domain,
                                                 None if fd_h is None else 0.5 * fd_h,
                                                 per_dim=256)
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
    if solution.grid is None:
        raise ParameterError("chain evaluation expects a grid-backed solution")
    radii = require_radii(radii, "energy chain radii")
    centers, cells = weighted_gradient_cells(solution)
    rad = np.linalg.norm(centers, axis=1)
    reach = solution.grid.radius

    per_R = []
    consistent = True
    for R in radii:
        lhs = float(np.sum(cells[rad <= R]))
        rhs = (8.0 / (R * R)) * float(np.sum(cells[rad <= 2.0 * R]))
        truncated = 2.0 * R > reach
        holds = bool(lhs <= rhs * (1.0 + 1e-9))
        if not truncated and not holds:
            consistent = False
        per_R.append((R, lhs, rhs, holds, truncated))

    boundary_terms = {}
    f_minimal = {}
    for label, ob in domain.pieces():
        nodes, weights, _ = _piece_quadrature(ob.shape, domain.exhaustion_radius, _NODES_PER_DIM)
        h_f = ob.weighted_mean_curvature(nodes)
        ok, dudnu = normal_derivative(solution, domain, label, nodes)
        weight = np.exp(-0.5 * np.sum(nodes[ok] ** 2, axis=1)) * weights[ok]
        boundary_terms[label] = float(np.sum(h_f[ok] * dudnu ** 2 * weight))
        f_minimal[label] = bool(np.max(np.abs(h_f), initial=0.0) <= 1e-8)
    return ChainReport(per_R=per_R, consistent=consistent,
                       boundary_terms=boundary_terms, f_minimal=f_minimal)
