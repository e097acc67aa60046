"""Both sides of the localized Reilly identity, term by term.

The volume side integrates  phi^2 (|Hess u|^2 - (Lap_f u)^2 + Ric_f(grad u,
grad u))  plus the transport term  <grad phi^2, 1/2 grad |grad u|^2 -
Lap_f u grad u>  over the domain; the boundary side integrates the second
fundamental form, mixed, and surface-Laplacian terms over the (exactly
parametrized) boundary.  Ric_f is the identity (Gaussian space).

Volume quadrature is a midpoint rule on a Cartesian mesh with cut cells
weighted by the exact plane-cut fraction of the signed-distance crossing.
The cells stream in chunks of `energy._CHUNK` (32,768) built from flat
index ranges, with no full-box array; each chunk drops the cells lying
wholly outside a piece before computing normals and fractions, and
differentiates u with the 13-point stencil of `fields.fd_gradient_hessian`
(in 3D) at one step per call, 1e-5 (1 + largest box coordinate) unless fd_h
is given.  The boundary uses Gauss-Legendre panels at fixed high order, so
the reported residual tracks the volume mesh: 384^(n-1) nodes per piece,
and a second pass on 256^(n-1) nodes for `mixed_term_uncertainty`.  Each
pass takes one differencing step per piece from all of its nodes and then
streams the nodes in chunks of the same size.

One residual is one ordered stream of work items -- the cell chunks, then
the node chunks of both boundary passes -- run on os.cpu_count() threads by
`fields.ordered_map`, so no stage holds more than a chunk of points per
thread.  The items' partial sums are added in item order, so the result
does not depend on the worker count.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from itertools import combinations

import numpy as np

from .energy import (_CHUNK, _interface_segments, box_cells, cell_centres,
                     marching_boundary_integral, weighted_gradient_cells)
from .errors import MissingGeometryError, ParameterError
from .fields import GridField, fd_gradient_hessian, ordered_map, stencil_evaluations
from .geometry import radii

__all__ = ["CutoffFamily", "ReillyReport", "reilly_residual",
           "energy_growth_chain", "ChainReport"]


class CutoffFamily:
    """Radial cutoff: 1 on B_R, 0 outside B_2R, quintic transition.

    The transition is the unique quintic with value/first/second derivative
    (1,0,0) -> (0,0,0) across [R, 2R]; its gradient peaks at 15/(8R), under
    the required 2/R bound.
    """

    def __init__(self, R):
        if R <= 0:
            raise ParameterError("cutoff radius must be positive")
        self.R = float(R)

    def profile(self, r):
        s = (np.asarray(r, dtype=float) - self.R) / self.R
        s = np.clip(s, 0.0, 1.0)
        return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)

    def profile_derivative(self, r):
        s = (np.asarray(r, dtype=float) - self.R) / self.R
        out = np.where((s > 0.0) & (s < 1.0),
                       -30.0 * np.clip(s, 0, 1) ** 2 * (1.0 - np.clip(s, 0, 1)) ** 2 / self.R,
                       0.0)
        return out

    def __call__(self, x):
        return self.profile(radii(np.asarray(x, dtype=float)))

    def grad_phi_sq(self, x):
        """grad(phi^2) = 2 phi phi' x/|x| (vectorized over rows)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = radii(x)
        fac = 2.0 * self.profile(r) * self.profile_derivative(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(r[:, None] > 0, x / np.maximum(r, 1e-300)[:, None], 0.0)
        return fac[:, None] * unit

    def max_gradient(self, samples=20001):
        r = np.linspace(self.R, 2.0 * self.R, samples)
        return float(np.max(np.abs(self.profile_derivative(r))))

    def validate(self):
        r = np.linspace(0.0, 2.5 * self.R, 4001)
        vals = self.profile(r)
        ok = (vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
              and np.all(vals[r <= self.R] == 1.0)
              and np.all(vals[r >= 2.0 * self.R] == 0.0)
              and self.max_gradient() <= 2.0 / self.R + 1e-8)
        return bool(ok)


class _ConstantCutoff:
    """phi == 1 stand-in (transport term vanishes identically)."""

    R = math.inf

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1]) if x.ndim > 1 else 1.0

    def grad_phi_sq(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.zeros_like(x)


CONSTANT_CUTOFF = _ConstantCutoff()


@dataclass
class ReillyReport:
    """Both sides of the identity, their mismatch and its terms.

    mixed_term_uncertainty is the change of the mixed boundary term between
    384^(n-1) and 256^(n-1) Gauss-Legendre nodes per piece, a check of the
    boundary quadrature.  When an fd_h is in force (given, or the smallest
    spacing of a GridField) the second pass also halves the differencing
    step; with fd_h None each pass takes the step of its own nodes, the same
    on a sphere.  details holds deterministic counters: volume_cells,
    cut_cells, volume_fd_step, stencil_evaluations_per_point and
    boundary_nodes (the nodes of the 384^(n-1) pass).
    """

    volume_side: float
    boundary_side: float
    residual: float
    mesh_h: float
    term_breakdown: dict
    mixed_term_uncertainty: float = 0.0
    details: dict = dataclass_field(default_factory=dict)

    def to_json(self):
        return {"volume_side": self.volume_side, "boundary_side": self.boundary_side,
                "residual": self.residual, "mesh_h": self.mesh_h,
                "term_breakdown": self.term_breakdown,
                "mixed_term_uncertainty": self.mixed_term_uncertainty,
                "details": self.details}


# --------------------------------------------------------------------------
# cut-cell fractions


def _box_fraction(depth, normal, h):
    """Fraction of the cube [-h/2, h/2]^n lying in {depth + <normal, y> >= 0}.

    Vectorized over cells: depth (N,), normal (N, n) with |normal| <= 1 rows.
    Exact for planar interfaces (inclusion-exclusion over box corners).
    """
    depth = np.asarray(depth, dtype=float)
    a = np.abs(np.asarray(normal, dtype=float))
    N, n = a.shape
    frac = np.where(depth >= 0.0, 1.0, 0.0)

    # cells genuinely cut: |depth| below the cube half-diagonal reach
    reach = 0.5 * h * np.sum(a, axis=1)
    cut = np.abs(depth) < reach
    if not np.any(cut):
        return frac
    ac = a[cut]
    t = depth[cut] + 0.5 * h * np.sum(ac, axis=1)

    # drop components that are zero or negligible next to the largest (the
    # interface is then parallel to those axes): the inclusion-exclusion sum
    # below divides by their product, so tiny ones would swamp it in rounding
    active = ac > np.maximum(1e-12, 1e-5 * ac.max(axis=1, keepdims=True))
    d_eff = active.sum(axis=1)
    out = np.empty(t.size)
    for d in range(1, n + 1):
        rows = d_eff == d
        if not np.any(rows):
            continue
        tr = t[rows]
        # each row keeps exactly d active components, in axis order
        comp = ac[rows][active[rows]].reshape(-1, d)
        vol = np.zeros(rows.sum())
        idx = list(range(d))
        for size in range(d + 1):
            for subset in combinations(idx, size):
                shift = np.sum(comp[:, list(subset)], axis=1) if subset else 0.0
                vol += (-1.0) ** size * np.maximum(tr - h * shift, 0.0) ** d
        denom = math.factorial(d) * np.prod(comp, axis=1) * h ** d
        out[rows] = np.clip(vol / denom, 0.0, 1.0)
    zero_rows = d_eff == 0
    if np.any(zero_rows):
        out[zero_rows] = np.where(t[zero_rows] >= 0.0, 1.0, 0.0)
    frac[cut] = out
    return frac


def _volume_items(u, phi, domain, mesh_h, fd_h):
    """Work items of the volume integrals, one per chunk of _CHUNK cells, each
    returning (hess_sq, lap_f_sq, ricci, transport, kept cells, cut cells);
    and the counters fixed before any item runs."""
    lo, hi = domain.grid_box(domain.exhaustion_radius)
    h = float(mesh_h)
    counts, cells = box_cells(lo, hi, h)
    n = len(counts)
    pieces = [ob for _, ob in domain.pieces()]
    # one step per call, so that no sum depends on the chunking
    step = fd_h if fd_h is not None else 1e-5 * (1.0 + float(np.max(np.abs([lo, hi]))))
    # a cell whose centre lies deeper outside a piece than the cube's
    # half-diagonal has box fraction exactly 0 (the margin covers rounding)
    reach = 0.5 * h * math.sqrt(n) * (1.0 + 1e-9)

    def chunk_sums(start):
        pts = cell_centres(lo, counts, h, start, start + _CHUNK)
        depths = [ob.depth(pts) for ob in pieces]
        near = np.logical_and.reduce([d > -reach for d in depths])
        pts = pts[near]
        frac = np.ones(pts.shape[0])
        for ob, d in zip(pieces, depths):
            # the unit gradient of the depth is the inward normal
            frac = frac * _box_fraction(d[near], -ob.exterior_normal(pts), h)
        keep = frac > 0.0
        if not np.any(keep):
            return 0.0, 0.0, 0.0, 0.0, 0, 0
        pts = pts[keep]
        frac = frac[keep]

        grad, hess = fd_gradient_hessian(u.batch, pts, step)
        lap_f = np.einsum("kii->k", hess) - np.einsum("ki,ki->k", pts, grad)
        hess_sq = np.einsum("kij,kij->k", hess, hess)
        ricci = np.einsum("ki,ki->k", grad, grad)  # Ric_f = identity (Gaussian)
        phi_sq = np.asarray(phi(pts)) ** 2
        gps = phi.grad_phi_sq(pts)
        hess_grad = np.einsum("kij,kj->ki", hess, grad)
        transport = np.einsum("ki,ki->k", gps, hess_grad - lap_f[:, None] * grad)

        w = np.exp(-0.5 * np.sum(pts ** 2, axis=1)) * frac * h ** n
        return (float(np.sum(phi_sq * hess_sq * w)), float(np.sum(phi_sq * lap_f ** 2 * w)),
                float(np.sum(phi_sq * ricci * w)), float(np.sum(transport * w)),
                pts.shape[0], int(np.count_nonzero(frac < 1.0)))

    items = [partial(chunk_sums, start) for start in range(0, cells, _CHUNK)]
    return items, {"volume_fd_step": float(step),
                   "stencil_evaluations_per_point": stencil_evaluations(n)}


def _boundary_sums(u, phi, ob, nodes, weights, step):
    """(second_fundamental, mixed, surface_laplacian) over quadrature nodes
    of one piece, with its exact geometry."""
    n = nodes.shape[1]
    grad, hess = fd_gradient_hessian(u.batch, nodes, step)

    kappas = ob.principal_curvatures(nodes)
    if not np.allclose(kappas, kappas[:, :1]):
        raise MissingGeometryError("non-umbilic boundary pieces are not supported")
    kappa = kappas[:, 0]
    tr_a = kappa * (n - 1)

    nus = ob.exterior_normal(nodes)
    du_dnu = np.einsum("ki,ki->k", grad, nus)
    grad_tan = grad - du_dnu[:, None] * nus
    grad_tan_sq = np.einsum("ki,ki->k", grad_tan, grad_tan)
    x_tan = nodes - np.einsum("ki,ki->k", nodes, nus)[:, None] * nus

    a_term = kappa * grad_tan_sq
    hess_nu = np.einsum("kij,kj->ki", hess, nus)
    mixed = np.einsum("ki,ki->k", grad_tan, hess_nu) - a_term
    hess_nunu = np.einsum("ki,ki->k", hess_nu, nus)
    lap_surface = np.einsum("kii->k", hess) - hess_nunu + tr_a * du_dnu
    lap_f_surface = lap_surface - np.einsum("ki,ki->k", x_tan, grad_tan)
    h_f = tr_a + np.einsum("ki,ki->k", nodes, nus)
    lap_term = -(lap_f_surface - h_f * du_dnu) * du_dnu

    phi_sq = np.asarray(phi(nodes)) ** 2
    w = np.exp(-0.5 * np.sum(nodes ** 2, axis=1)) * weights * phi_sq
    return float(np.sum(a_term * w)), float(np.sum(mixed * w)), float(np.sum(lap_term * w))


def _boundary_items(u, phi, domain, fd_h, per_dim):
    """Work items of the boundary integrals on per_dim^(n-1) Gauss-Legendre
    nodes of each piece, one per chunk of _CHUNK nodes, each returning
    `_boundary_sums`; and the node count."""
    items = []
    total = 0
    for _, ob in domain.pieces():
        nodes, weights = ob.quad_nodes(domain.exhaustion_radius, per_dim=per_dim)
        if nodes.shape[0] == 0:
            continue
        # one step per piece over all of its nodes, so that no sum depends
        # on the chunking
        step = fd_h if fd_h is not None else 1e-5 * (1.0 + float(np.max(np.linalg.norm(nodes, axis=1))))
        items += [partial(_boundary_sums, u, phi, ob, nodes[start:start + _CHUNK],
                          weights[start:start + _CHUNK], step)
                  for start in range(0, nodes.shape[0], _CHUNK)]
        total += nodes.shape[0]
    return items, total


def _column_sums(parts, width):
    """Sum of each column of the items' partial sums, added in item order so
    that no total depends on the worker count; zeros when there is no item."""
    return [sum(column) for column in zip(*parts)] if parts else [0.0] * width


def reilly_residual(u, phi, domain, mesh_h, fd_h=None):
    """Evaluate both sides of the localized identity and their mismatch.

    u must be C^2 on a neighborhood of the closed domain (stencils cross the
    boundary).  phi may be a CutoffFamily or None for phi == 1.
    """
    if phi is None:
        phi = CONSTANT_CUTOFF
    if isinstance(u, GridField):
        fd_h = float(u.spacing.min()) if fd_h is None else fd_h
    volume_items, counters = _volume_items(u, phi, domain, mesh_h, fd_h)
    boundary_items, nodes = _boundary_items(u, phi, domain, fd_h, per_dim=384)
    # the mixed term on fewer nodes (and half an fd_h in force) gives
    # mixed_term_uncertainty, a check of the boundary quadrature
    second_items, _ = _boundary_items(u, phi, domain, None if fd_h is None else 0.5 * fd_h,
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
    boundary = sum(bnd_terms.values())
    second_mixed = _column_sums(parts[b:], 3)[1]
    breakdown = {f"volume_{k}": v for k, v in vol_terms.items()}
    breakdown.update({f"boundary_{k}": v for k, v in bnd_terms.items()})
    return ReillyReport(
        volume_side=volume, boundary_side=boundary,
        residual=abs(volume - boundary), mesh_h=float(mesh_h),
        term_breakdown=breakdown,
        mixed_term_uncertainty=abs(bnd_terms["mixed"] - second_mixed),
        details={"ricci_mode": "gaussian identity", "volume_cells": kept,
                 "cut_cells": cut, **counters, "boundary_nodes": nodes})


# --------------------------------------------------------------------------
# energy-growth chain check with boundary-term attribution


@dataclass
class ChainReport:
    per_R: list                    # (R, lhs, rhs, holds, truncated)
    consistent: bool
    boundary_terms: dict           # label -> int H_f (du/dnu)^2 over the piece
    f_minimal: dict                # label -> bool (max |H_f| <= 1e-8 at samples)
    eps: float
    K: float

    def to_json(self):
        return {"per_R": [{"R": r, "lhs": l, "rhs": rb, "holds": h, "truncated": t}
                          for r, l, rb, h, t in self.per_R],
                "consistent": self.consistent,
                "boundary_terms": self.boundary_terms,
                "f_minimal": self.f_minimal, "eps": self.eps, "K": self.K}


def energy_growth_chain(solution, domain, radii, eps=2.0, K=1.0):
    """Check K^2 int_{B_R} |grad u|^2 <= (4 eps / R^2) int_{B_2R} |grad u|^2
    radius by radius, and attribute failures to the dropped boundary term
    containing H_f (du/dnu)^2 on non-f-minimal boundary pieces."""
    if solution.grid is None:
        raise ParameterError("chain evaluation expects a grid-backed solution")
    centers, cells = weighted_gradient_cells(solution)
    rad = np.linalg.norm(centers, axis=1)
    reach = solution.grid.radius

    per_R = []
    consistent = True
    for R in radii:
        lhs = K * K * float(np.sum(cells[rad <= R]))
        rhs = (4.0 * eps / (R * R)) * float(np.sum(cells[rad <= 2.0 * R]))
        truncated = 2.0 * R > reach
        holds = bool(lhs <= rhs * (1.0 + 1e-9))
        if not truncated and not holds:
            consistent = False
        per_R.append((float(R), lhs, rhs, holds, truncated))

    boundary_terms = {}
    f_minimal = {}
    for label, ob in domain.pieces():
        bv = 0.0 if label == "sigma1" else 1.0
        term = marching_boundary_integral(
            solution, domain, label,
            lambda p, dudnu, ob=ob: ob.weighted_mean_curvature(p) * dudnu ** 2,
            boundary_value=bv)
        boundary_terms[label] = float(term)
        mids, _ = _interface_segments(solution, label)
        h_f = ob.weighted_mean_curvature(mids)
        f_minimal[label] = bool(np.max(np.abs(h_f), initial=0.0) <= 1e-8)
    return ChainReport(per_R=per_R, consistent=consistent,
                       boundary_terms=boundary_terms, f_minimal=f_minimal,
                       eps=eps, K=K)

