"""Both sides of the localized Reilly identity, term by term.

The volume side integrates  phi^2 (|Hess u|^2 - (Lap_f u)^2 + Ric_f(grad u,
grad u))  plus the transport term  <grad phi^2, 1/2 grad |grad u|^2 -
Lap_f u grad u>  over the domain; the boundary side integrates the second
fundamental form, mixed, and surface-Laplacian terms over the (exactly
parametrized) boundary.  Ric_f is the identity (Gaussian space).

The volume side is a midpoint rule over the items of `energy.cell_stream`
under its fraction rule (`energy.kept_fractions`): each cell of positive
exact plane-cut fraction, weighted by it.  An item differentiates u with
the 13-point stencil of `fields.fd_gradient_hessian` (in 3D) at one step
per call, 1e-5 (1 + largest box coordinate), and drops each array once
read, so it peaks in the stencil at about 216 bytes a kept cell.  Both
sides contract the stencil's component-major arrays component by component
(`fields.row_dot`), and the cutoff gives phi^2 and grad(phi^2) from one
radius and one clipped transition per row.  For phi == 1 (phi None) both
sides skip the factor phi^2, and the volume side skips the transport term,
which is then exactly +0.0.

The boundary side is a tensor Gauss-Legendre rule on each piece's exact
parametrization: 128^(n-1) nodes per piece, and a second pass on 96^(n-1)
nodes for `mixed_term_uncertainty`.  The field is analytic (a GridField is
a usage error), so the rule converges geometrically: on the unit ball and
the annuli (0.5, 2), at a step where central differences are exact,
384^(n-1) and 256^(n-1) nodes move no boundary term by more than 1e-11
relative.  The residual then tracks the volume mesh alone, except where
phi == 1 and the domain meets the exhaustion sphere: neither side has a
term there, and the residual measures the missing one.  Each pass takes
one differencing step per piece from the largest radius of its nodes.  A
piece's nodes, weights and largest radius are built once per (shape,
exhaustion radius, nodes per dimension) and cached read-only
(`_piece_quadrature`), so repeated residuals and energy chains on one
domain only read them.

One residual is one ordered stream of work items -- the cell items, then
one item per piece and pass, at most 16,384 nodes -- run on os.cpu_count()
threads by `fields.ordered_map`, so a thread holds one item at a time: on
the 3D unit ball a cell item peaks at about 6 MB traced, a boundary item at
3.9 MB (248 bytes a node).  The partial sums are added in item order, so
the result does not depend on the worker count.  The report's
field_evaluations counts every point at which u is evaluated: the
stencil's evaluations per point times the kept cells and the nodes of both
boundary passes.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, partial

import numpy as np

from .energy import ball_masses, cell_stream, kept_fractions, normal_derivative
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
        at the (N, n) rows of x, with phi' = -30 s^2 (1 - s)^2 / R on the
        transition (0, 1) and 0 elsewhere; no direction at the origin."""
        r = radii(x)
        s = self._transition(r)
        phi = self._value(s)
        fac = 2.0 * phi * np.where((s > 0.0) & (s < 1.0),
                                   -30.0 * s ** 2 * (1.0 - s) ** 2 / self.R, 0.0)
        grad = x.T / np.maximum(r, 1e-300)
        grad *= fac
        return phi ** 2, grad


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


def _volume_items(u, phi, domain, mesh_h):
    """Work items of the volume integrals, one per item of the cell stream
    (`energy.cell_stream`) under its fraction rule, each returning
    (hess_sq, lap_f_sq, ricci, transport, kept cells, cut cells); and the
    counters fixed before any item runs."""
    lo, hi = domain.grid_box(domain.exhaustion_radius)
    h = float(mesh_h)
    n = domain.ambient_dim
    pieces = [ob for _, ob in domain.pieces()]
    # one step per call, so that no sum depends on the chunking
    step = 1e-5 * (1.0 + float(np.max(np.abs([lo, hi]))))

    def item_sums(cells):
        pts, frac = kept_fractions(pieces, cells(), h)
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

    items = [partial(item_sums, cells)
             for cells in cell_stream(domain, domain.exhaustion_radius, h)]
    return items, {"volume_fd_step": float(step),
                   "stencil_evaluations_per_point": stencil_evaluations(n)}


def _boundary_sums(u, phi, ob, nodes, weights, step):
    """(second_fundamental, mixed, surface_laplacian) over quadrature nodes
    of one piece, with its exact geometry: kappa |grad_Sigma u|^2, <grad_Sigma
    u, Hess u nu> - kappa |grad_Sigma u|^2 and -(Lap_{Sigma,f} u - H_f u_nu) u_nu
    on an umbilic piece (A = kappa I), u_nu = <grad u, nu>.  As |nu| = 1,
    |grad_Sigma u|^2 = |grad u|^2 - u_nu^2 and <grad_Sigma u, Hess u nu> =
    <grad u, Hess u nu> - u_nu Hess u(nu, nu); in Lap_{Sigma,f} u - H_f u_nu =
    Lap u - Hess u(nu, nu) + tr A u_nu - <x_T, grad_Sigma u> - (tr A + <x, nu>)
    u_nu, tr A cancels and the x terms sum to -<x, grad u>."""
    kappas = ob.principal_curvatures(nodes)
    # planes and spheres, the only pieces, return exactly equal curvatures
    if not np.all(kappas == kappas[:, :1]):
        raise MissingGeometryError("non-umbilic boundary pieces are not supported")
    kappa = kappas[:, 0]
    x = nodes.T.copy()
    w = np.exp(-0.5 * row_dot(x, x)) * weights
    if phi is not None:
        w = w * np.asarray(phi(nodes)) ** 2
    # the stencil runs once the weights are formed, so the item peaks in it
    grad, hess = fd_gradient_hessian(u.batch, nodes, step)
    nu = ob.exterior_normal(nodes).T.copy()
    du_dnu = row_dot(grad, nu)
    hess_nu = [row_dot(row, nu) for row in hess]
    hess_nu_nu = row_dot(hess_nu, nu)
    a_term = kappa * (row_dot(grad, grad) - du_dnu ** 2)
    mixed = row_dot(grad, hess_nu) - du_dnu * hess_nu_nu - a_term
    lap_term = -(trace(hess) - hess_nu_nu - row_dot(x, grad)) * du_dnu
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
    """Work items of the boundary integrals, one per piece with nodes: its
    per_dim^(n-1) Gauss-Legendre nodes, each item returning `_boundary_sums`
    at one differencing step from the piece's largest node radius; and the
    node count.  Pieces have surface rules in R^2 and R^3 only, so an item
    holds at most 128^2 = 16,384 nodes, which peak at 3.9 MB traced."""
    items = []
    total = 0
    for _, ob in domain.pieces():
        nodes, weights, reach = _piece_quadrature(ob.shape, domain.exhaustion_radius, per_dim)
        if nodes.shape[0] == 0:
            continue
        items.append(partial(_boundary_sums, u, phi, ob, nodes, weights, 1e-5 * (1.0 + reach)))
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
    # one ordered stream, so the boundary items share the pool with the cells
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
