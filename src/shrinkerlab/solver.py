"""Dirichlet problems for the Ornstein-Uhlenbeck operator.

Closed-form 1D reductions (slab and radial annulus) serve as oracles for the
grid solver.  The grid solver discretizes  Lap u - <x, grad u> = 0  with a
second-order central stencil, switching the drift to upwind differences
whenever the cell Peclet number would break the M-matrix property, imposes
Dirichlet data on curved boundaries through shortened stencil legs (the cut
point found on the signed-distance zero crossing), and mirrors values across
the exhaustion sphere for the homogeneous Neumann condition.  The linear
system is solved by BiCGStab preconditioned with a Galerkin geometric
multigrid V-cycle on the lattice's h -> 2h hierarchy, so iteration counts do
not grow as h shrinks.

The discrete maximum principle is a hard postcondition: produced solutions
live in [0, 1].  scipy is imported where it is called, so the closed-form
profiles load no scipy module.
"""

import itertools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (ContractViolation, ParameterError, SingularSystemError,
                     SolverConvergenceError)
from .fields import GridField, ScalarField
from .quadrature import CumulativeProfile

__all__ = [
    "SolveReport",
    "Solution",
    "RadialProfile",
    "SlabProfile",
    "Grid",
    "solve_radial",
    "solve_slab",
    "solve_mixed_bvp",
    "solve_exhaustion",
]

# node classification codes
EXTERIOR, INTERIOR, DIRICHLET0, DIRICHLET1, NEUMANN_GAMMA = 0, 1, 2, 3, 4

_SNAP = 1e-3          # nodes closer than _SNAP * h to a Dirichlet surface are pinned
_DIRICHLET_BAND = 1.5  # ghost labels extend this many h beyond the surface


@dataclass
class SolveReport:
    iterations: int = 0
    linear_residual: float = 0.0
    exhaustion_history: list = dataclass_field(default_factory=list)
    converged: bool = True
    details: dict = dataclass_field(default_factory=dict)

    def to_json(self):
        return {"iterations": self.iterations, "linear_residual": self.linear_residual,
                "exhaustion_history": self.exhaustion_history, "converged": self.converged,
                "details": self.details}


@dataclass
class Solution:
    """A solved scalar field with its diagnostics.

    `field` is always callable on ambient points; grid-backed solutions also
    carry the classified grid, profile-backed ones the 1D profile object.
    """

    field: ScalarField
    report: SolveReport
    domain: object = None
    grid: object = None
    profile: object = None


# --------------------------------------------------------------------------
# closed-form 1D reductions: `__call__` maps an (n,) point to a float and
# (N, n) points to an (N,) array


class RadialProfile(CumulativeProfile):
    """u(r) = int_a^r s^(1-n) e^(s^2/2) ds, normalized to u(b) = 1."""

    def __init__(self, a, b, ambient_dim, samples=257):
        self.a, self.b, self.ambient_dim = float(a), float(b), int(ambient_dim)
        super().__init__(self.a, self.b, samples)

    def density(self, s):
        return s ** (1 - self.ambient_dim) * np.exp(0.5 * s * s)

    def __call__(self, p):
        return self.value(np.linalg.norm(np.asarray(p, dtype=float), axis=-1))


class SlabProfile(CumulativeProfile):
    """u(s) = int_h1^s e^(t^2/2) dt, normalized; depends on one coordinate."""

    def __init__(self, h1, h2, ambient_dim=2, axis=-1, samples=257):
        self.h1, self.h2 = float(h1), float(h2)
        self.ambient_dim = int(ambient_dim)
        self.axis = axis % self.ambient_dim
        super().__init__(self.h1, self.h2, samples)

    def density(self, t):
        return np.exp(0.5 * t * t)

    def __call__(self, p):
        return self.value(np.asarray(p, dtype=float)[..., self.axis])


def solve_radial(a, b, n, samples=257):
    """Closed-form radial Dirichlet solution on the annulus a <= r <= b in R^n."""
    if a <= 0:
        raise ParameterError("radial reduction needs a > 0 (drift is singular at the origin)")
    if not a < b:
        raise ParameterError("radial annulus requires a < b")
    if n < 2:
        raise ParameterError("ambient dimension must be >= 2")
    profile = RadialProfile(a, b, n, samples)
    report = SolveReport(details={"kind": "radial", "a": a, "b": b, "n": n})
    return Solution(field=profile.as_field(), report=report, profile=profile)


def solve_slab(h1, h2, ambient_dim=2, axis=-1, samples=257):
    """Closed-form slab Dirichlet solution between {s = h1} and {s = h2}."""
    if not h1 < h2:
        raise ParameterError("slab requires h1 < h2")
    profile = SlabProfile(h1, h2, ambient_dim, axis, samples)
    report = SolveReport(details={"kind": "slab", "h1": h1, "h2": h2})
    return Solution(field=profile.as_field(), report=report, profile=profile)


# --------------------------------------------------------------------------
# grid machinery


class Grid:
    """Classified uniform lattice over Omega intersected with the exhaustion ball.

    Nodes carry one of the codes exterior / interior / dirichlet0 / dirichlet1 /
    neumann_gamma.  The lattice is anchored at integer multiples of h so that
    axis-aligned boundaries hit nodes exactly; a 2h ghost margin guarantees
    every solved node has in-array neighbors.
    """

    def __init__(self, domain, h, radius=None):
        self.domain = domain
        self.h = float(h)
        self.radius = float(domain.exhaustion_radius if radius is None else radius)
        lo, hi = domain.grid_box(self.radius)
        self.lo_idx = np.floor(np.asarray(lo) / self.h).astype(int) - 2
        hi_idx = np.ceil(np.asarray(hi) / self.h).astype(int) + 2
        self.shape = tuple(hi_idx - self.lo_idx + 1)
        self.ndim = len(self.shape)

        axes = [ (self.lo_idx[ax] + np.arange(self.shape[ax])) * self.h
                 for ax in range(self.ndim) ]
        self.axes = axes
        mesh = np.meshgrid(*axes, indexing="ij")
        self.points = np.stack([m.reshape(-1) for m in mesh], axis=1)
        self.r = np.linalg.norm(self.points, axis=1)

        self.piece_labels = [label for label, _ in domain.pieces()]
        self.depths = {label: np.asarray(ob.depth(self.points), dtype=float)
                       for label, ob in domain.pieces()}

        snap = _SNAP * self.h
        inside = np.ones(self.points.shape[0], dtype=bool)
        for d in self.depths.values():
            inside &= d > snap
        solved = inside & (self.r <= self.radius)

        if "sigma2" in self.depths:
            sep = self.depths["sigma1"] + self.depths["sigma2"]
            if solved.any() and float(sep[solved].min()) <= 2 * self.h:
                raise ParameterError(
                    "boundary pieces are closer than 2 grid cells inside the domain")

        codes = np.zeros(self.points.shape[0], dtype=np.int8)
        band = _DIRICHLET_BAND * self.h
        for label, code in (("sigma1", DIRICHLET0), ("sigma2", DIRICHLET1)):
            if label not in self.depths:
                continue
            d = self.depths[label]
            others_ok = np.ones_like(d, dtype=bool)
            for other, dother in self.depths.items():
                if other != label:
                    others_ok &= dother > snap
            codes[(d <= snap) & (d >= -band) & others_ok] = code

        codes[solved] = INTERIOR
        # solved nodes with an axis neighbor beyond the ball are Neumann-gamma
        solved_nd = solved.reshape(self.shape)
        r_nd = self.r.reshape(self.shape)
        gamma = np.zeros(self.shape, dtype=bool)
        for ax in range(self.ndim):
            for shift in (1, -1):
                nb_out = np.roll(r_nd, -shift, axis=ax) > self.radius
                gamma |= solved_nd & nb_out
        codes[gamma.reshape(-1) & solved] = NEUMANN_GAMMA
        self.codes = codes
        self.solved_mask = solved
        self.snap = snap

    def node_count(self, code):
        return int(np.sum(self.codes == code))

    def solved_points(self):
        return self.points[self.solved_mask]

    def check_stencil_invariant(self):
        """Every interior node's axis neighbors are classified non-exterior."""
        codes_nd = self.codes.reshape(self.shape)
        interior = codes_nd == INTERIOR
        ok = True
        for ax in range(self.ndim):
            for shift in (1, -1):
                nb = np.roll(codes_nd, -shift, axis=ax)
                ok &= not np.any(interior & (nb == EXTERIOR) & ~np.roll(
                    self.r.reshape(self.shape) > self.radius, -shift, axis=ax))
        return bool(ok)


def _assemble(grid, domain, boundary_values=(0.0, 1.0)):
    """Sparse operator rows for Lap_f at all solved nodes.

    Returns (A, b, unknown_flat_indices).  Dirichlet legs contribute to b via
    the cut fraction theta on the signed-distance zero crossing; legs leaving
    the exhaustion ball are mirrored (homogeneous Neumann).
    """
    import scipy.sparse as sps

    h = grid.h
    codes = grid.codes
    solved = grid.solved_mask
    n_unknown = int(solved.sum())
    if n_unknown == 0:
        raise ParameterError("no solvable nodes: grid too coarse for the domain")

    unknown_of = np.full(codes.size, -1, dtype=np.int64)
    unknown_of[solved] = np.arange(n_unknown)
    flat_solved = np.nonzero(solved)[0]

    strides = np.array([int(np.prod(grid.shape[ax + 1:])) for ax in range(grid.ndim)])
    boundary_value = {"sigma1": float(boundary_values[0]), "sigma2": float(boundary_values[1])}

    diag = np.zeros(n_unknown)
    rhs = np.zeros(n_unknown)
    rows, cols, vals = [], [], []
    any_dirichlet = codes[codes == DIRICHLET0].size + codes[codes == DIRICHLET1].size > 0
    defensive_mirrors = 0

    snap = grid.snap
    for ax in range(grid.ndim):
        x_ax = grid.points[flat_solved, ax]
        v = -x_ax  # drift velocity along this axis

        arm = {}
        for sgn in (+1, -1):
            nb = flat_solved + sgn * strides[ax]
            L = np.full(n_unknown, h)
            kind = np.zeros(n_unknown, dtype=np.int8)  # 0 solved, 1 dirichlet, 2 mirror
            uB = np.zeros(n_unknown)

            nb_solved = solved[nb]
            theta_best = np.full(n_unknown, np.inf)
            for label in grid.piece_labels:
                d0 = grid.depths[label][flat_solved]
                d1 = grid.depths[label][nb]
                crossing = (~nb_solved) & (d1 <= snap)
                with np.errstate(divide="ignore", invalid="ignore"):
                    theta = np.where(crossing, d0 / np.maximum(d0 - d1, 1e-300), np.inf)
                better = crossing & (theta < theta_best)
                theta_best = np.where(better, theta, theta_best)
                kind = np.where(better, 1, kind)
                uB = np.where(better, boundary_value[label], uB)
            cut = kind == 1
            L[cut] = np.clip(theta_best[cut], _SNAP, 1.0) * h
            ball_out = (~nb_solved) & (~cut) & (grid.r[nb] > grid.radius)
            kind[ball_out] = 2
            stray = (~nb_solved) & (kind == 0)
            if np.any(stray):
                kind[stray] = 2
                defensive_mirrors += int(stray.sum())
            arm[sgn] = (nb, L, kind, uB)

        nb_p, L_p, kind_p, uB_p = arm[+1]
        nb_m, L_m, kind_m, uB_m = arm[-1]

        # second derivative with unequal arms
        c_p = 2.0 / (L_p * (L_p + L_m))
        c_m = 2.0 / (L_m * (L_p + L_m))
        coef_p = c_p.copy()
        coef_m = c_m.copy()
        coef_0 = -(c_p + c_m)

        # drift: central on unequal arms while the M-matrix condition holds
        central = (v >= -2.0 / L_m) & (v <= 2.0 / L_p)
        up_fwd = v > 2.0 / L_p
        coef_p += np.where(central, v * L_m / (L_p * (L_p + L_m)), 0.0)
        coef_m -= np.where(central, v * L_p / (L_m * (L_p + L_m)), 0.0)
        coef_0 += np.where(central, v * (L_p - L_m) / (L_p * L_m), 0.0)
        coef_p += np.where(up_fwd, v / L_p, 0.0)
        coef_0 -= np.where(up_fwd, v / L_p, 0.0)
        up_bwd = ~central & ~up_fwd
        coef_m -= np.where(up_bwd, v / L_m, 0.0)
        coef_0 += np.where(up_bwd, v / L_m, 0.0)

        diag += coef_0
        for coef, nb, kind, uB in ((coef_p, nb_p, kind_p, uB_p),
                                   (coef_m, nb_m, kind_m, uB_m)):
            is_solved = kind == 0
            rows.append(np.arange(n_unknown)[is_solved])
            cols.append(unknown_of[nb[is_solved]])
            vals.append(coef[is_solved])
            is_dir = kind == 1
            rhs[is_dir] -= coef[is_dir] * uB[is_dir]
            is_mirror = kind == 2
            diag[is_mirror] += coef[is_mirror]
            if np.any(is_dir):
                any_dirichlet = True

    if not any_dirichlet:
        raise SingularSystemError(
            "no Dirichlet data anywhere on the boundary: the pure-Neumann weighted "
            "Laplacian is singular and only constant fields solve it (f-parabolicity)")

    rows.append(np.arange(n_unknown))
    cols.append(np.arange(n_unknown))
    vals.append(diag)
    # the CSR conversion is the memory peak of a solve: free the pieces first
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    del rows, cols, vals
    A = sps.csr_matrix(entries, shape=(n_unknown, n_unknown))
    return A, rhs, flat_solved, defensive_mirrors


def _weighted_residual(A_scaled, b_scaled, x, weights):
    r = b_scaled - A_scaled @ x
    return float(math.sqrt(np.sum(weights * r * r) / np.sum(weights)))


# --------------------------------------------------------------------------
# Galerkin geometric multigrid (Briggs-Henson-McCormick, A Multigrid
# Tutorial, 2000; Trottenberg-Oosterlee-Schueller, Multigrid, 2001)

_OMEGA = 0.8            # damped-Jacobi weight of the smoother
_SWEEPS = 2             # smoothing sweeps before and after each coarse correction
_COARSEST = 2000        # coarsen until at most this many unknowns, then factor


def _prolongation(idx):
    """Multilinear prolongation from the even sublattice of global indices.

    `idx` is the (n, d) array of global lattice indices of the unknowns.  Each
    index i takes the parents floor(i/2) and ceil(i/2) with weight 1/2 along
    every axis (one parent of weight 1 for even i), so a node has up to 2^d
    parents.  Returns (P, coarse_idx): P is n x m over the m parents that some
    node references, numbered in lexicographic order of their indices.
    """
    import scipy.sparse as sps

    n, d = idx.shape
    corners = np.array(list(itertools.product((0, 1), repeat=d)))
    lo = idx.min(axis=0) >> 1
    shape = tuple(((idx.max(axis=0) + 1) >> 1) - lo + 1)
    # flat index of each node's parents in the coarse bounding box, (n, 2^d)
    flat = np.ravel_multi_index(
        tuple(((idx[:, ax, None] + corners[:, ax]) >> 1) - lo[ax] for ax in range(d)), shape)
    # a mask and its running count number the parents like a 1-D np.unique
    # would, without sorting n 2^d keys
    used = np.zeros(math.prod(shape), dtype=bool)
    used[flat] = True
    cols = (np.cumsum(used) - 1)[flat]
    P = sps.csr_matrix((np.full(flat.size, 0.5 ** d), cols.reshape(-1),
                        np.arange(0, flat.size + 1, corners.shape[0])),
                       shape=(n, np.count_nonzero(used)))
    P.sum_duplicates()
    coarse_idx = np.array(np.unravel_index(np.flatnonzero(used), shape)).T + lo
    return P, coarse_idx


class _VCycle:
    """One V-cycle of the Galerkin hierarchy A_{l+1} = P_l^T A_l P_l.

    Damped Jacobi smooths every level but the coarsest, which is factored
    with sparse LU.  Called with a residual, the cycle starts from zero, so
    it is a fixed linear operator and can precondition BiCGStab.
    """

    def __init__(self, A, idx):
        import scipy.sparse.linalg as spla

        self.levels = []            # (A, omega / diag, P, P^T) of each smoothed level
        while A.shape[0] > _COARSEST:
            P, idx = _prolongation(idx)
            if P.shape[1] >= A.shape[0]:
                break
            self.levels.append((A, _OMEGA / A.diagonal(), P, P.T.tocsr()))
            A = (P.T @ (A @ P)).tocsr()
        self.unknowns = [lvl[0].shape[0] for lvl in self.levels] + [A.shape[0]]
        try:
            self.coarse = spla.splu(A.tocsc())
        except RuntimeError as exc:
            raise SingularSystemError(
                f"coarsest multigrid operator ({A.shape[0]} unknowns) is singular: {exc}") from exc

    def __call__(self, r, level=0):
        if level == len(self.levels):
            return self.coarse.solve(r)
        A, wdinv, P, Pt = self.levels[level]
        x = wdinv * r
        for _ in range(_SWEEPS - 1):
            x += wdinv * (r - A @ x)
        x += P @ self(Pt @ (r - A @ x), level + 1)
        for _ in range(_SWEEPS):
            x += wdinv * (r - A @ x)
        return x


def _multigrid_bicgstab(A_s, b_s, x0, idx, weights, tol, max_iter):
    """BiCGStab on A_s x = b_s, preconditioned with one V-cycle per application.

    Returns (x, weighted residual after every iteration, unknowns per level).
    An iteration applies the V-cycle twice, so the iteration count is half
    the number of applications, rounded up: scipy returns from a half-step
    that converges without calling back, and that last half iteration still
    counts.  The hierarchy lives only inside this call, so it is freed before
    the caller allocates the long-lived output field; allocated the other way
    round, that field would keep the hierarchy's heap memory resident.
    """
    import scipy.sparse.linalg as spla

    vcycle = _VCycle(A_s, idx)
    history = []
    applications = 0

    def _precondition(r):
        nonlocal applications
        applications += 1
        return vcycle(r)

    def _callback(xk):
        history.append(_weighted_residual(A_s, b_s, xk, weights))

    M = spla.LinearOperator(A_s.shape, matvec=_precondition, dtype=float)
    x, _ = spla.bicgstab(A_s, b_s, x0=x0, rtol=1e-14, atol=0.01 * tol,
                         maxiter=max_iter, M=M, callback=_callback)
    if len(history) < (applications + 1) // 2:
        history.append(_weighted_residual(A_s, b_s, x, weights))
    return x, history, vcycle.unknowns


def solve_mixed_bvp(domain, grid=None, tol=1e-10, max_iter=200, h=None,
                    initial_guess=None, boundary_values=(0.0, 1.0)):
    """Solve the mixed problem on Omega_k: Lap_f u = 0, u = 0 / 1 on the two
    boundary pieces, homogeneous Neumann across the exhaustion sphere.

    The Jacobi-scaled system D^-1 A u = D^-1 b is solved by BiCGStab,
    preconditioned with one Galerkin geometric-multigrid V-cycle (damped
    Jacobi smoothing, sparse LU on the coarsest level), so the iteration
    count does not grow as h shrinks.  Convergence is declared in the
    Gaussian-weighted residual norm of the scaled system.  The returned field
    satisfies 0 <= u <= 1 (discrete maximum principle).
    """
    import scipy.sparse as sps

    if grid is None:
        if h is None:
            raise ParameterError("provide either a classified grid or a spacing h")
        grid = Grid(domain, h)
    A, b, flat_solved, defensive = _assemble(grid, domain, boundary_values)
    n = b.size

    d = A.diagonal()
    if np.any(d == 0.0):
        raise SingularSystemError("zero diagonal entry in the discrete operator")
    Dinv = sps.diags(1.0 / d)
    A_s = (Dinv @ A).tocsr()
    b_s = b / d
    weights = np.exp(-0.5 * grid.r[flat_solved] ** 2)

    if initial_guess is None:
        x0 = np.zeros(n)
    elif np.isscalar(initial_guess):
        x0 = np.full(n, float(initial_guess))
    else:
        x0 = np.asarray(initial_guess, dtype=float)
        if x0.shape != (n,):
            raise ParameterError(f"initial guess must have {n} entries")

    idx = np.array(np.unravel_index(flat_solved, grid.shape)).T + grid.lo_idx
    x, history, level_unknowns = _multigrid_bicgstab(A_s, b_s, x0, idx, weights,
                                                     tol, max_iter)
    iterations = len(history)
    wres = _weighted_residual(A_s, b_s, x, weights)
    history.append(wres)
    if wres > tol:
        raise SolverConvergenceError(
            f"linear solve stalled at weighted residual {wres:.3e} > tol {tol:.3e} "
            f"after {iterations} iterations", residual_history=history)

    lo_bv, hi_bv = min(boundary_values), max(boundary_values)
    slack = 10.0 * max(tol, 1e-12)
    if x.min() < lo_bv - slack or x.max() > hi_bv + slack:
        raise ContractViolation(
            f"discrete maximum principle violated: range [{x.min():.3e}, {x.max():.3e}]")
    x = np.clip(x, lo_bv, hi_bv)

    values = np.full(grid.codes.size, np.nan)
    values[grid.codes == DIRICHLET0] = boundary_values[0]
    values[grid.codes == DIRICHLET1] = boundary_values[1]
    values[flat_solved] = x
    gf = GridField(origin=[ax[0] for ax in grid.axes], spacing=grid.h,
                   values=values.reshape(grid.shape))

    report = SolveReport(
        iterations=iterations, linear_residual=wres, converged=True,
        details={"h": grid.h, "radius": grid.radius, "unknowns": n,
                 "interior_nodes": grid.node_count(INTERIOR),
                 "neumann_nodes": grid.node_count(NEUMANN_GAMMA),
                 "dirichlet_nodes": grid.node_count(DIRICHLET0) + grid.node_count(DIRICHLET1),
                 "defensive_mirrors": defensive,
                 "levels": len(level_unknowns), "level_unknowns": level_unknowns,
                 "residual_history": history})
    return Solution(field=gf, report=report, domain=domain, grid=grid)


def max_node_error(solution, reference, within_radius=None):
    """Max |u - reference| over solved nodes, optionally restricted to a ball.

    `reference` maps the (N, n) array of compared nodes to (N,) values in one
    call, as the closed-form profiles do.

    Restricting to a fixed interior compact separates discretization error
    from the exhaustion truncation collar near Gamma_k.
    """
    grid = solution.grid
    mask = grid.solved_mask
    if within_radius is not None:
        mask = mask & (grid.r <= within_radius)
    pts = grid.points[mask]
    if pts.shape[0] == 0:
        raise ParameterError(f"no solved node lies within_radius={within_radius}")
    vals = solution.field.values.reshape(-1)[mask]
    ref = np.asarray(reference(pts), dtype=float)
    if ref.shape != vals.shape:
        raise ContractViolation(
            f"reference must map the ({pts.shape[0]}, {pts.shape[1]}) node array to "
            f"({pts.shape[0]},) values in one call; it returned shape {ref.shape}")
    return float(np.max(np.abs(vals - ref)))


def solve_exhaustion(domain, radii, h, tol=1e-6, linear_tol=1e-10, max_iter=200,
                     compact_radius=None):
    """Solve the mixed problem on a growing family of exhaustion balls.

    Records the sup difference of successive solutions on the common compact
    Omega intersected with the ball of half the first exhaustion radius (the
    convergence of the exhaustion family is uniform on fixed compacts; the
    truncation collar near each Gamma_k is excluded by construction).
    Declares convergence when the last difference drops below tol; a
    difference growing by more than tol flags an under-resolved grid.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise ParameterError("exhaustion needs at least 3 increasing radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ParameterError("exhaustion radii must be strictly increasing")
    if compact_radius is None:
        compact_radius = 0.5 * radii[0]

    history = []
    prev = None
    solution = None
    for rk in radii:
        dom_k = domain.with_radius(rk)
        solution = solve_mixed_bvp(dom_k, h=h, tol=linear_tol, max_iter=max_iter)
        solution.report.details["exhaustion_radius"] = rk
        if prev is not None:
            diff = _sup_difference_on_compact(prev, solution, compact_radius)
            history.append((rk, diff))
        prev = solution

    diffs = [d for _, d in history]
    for earlier, later in zip(diffs, diffs[1:]):
        if later > earlier + tol:
            raise SolverConvergenceError(
                f"exhaustion differences grew from {earlier:.3e} to {later:.3e}: "
                "grid under-resolved for this domain", residual_history=diffs)
    converged = bool(diffs and diffs[-1] < tol)
    solution.report.exhaustion_history = history
    solution.report.converged = converged
    solution.report.details["compact_radius"] = compact_radius
    return solution


def _sup_difference_on_compact(prev_solution, new_solution, compact_radius):
    """Sup |u_new - u_prev| over prev-grid solved nodes within the compact."""
    gp, gn = prev_solution.grid, new_solution.grid
    mask = gp.solved_mask & (gp.r <= compact_radius)
    if not mask.any():
        raise ParameterError("comparison compact contains no solved nodes")
    offset = (gp.lo_idx - gn.lo_idx)
    idx_prev = np.array(np.unravel_index(np.nonzero(mask)[0], gp.shape)).T
    flat_new = np.ravel_multi_index((idx_prev + offset).T, gn.shape)
    vals_prev = prev_solution.field.values.reshape(-1)[mask]
    vals_new = new_solution.field.values.reshape(-1)[flat_new]
    good = ~np.isnan(vals_new)
    if not good.any():
        raise ParameterError(f"comparison compact of radius {compact_radius} has no "
                             "node solved on both exhaustion grids")
    return float(np.max(np.abs(vals_new[good] - vals_prev[good])))
