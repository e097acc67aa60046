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

A solve holds one copy of its operator.  `_assemble` stages every row in a
fixed-width block of 2n + 1 slots in descending column order, scales it in
place to D^-1 A and compresses the block once to int32 CSR, with no COO
stage; rows whose arms are both h long read their coefficients from a
per-line table, and only the rows with a cut or mirrored leg evaluate the
unequal-arm formula.  Descending order is the order in which scipy's
sparse product of a diagonal with a sorted A stores the rows, so the
scaled arrays equal that product's bit for bit and the smoother's sums keep
their last bits.  Each level's prolongation is the Kronecker product of
per-axis 1D linear interpolation, restricted to the unknowns and the
parents they reference, and is converted to CSC once, which finds those
parents and gives P^T in CSR for the Galerkin product.  The grid keeps no
coordinate array; coordinates are rebuilt from the axes for the nodes that
need them.  It keeps no node classes either: the solved mask marks the
unknowns, and a solution's values are NaN exactly where a node has no data.

The discrete maximum principle is a hard postcondition: produced solutions
live in [0, 1].  scipy is imported where it is called: a closed-form
profile loads scipy.special only for the Gamma functions of its integrals.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (ContractViolation, ParameterError, SingularSystemError,
                     SolverConvergenceError, require_positive, require_radii)
from .fields import GridField, ScalarField
from .geometry import gaussian_ball_mass, sphere_measure
from .quadrature import CumulativeProfile, gauss_legendre

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

# the Dirichlet data of each boundary piece
DIRICHLET_DATA = {"sigma1": 0.0, "sigma2": 1.0}

_SNAP = 1e-3          # nodes closer than _SNAP * h to a Dirichlet surface are pinned
_DIRICHLET_BAND = 1.5  # ghost labels extend this many h beyond the surface


@dataclass
class SolveReport:
    iterations: int = 0
    linear_residual: float = 0.0
    exhaustion_history: list = dataclass_field(default_factory=list)
    converged: bool = True
    details: dict = dataclass_field(default_factory=dict)


@dataclass
class Solution:
    """A solved scalar field with its diagnostics.

    `field` is always callable on ambient points; grid-backed solutions also
    carry their `Grid`, profile-backed ones the 1D profile object.
    """

    field: ScalarField
    report: SolveReport
    grid: object = None
    profile: object = None

    def grid_for(self, reader):
        """The `Grid`, for the grid-only `reader` (its name); a
        profile-backed solution has none, a ParameterError naming the reader."""
        if self.grid is None:
            raise ParameterError(f"{reader} needs a grid-backed solution")
        return self.grid


# --------------------------------------------------------------------------
# closed-form 1D reductions: `__call__` maps an (n,) point to a float and
# (N, n) points to an (N,) array; `reduced_mass` c and `ball_mass(R)` give
# int |grad u|^2 e^-f = c / F(hi) (Green's identity) and its part in B_R


def _ambient_dim(n):
    """The ambient dimension n of a closed form as an int; below 2 a ParameterError."""
    if int(n) < 2:
        raise ParameterError(f"ambient dimension must be at least 2, got {n!r}")
    return int(n)


class RadialProfile(CumulativeProfile):
    """u(r) = int_a^r s^(1-n) e^(s^2/2) ds, normalized to u(b) = 1."""

    def __init__(self, a, b, ambient_dim):
        self.a, self.b, self.ambient_dim = float(a), float(b), _ambient_dim(ambient_dim)
        if not self.a > 0:
            raise ParameterError("radial reduction needs a > 0 (drift is singular at the origin)")
        super().__init__(self.a, self.b)

    def density(self, s):
        return s ** (1 - self.ambient_dim) * np.exp(0.5 * s * s)

    def __call__(self, p):
        return self.value(np.linalg.norm(np.asarray(p, dtype=float), axis=-1))

    @property
    def reduced_mass(self):
        """|S^(n-1)|, read on use, as its Gamma function loads scipy.special."""
        return sphere_measure(self.ambient_dim)

    def ball_mass(self, R):
        """int_{B_R} |grad u|^2 e^-f = c u(min(b, R)) / F(hi)."""
        return self.reduced_mass * self.value(min(self.b, R)) / self.normalization


class SlabProfile(CumulativeProfile):
    """u(s) = int_h1^s e^(t^2/2) dt, normalized; depends on one coordinate."""

    def __init__(self, h1, h2, ambient_dim=2, axis=-1):
        self.h1, self.h2 = float(h1), float(h2)
        self.ambient_dim = _ambient_dim(ambient_dim)
        self.axis = axis % self.ambient_dim
        super().__init__(self.h1, self.h2)

    def density(self, t):
        return np.exp(0.5 * t * t)

    def __call__(self, p):
        return self.value(np.asarray(p, dtype=float)[..., self.axis])

    @property
    def reduced_mass(self):
        """(2 pi)^((n-1)/2), the Gaussian mass of the tangential directions."""
        return (2.0 * math.pi) ** ((self.ambient_dim - 1) / 2.0)

    def ball_mass(self, R):
        """The slice at height s is a tangential ball of radius sqrt(R^2 - s^2)
        and |u'(s)|^2 e^(-s^2/2) = g(s) / F(hi)^2; s = R sin(theta) turns the
        sqrt endpoint singularity into the smooth factor R cos(theta), for one
        order-64 Gauss-Legendre rule in theta."""
        lo, hi = max(self.h1, -R), min(self.h2, R)
        if lo >= hi:
            return 0.0
        t0, t1 = math.asin(lo / R), math.asin(hi / R)
        x, w = gauss_legendre(64)
        theta = t0 + (t1 - t0) * x
        reach = R * np.cos(theta)
        dens = (self.density(R * np.sin(theta))
                * gaussian_ball_mass(self.ambient_dim - 1, reach) * reach)
        return (t1 - t0) * float(np.dot(w, dens)) / self.normalization ** 2


def solve_radial(a, b, n):
    """Closed-form radial Dirichlet solution on the annulus a <= r <= b in R^n."""
    profile = RadialProfile(a, b, n)
    report = SolveReport(details={"kind": "radial", "a": a, "b": b, "n": n})
    return Solution(field=profile.as_field(), report=report, profile=profile)


def solve_slab(h1, h2, ambient_dim=2, axis=-1):
    """Closed-form slab Dirichlet solution between {s = h1} and {s = h2}."""
    profile = SlabProfile(h1, h2, ambient_dim, axis)
    report = SolveReport(details={"kind": "slab", "h1": h1, "h2": h2})
    return Solution(field=profile.as_field(), report=report, profile=profile)


# --------------------------------------------------------------------------
# grid machinery


class Grid:
    """Uniform lattice over Omega intersected with the exhaustion ball.

    `solved_mask` marks the unknowns, the nodes in the ball more than snap
    inside every piece, and `dirichlet_values` gives the data beyond the
    pieces.  The lattice is anchored at integer multiples of h so that
    axis-aligned boundaries hit nodes exactly; a 2h ghost margin guarantees
    every solved node has in-array neighbors.

    The grid keeps its `axes`, `solved_mask`, radii and piece depths, but no
    coordinate array: the full-box coordinates are built once for the depth
    calls and dropped, and `coordinates` rebuilds those of the nodes asked for.
    """

    def __init__(self, domain, h):
        self.h = require_positive("grid spacing h", h)
        self.radius = domain.exhaustion_radius
        lo, hi = domain.grid_box(self.radius)
        self.lo_idx = np.floor(np.asarray(lo) / self.h).astype(int) - 2
        hi_idx = np.ceil(np.asarray(hi) / self.h).astype(int) + 2
        self.shape = tuple(hi_idx - self.lo_idx + 1)
        self.ndim = len(self.shape)

        self.axes = [(self.lo_idx[ax] + np.arange(self.shape[ax])) * self.h
                     for ax in range(self.ndim)]
        # |x| as the sum of the squared coordinates, axis by axis, which is
        # np.linalg.norm's order, broadcast from the axes
        sq = 0.0
        for ax, coord in enumerate(self.axes):
            sq = sq + (coord * coord).reshape([-1 if k == ax else 1 for k in range(self.ndim)])
        self.r = np.sqrt(sq, out=sq).reshape(-1)
        del sq
        points = np.stack(np.meshgrid(*self.axes, indexing="ij", copy=False),
                          axis=-1).reshape(-1, self.ndim)
        self.depths = {label: np.asarray(ob.depth(points), dtype=float)
                       for label, ob in domain.pieces()}
        del points

        self.snap = snap = _SNAP * self.h
        solved = self.r <= self.radius
        for d in self.depths.values():
            solved &= d > snap

        if "sigma2" in self.depths:
            sep = self.depths["sigma1"] + self.depths["sigma2"]
            if solved.any() and float(sep[solved].min()) <= 2 * self.h:
                raise ParameterError(
                    "boundary pieces are closer than 2 grid cells inside the domain")

        self.solved_mask = solved

    def dirichlet_values(self):
        """NaN at every node, and each piece's `DIRICHLET_DATA` on its ghost
        band: the nodes at most snap inside and at most `_DIRICHLET_BAND` h
        beyond it, and inside every other piece.  No band node is solved."""
        values = np.full(self.r.size, np.nan)
        band = _DIRICHLET_BAND * self.h
        for label, d in self.depths.items():
            on_band = (d <= self.snap) & (d >= -band)
            for other, dother in self.depths.items():
                if other != label:
                    on_band &= dother > self.snap
            values[on_band] = DIRICHLET_DATA[label]
        return values

    def coordinates(self, flat):
        """(N, n) coordinates of the nodes with flat (row-major) indices `flat`."""
        return np.stack([ax[i] for ax, i in zip(self.axes, np.unravel_index(flat, self.shape))],
                        axis=1)


def _leg(grid, node, step):
    """The stencil arms from the solved nodes `node` whose neighbor at flat
    offset `step` is not solved.

    Returns (L, cut, uB, strays, beyond): L is the leg length, `cut` marks
    the Dirichlet legs (cut at the signed-distance zero crossing, with data
    uB); every other leg is mirrored across the exhaustion sphere.
    `strays` counts the mirrored legs that neither a surface nor the sphere
    explains, mirrored defensively.  `beyond` marks the neighbors beyond the
    exhaustion sphere, cut legs included.
    """
    h, snap = grid.h, grid.snap
    nb = node + step
    theta_best = np.full(node.size, np.inf)
    uB = np.zeros(node.size)
    for label, depth in grid.depths.items():
        d0, d1 = depth[node], depth[nb]
        crossing = d1 <= snap
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.where(crossing, d0 / np.maximum(d0 - d1, 1e-300), np.inf)
        better = crossing & (theta < theta_best)
        theta_best = np.where(better, theta, theta_best)
        uB[better] = DIRICHLET_DATA[label]
    cut = theta_best < np.inf
    L = np.full(node.size, h)
    L[cut] = np.clip(theta_best[cut], _SNAP, 1.0) * h
    beyond = grid.r[nb] > grid.radius
    return L, cut, uB, int(np.count_nonzero(~cut & ~beyond)), beyond


def _arm_coefficients(v, L_p, L_m):
    """(coef_p, coef_m, coef_0, upwinded) of Lap_f along one axis, row by row,
    for drift velocity v and arms L_p, L_m: the second derivative on unequal
    arms, and the drift central while the M-matrix condition holds and
    upwinded beyond it."""
    c_p = 2.0 / (L_p * (L_p + L_m))
    c_m = 2.0 / (L_m * (L_p + L_m))
    coef_p = c_p.copy()
    coef_m = c_m.copy()
    coef_0 = -(c_p + c_m)
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
    return coef_p, coef_m, coef_0, ~central


def _assemble(grid):
    """The Jacobi-scaled system D^-1 A x = D^-1 b of Lap_f at all solved nodes.

    Returns (D^-1 A, D^-1 b, unknown_flat_indices, counters).  Dirichlet legs
    contribute to b via the cut fraction theta on the signed-distance zero
    crossing; legs leaving the exhaustion ball are mirrored (homogeneous
    Neumann).  `counters` holds the deterministic counts `defensive_mirrors`,
    `upwind_rows` (rows with the drift upwinded along some axis), `cut_legs`
    (legs ending at a Dirichlet crossing), `neumann_rows` (rows with a leg
    beyond the exhaustion sphere, cut or not) and `irregular_rows` (rows
    with a cut or mirrored leg, which take the unequal-arm formula).  With
    no cut leg no row sees Dirichlet data, and SingularSystemError is raised.

    A is built in its final CSR form (Saad, Iterative Methods for Sparse
    Linear Systems, 2003, 3.4), with no COO stage.  Every row is staged in a
    fixed-width (n, 2d + 1) block in descending column order, the column of
    an arm to an unsolved neighbor being -1, and the block is compressed
    once to the int32 `indices` and float64 `data`, after each row is
    multiplied by 1/d in place.  Descending order is the order of scipy's
    sparse product of a diagonal with a sorted A, so the scaled arrays are
    that product's bit for bit (see the module docstring); as that product
    does, the compression drops a coefficient that is exactly zero (the
    drift at the central/upwind switch).  b is divided by d, which rounds
    unlike b * (1/d).  Along each axis a row with both arms h long reads its
    coefficients from a table over the lattice line, computed once by the
    same formula; only the irregular rows evaluate it on their own arms.
    """
    import scipy.sparse as sps

    h = grid.h
    solved = grid.solved_mask
    flat_solved = np.flatnonzero(solved)
    n_unknown = flat_solved.size
    if n_unknown == 0:
        raise ParameterError("no solvable nodes: grid too coarse for the domain")

    unknown_of = np.full(solved.size, -1, dtype=np.int32)
    unknown_of[solved] = np.arange(n_unknown, dtype=np.int32)
    strides = [math.prod(grid.shape[ax + 1:]) for ax in range(grid.ndim)]

    # each row's 2n + 1 slots in descending column order: the + arms from
    # the largest stride down, the diagonal, the - arms from the smallest
    # stride up; an arm to an unsolved neighbor has column -1
    width = 2 * grid.ndim + 1
    cols = np.empty((n_unknown, width), dtype=np.int32)
    vals = np.empty((n_unknown, width))
    diag = np.zeros(n_unknown)
    rhs = np.zeros(n_unknown)
    upwinded = np.zeros(n_unknown, dtype=bool)
    neumann = np.zeros(n_unknown, dtype=bool)
    counters = {"defensive_mirrors": 0, "upwind_rows": 0, "cut_legs": 0}
    for ax in range(grid.ndim):
        slots = {+1: ax, -1: width - 1 - ax}
        legs = {}
        for sgn, slot in slots.items():
            step = sgn * strides[ax]
            cols[:, slot] = unknown_of[flat_solved + step]
            off = np.flatnonzero(cols[:, slot] < 0)
            legs[sgn] = (off, *_leg(grid, flat_solved[off], step))
        # rows with both arms h long take their coefficients from a table
        # over the lattice line; the others from their own arm lengths
        v = -grid.axes[ax]
        hs = np.full(v.size, h)
        line = (flat_solved // strides[ax]) % grid.shape[ax]
        table = _arm_coefficients(v, hs, hs)
        vals[:, slots[+1]] = table[0][line]
        vals[:, slots[-1]] = table[1][line]
        coef_0 = table[2][line]
        up = table[3][line]
        rows = np.union1d(legs[+1][0], legs[-1][0])
        L_p, L_m = np.full(rows.size, h), np.full(rows.size, h)
        L_p[np.searchsorted(rows, legs[+1][0])] = legs[+1][1]
        L_m[np.searchsorted(rows, legs[-1][0])] = legs[-1][1]
        own = _arm_coefficients(v[line[rows]], L_p, L_m)
        del line, L_p, L_m
        vals[rows, slots[+1]], vals[rows, slots[-1]], coef_0[rows], up[rows] = own
        upwinded |= up
        diag += coef_0
        del coef_0
        for sgn, slot in slots.items():
            off, _, cut, uB, strays, beyond = legs[sgn]
            neumann[off[beyond]] = True
            coef = vals[off, slot]
            rhs[off[cut]] -= coef[cut] * uB[cut]
            diag[off[~cut]] += coef[~cut]
            counters["defensive_mirrors"] += strays
            counters["cut_legs"] += int(np.count_nonzero(cut))

    if counters["cut_legs"] == 0:
        raise SingularSystemError(
            "no stencil leg reaches Dirichlet data: the pure-Neumann weighted "
            "Laplacian is singular and only constant fields solve it (f-parabolicity)")
    if np.any(diag == 0.0):
        raise SingularSystemError("zero diagonal entry in the discrete operator")

    cols[:, grid.ndim] = np.arange(n_unknown, dtype=np.int32)
    vals[:, grid.ndim] = diag
    vals *= (1.0 / diag)[:, None]
    rhs /= diag
    del diag
    present = cols >= 0
    counters["upwind_rows"] = int(np.count_nonzero(upwinded))
    counters["neumann_rows"] = int(np.count_nonzero(neumann))
    # a row with a cut or mirrored leg misses that arm's slot
    counters["irregular_rows"] = int(np.count_nonzero(~present.all(axis=1)))
    present &= vals != 0.0
    indptr = np.zeros(n_unknown + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(present, axis=1), out=indptr[1:])
    indices, data = cols[present], vals[present]
    del cols, vals, present
    A = sps.csr_matrix((data, indices, indptr), shape=(n_unknown, n_unknown))
    return A, rhs, flat_solved, counters


def _weighted_norm(r, weights):
    """The Gaussian-weighted root mean square of a residual r."""
    wr2 = weights * r
    wr2 *= r
    return float(math.sqrt(np.sum(wr2) / np.sum(weights)))


# --------------------------------------------------------------------------
# Galerkin geometric multigrid (Briggs-Henson-McCormick, A Multigrid
# Tutorial, 2000; Trottenberg-Oosterlee-Schueller, Multigrid, 2001)

_OMEGA = 0.8            # damped-Jacobi weight of the smoother
_SWEEPS = 2             # smoothing sweeps before and after each coarse correction
_COARSEST = 2000        # coarsen until at most this many unknowns, then factor
_MAX_ITER = 200         # BiCGStab iterations before a solve is declared stalled


def _prolongation(idx):
    """Multilinear prolongation from the even sublattice of global indices.

    `idx` is the (n, d) array of global lattice indices of the unknowns.  In
    1D, index i takes the parents floor(i/2) and ceil(i/2) with weight 1/2
    each, or the one parent i/2 with weight 1; the d-dimensional P is the
    Kronecker product of the per-axis 1D matrices over the bounding box,
    restricted to the rows of the unknowns and the columns of the parents
    they reference, so a node with o odd indices has 2^o parents of weight
    2^-o.  Returns (P, PT, coarse_idx): P is n x m in CSR over the m
    parents, numbered in lexicographic order of their indices, and PT is
    P^T in CSR (the arrays of P's one CSC conversion).

    Parents referenced by exactly the same nodes (a lone node with two odd
    indices at the edge of the exhaustion can be the only child of two) would
    give P equal columns and P^T A P a zero pivot, so such columns are summed
    into the first of them; row sums stay 1.
    """
    import scipy.sparse as sps

    n = idx.shape[0]
    lo = idx.min(axis=0) >> 1
    fine = idx - 2 * lo         # box indices from an even corner
    fine_shape = tuple(int(s) for s in fine.max(axis=0) + 1)
    shape = tuple(s // 2 + 1 for s in fine_shape)
    P = None
    for size, coarse_size in zip(fine_shape, shape):
        i = np.arange(size)
        # for even i the two halves fall on one parent, and the conversion to
        # CSR sums them into weight 1
        P1 = sps.csr_matrix((np.full(2 * size, 0.5),
                             (np.repeat(i, 2), np.column_stack([i >> 1, (i + 1) >> 1]).ravel())),
                            shape=(size, coarse_size))
        P = P1 if P is None else sps.kron(P, P1, format="csr")
    P = P[np.ravel_multi_index(fine.T, fine_shape)]
    del fine
    # the parents some unknown references are the non-empty columns of P's
    # one CSC conversion; without the empty ones, its arrays are P^T in CSR
    Pc = P.tocsc()
    used = np.diff(Pc.indptr) > 0
    m = np.count_nonzero(used)
    PT = sps.csr_matrix((Pc.data, Pc.indices, Pc.indptr[np.insert(used, 0, True)]), shape=(m, n))
    del Pc
    number = np.cumsum(used, dtype=np.int32)
    number -= 1
    P = sps.csr_matrix((P.data, np.take(number, P.indices), P.indptr), shape=(n, m))
    del number
    coarse_idx = np.array(np.unravel_index(np.flatnonzero(used), shape), dtype=np.int32).T + lo
    del used
    # columns with one row support share their first and their last row,
    # which few columns share with others; the rows of P^T come sorted
    first, last = PT.indices[PT.indptr[:-1]], PT.indices[PT.indptr[1:] - 1]
    target = np.arange(m)
    support = {}
    for c in np.flatnonzero((np.bincount(first, minlength=n)[first] > 1)
                            & (np.bincount(last, minlength=n)[last] > 1)):
        rows = PT.indices[PT.indptr[c]:PT.indptr[c + 1]].tobytes()
        target[c] = support.setdefault(rows, c)
    del first, last
    keep = target == np.arange(m)
    if keep.all():
        return P, PT, coarse_idx
    del PT
    merge = sps.csr_matrix((np.ones(m), (np.arange(m), (np.cumsum(keep) - 1)[target])),
                           shape=(m, np.count_nonzero(keep)))
    P = (P @ merge).tocsr()
    return P, P.T.tocsr(), coarse_idx[keep]


class _VCycle:
    """One V-cycle of the Galerkin hierarchy A_{l+1} = P_l^T A_l P_l.

    Damped Jacobi smooths every level but the coarsest, which is factored
    with sparse LU.  Called with a residual, the cycle starts from zero, so
    it is a fixed linear operator and can precondition BiCGStab.

    The coarse operator is formed as P^T (A P) with P^T in CSR, as
    `_prolongation` hands it over from its one CSC conversion of P, so
    neither A P nor the product is copied to CSC.  Its rows are then sorted:
    the CSC product converted to CSR stores them sorted, with the same
    values, and the smoother's sums over a row depend on its order.
    """

    def __init__(self, A, idx):
        import scipy.sparse.linalg as spla

        self.levels = []            # (A, omega / diag, P, P^T) of each smoothed level
        while A.shape[0] > _COARSEST:
            P, PT, idx = _prolongation(idx)
            if P.shape[1] >= A.shape[0]:
                break
            # P^T is kept as the CSC view of P's arrays; its CSR form PT
            # lives only for the Galerkin product
            self.levels.append((A, _OMEGA / A.diagonal(), P, P.T))
            A = PT @ (A @ P)
            A.sort_indices()
            del P, PT
        del idx
        self.unknowns = [lvl[0].shape[0] for lvl in self.levels] + [A.shape[0]]
        self.nnz = [lvl[0].nnz for lvl in self.levels] + [A.nnz]
        try:
            self.coarse = spla.splu(A.tocsc())
        except RuntimeError as exc:
            raise SingularSystemError(
                f"coarsest multigrid operator ({A.shape[0]} unknowns) is singular: {exc}") from exc

    def __call__(self, r, level=0):
        if level == len(self.levels):
            return self.coarse.solve(r)
        A, wdinv, P, R = self.levels[level]
        x = wdinv * r
        for _ in range(_SWEEPS - 1):
            _jacobi_sweep(A, wdinv, r, x)
        coarse = R @ _residual(A, r, x)
        x += P @ self(coarse, level + 1)
        for _ in range(_SWEEPS):
            _jacobi_sweep(A, wdinv, r, x)
        return x


def _residual(A, b, x):
    """b - A x, in one new array."""
    r = A @ x
    np.subtract(b, r, out=r)
    return r


def _jacobi_sweep(A, wdinv, b, x):
    """One damped-Jacobi sweep in place: x += wdinv (b - A x)."""
    t = _residual(A, b, x)
    t *= wdinv
    x += t


def _multigrid_bicgstab(A_s, b_s, x0, grid, weights, tol):
    """BiCGStab on A_s x = b_s, preconditioned with one V-cycle per application.

    Returns (x, weighted residual of every iterate, unknowns per level,
    stored entries per level); entry 0 is the initial guess's, and entry k
    the k-th iteration's.  An iteration applies the V-cycle twice, so the
    iteration count is half the number of applications, rounded up: scipy
    returns from a half-step that converges without calling back, and only
    then is the last iterate's residual evaluated here.  The hierarchy lives
    only inside this call, so it is freed before the caller allocates the
    long-lived output field; allocated the other way round, that field would
    keep the hierarchy's heap memory resident.

    A_s is the caller's one operator copy and is the hierarchy's finest
    level; x0 None starts from zeros without a vector of ours.  At the peak,
    inside BiCGStab, the hierarchy holds per level the operator, the smoother
    weights and P (P^T is a CSC view of P), and the smoother and the
    residual make one temporary vector at a time.
    """
    import scipy.sparse.linalg as spla

    # the lattice indices are handed over unnamed, so the hierarchy build
    # frees them after the first coarsening
    vcycle = _VCycle(A_s, np.array(np.unravel_index(np.flatnonzero(grid.solved_mask), grid.shape),
                                   dtype=np.int32).T + grid.lo_idx.astype(np.int32))
    # the zero guess leaves the residual b_s, with no product
    history = [_weighted_norm(b_s if x0 is None else _residual(A_s, b_s, x0), weights)]
    applications = 0

    def _precondition(r):
        nonlocal applications
        applications += 1
        return vcycle(r)

    def _callback(xk):
        history.append(_weighted_norm(_residual(A_s, b_s, xk), weights))

    M = spla.LinearOperator(A_s.shape, matvec=_precondition, dtype=float)
    x, _ = spla.bicgstab(A_s, b_s, x0=x0, rtol=1e-14, atol=0.01 * tol,
                         maxiter=_MAX_ITER, M=M, callback=_callback)
    if len(history) <= (applications + 1) // 2:
        _callback(x)
    return x, history, vcycle.unknowns, vcycle.nnz


def solve_mixed_bvp(domain, h, tol=1e-10, initial_guess=None):
    """Solve the mixed problem on Omega_k: Lap_f u = 0, u = DIRICHLET_DATA
    (0 / 1) on the two pieces, homogeneous Neumann across the exhaustion sphere,
    on the `Grid(domain, h)` returned as the solution's `grid`.

    The Jacobi-scaled system D^-1 A u = D^-1 b that `_assemble` returns is
    solved by BiCGStab, preconditioned with one Galerkin geometric-multigrid
    V-cycle (damped Jacobi smoothing, sparse LU on the coarsest level), so
    the iteration count does not grow as h shrinks.  It starts from zeros,
    or from the one finite number `initial_guess` at every unknown.
    BiCGStab stops on the unweighted 2-norm of the scaled residual, at
    atol = 0.01 tol (rtol = 1e-14).  Only then is the Gaussian-weighted
    residual norm checked: above tol the solve raises
    SolverConvergenceError.  The report's `residual_history` holds that
    weighted norm for the initial guess and for each iterate once, so it
    has iterations + 1 entries and ends at `linear_residual`.  The returned
    field, the grid's `dirichlet_values` with the unknowns filled in,
    satisfies 0 <= u <= 1 (discrete maximum principle).
    """
    require_positive("tol", tol)
    if initial_guess is not None and not math.isfinite(initial_guess):
        raise ParameterError(f"initial guess must be finite, got {initial_guess!r}")
    grid = Grid(domain, h)
    A, b_s, flat_solved, counters = _assemble(grid)
    n = b_s.size
    weights = np.exp(-0.5 * grid.r[flat_solved] ** 2)
    del flat_solved
    # None starts BiCGStab from zeros
    x0 = None if initial_guess is None else np.full(n, float(initial_guess))

    x, history, level_unknowns, level_nnz = _multigrid_bicgstab(A, b_s, x0, grid, weights, tol)
    iterations, wres = len(history) - 1, history[-1]
    operator_nnz = A.nnz
    # freed before the long-lived output field is allocated
    del A, b_s, x0, weights
    if not wres <= tol:     # a NaN residual fails too
        raise SolverConvergenceError(
            f"linear solve stalled at weighted residual {wres:.3e} > tol {tol:.3e} "
            f"after {iterations} iterations", residual_history=history)

    lo, hi = min(DIRICHLET_DATA.values()), max(DIRICHLET_DATA.values())
    slack = 10.0 * max(tol, 1e-12)
    if not (x.min() >= lo - slack and x.max() <= hi + slack):     # a NaN fails too
        raise ContractViolation(
            f"discrete maximum principle violated: range [{x.min():.3e}, {x.max():.3e}]")
    x = np.clip(x, lo, hi)

    values = grid.dirichlet_values()
    dirichlet_nodes = int(np.count_nonzero(~np.isnan(values)))
    values[grid.solved_mask] = x
    gf = GridField(origin=[ax[0] for ax in grid.axes], spacing=grid.h,
                   values=values.reshape(grid.shape))

    report = SolveReport(
        iterations=iterations, linear_residual=wres, converged=True,
        details={"h": grid.h, "radius": grid.radius, "unknowns": n,
                 "interior_nodes": n - counters["neumann_rows"],
                 "neumann_nodes": counters["neumann_rows"],
                 "dirichlet_nodes": dirichlet_nodes,
                 "defensive_mirrors": counters["defensive_mirrors"],
                 "upwind_fraction": counters["upwind_rows"] / n,
                 "irregular_rows": counters["irregular_rows"],
                 "cut_legs": counters["cut_legs"], "operator_nnz": operator_nnz,
                 "levels": len(level_unknowns), "level_unknowns": level_unknowns,
                 "level_nnz": level_nnz, "residual_history": history})
    return Solution(field=gf, report=report, grid=grid)


def max_node_error(solution, reference, within_radius=None):
    """Max |u - reference| over solved nodes, optionally restricted to a ball.

    `reference` maps the (N, n) array of compared nodes to (N,) values in one
    call, as the closed-form profiles do.

    Restricting to a fixed interior compact separates discretization error
    from the exhaustion truncation collar near Gamma_k.
    """
    grid = solution.grid_for("max_node_error")
    mask = grid.solved_mask
    if within_radius is not None:
        mask = mask & (grid.r <= within_radius)
    flat = np.flatnonzero(mask)
    if flat.size == 0:
        raise ParameterError(f"no solved node lies within_radius={within_radius}")
    pts = grid.coordinates(flat)
    vals = solution.field.values.reshape(-1)[flat]
    ref = np.asarray(reference(pts), dtype=float)
    if ref.shape != vals.shape:
        raise ContractViolation(
            f"reference must map the ({pts.shape[0]}, {pts.shape[1]}) node array to "
            f"({pts.shape[0]},) values in one call; it returned shape {ref.shape}")
    return float(np.max(np.abs(vals - ref)))


def solve_exhaustion(domain, radii, h, tol=1e-6, linear_tol=1e-10):
    """Solve the mixed problem on a growing family of exhaustion balls.

    Records the sup difference of successive solutions on the common compact
    Omega intersected with the ball of half the first exhaustion radius (the
    convergence of the exhaustion family is uniform on fixed compacts; the
    truncation collar near each Gamma_k is excluded by construction).
    Declares convergence when the last difference drops below tol; a
    difference growing by more than tol flags an under-resolved grid.
    """
    radii = require_radii(radii, "exhaustion radii", at_least=3)
    require_positive("tol", tol)
    require_positive("linear_tol", linear_tol)
    compact_radius = 0.5 * radii[0]

    history = []
    prev = None
    solution = None
    for rk in radii:
        dom_k = domain.with_radius(rk)
        solution = solve_mixed_bvp(dom_k, h=h, tol=linear_tol)
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
