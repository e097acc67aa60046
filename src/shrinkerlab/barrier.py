"""Exterior-sphere barriers, gradient estimates, and separation heuristics.

The barrier profile solves  psi'' + psi' (m/(d+R) - d + |z|) = 0  on a shell
of width a outside a tangent ball of radius R, normalized to run from 0 to 1:

    psi(d) = int_0^d e^(t^2/2) (t+R)^-m e^(-|z|t) dt  /  (same over [0, a]),

tabulated on the shared Gauss-Legendre panels of `CumulativeProfile`, so
psi(0) = 0 and psi(a) = 1 hold exactly.  Composed with the distance to the
ball it is a weighted-superharmonic upper barrier, which yields the boundary
gradient bound (R+1)^m / R^m * e^|z| / dist implemented by
`estimate_gradient`.

The Lipschitz separation barriers (clamped distance quotients) provide finite
energy competitors pinned to 0 and 1 on the two boundary pieces, and
`separation_check` evaluates the finite-sample analogue of the asymptotic
separation hypothesis dist(z, Sigma_1) >= const * e^(-b|z|^2) / P(|z|) on
two separation surfaces: `geometry.Hyperplane` and `geometry.Cylinder`,
which answer the separation protocol documented in `geometry`, or a
`GraphSurface` as Sigma_2.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParameterError, require_positive, require_radii
from .fields import ScalarField, weighted_laplacian
from .geometry import Cylinder, Hyperplane, Sphere
from .quadrature import CumulativeProfile, halton, sphere_directions

__all__ = [
    "BarrierParams",
    "BarrierResult",
    "build_psi",
    "supersolution_check",
    "estimate_gradient",
    "lipschitz_barrier",
    "measured_lipschitz",
    "SeparationHypothesis",
    "separation_check",
    "GraphSurface",
]


@dataclass(frozen=True)
class BarrierParams:
    """Shell data: exterior sphere radius R, shell width a, hypersurface
    dimension m, and the norm |z| of the tangency point."""

    R: float
    a: float
    m: int
    z_norm: float = 0.0

    def __post_init__(self):
        require_positive("barrier radius R", self.R)
        require_positive("shell width a", self.a)
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ParameterError("hypersurface dimension m must be an integer >= 1")
        if not (math.isfinite(self.z_norm) and self.z_norm >= 0):
            raise ParameterError(f"|z| must be nonnegative and finite, got {self.z_norm!r}")


_FD_STEP = 1e-5   # central-difference step of `supersolution_check`


class BarrierProfile(CumulativeProfile):
    """psi(d) for scalar or (N,) distances d; 0 below the shell, 1 beyond."""

    def __init__(self, params):
        self.params = params
        super().__init__(0.0, params.a)

    def density(self, t):
        R, m, z = self.params.R, self.params.m, self.params.z_norm
        return np.exp(0.5 * t * t - z * t) / (t + R) ** m

    def __call__(self, d):
        return self.value(d)


@dataclass
class BarrierResult:
    psi: BarrierProfile
    psi_prime_0: float
    rough_bound: float     # (R+a)^m / (R^m a) * e^(a |z|)
    gradient_estimate: float
    params: BarrierParams


def build_psi(params):
    """Construct the normalized barrier profile and its slope data."""
    psi = BarrierProfile(params)
    psi_prime_0 = psi.derivative(0.0)
    rough = ((params.R + params.a) ** params.m / (params.R ** params.m * params.a)
             * math.exp(params.a * params.z_norm))
    if psi_prime_0 > rough * (1.0 + 1e-12):
        raise ContractViolation(
            f"psi'(0) = {psi_prime_0:.6g} exceeds its rough bound {rough:.6g}")
    grad_est = estimate_gradient(params.z_norm, params.R, params.a, params.m)
    return BarrierResult(psi=psi, psi_prime_0=psi_prime_0, rough_bound=rough,
                         gradient_estimate=grad_est, params=params)


def supersolution_check(params, samples, profile="ode"):
    """Maximum of Lap_f(psi o d) over quasi-random shell points.

    The shell sits outside the ball of radius R centered at (|z| + R) e_1,
    tangent to |z| e_1; the ODE profile must give a nonpositive maximum up to
    differencing noise (central differences of step _FD_STEP, one batched
    `weighted_laplacian` call).  profile="linear" replaces psi by d/a as a
    control that the check actually detects sign violations.
    """
    if samples <= 0:
        warnings.warn("empty shell sample: supersolution check is vacuous",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    n = params.m + 1
    center = np.zeros(n)
    center[0] = params.z_norm + params.R

    if profile == "ode":
        psi = build_psi(params).psi
    elif profile == "linear":
        def psi(d):
            return d / params.a
    else:
        raise ParameterError(f"unknown barrier profile {profile!r}")

    u = halton(samples, 1)[:, 0]
    radii = params.R + (0.05 + 0.9 * u) * params.a
    dirs = sphere_directions(samples, n)
    points = center[None, :] + radii[:, None] * dirs

    def batch(pts):
        return psi(np.linalg.norm(pts - center, axis=-1) - params.R)

    fld = ScalarField(batch, batch_evaluator=batch)
    return float(np.max(weighted_laplacian(fld, points, h=_FD_STEP)))


def estimate_gradient(z, R, dist_to_sigma1, m):
    """Boundary gradient bound (R+1)^m / R^m * e^|z| / dist at a tangency z.

    The shell width is a = min(1, dist): the bound is continuous in a, so the
    epsilon in a = min(1, dist - eps) is taken to zero.
    """
    if R <= 0 or dist_to_sigma1 <= 0:
        raise ParameterError("need R > 0 and a positive distance to sigma1")
    z_norm = float(z) if np.isscalar(z) else float(np.linalg.norm(np.asarray(z, dtype=float)))
    return (R + 1.0) ** m / R ** m * math.exp(z_norm) / dist_to_sigma1


# --------------------------------------------------------------------------
# Lipschitz separation barriers


def _clamp01(t):
    return np.clip(t, 0.0, 1.0)


def boundary_separation(domain):
    """inf dist(Sigma_1, Sigma_2); exact for the model pairs, sampled otherwise."""
    if domain.sigma2 is None:
        raise ParameterError("separation needs two boundary pieces")
    p1, p2 = domain.sigma1.shape, domain.sigma2.shape
    if isinstance(p1, Hyperplane) and isinstance(p2, Hyperplane) \
            and np.allclose(p1.normal, p2.normal):
        return abs(p2.offset - p1.offset)
    if isinstance(p1, Sphere) and isinstance(p2, Sphere):
        return abs(p2.radius - p1.radius)
    nodes, _ = domain.sigma1.quad_nodes(domain.exhaustion_radius, per_dim=128)
    return float(np.min(np.abs(domain.sigma2.depth(nodes))))


def lipschitz_barrier(mode, domain):
    """Locally Lipschitz field pinned to 0 on Sigma_1 and 1 on Sigma_2.

    mode="positive-distance" uses the clamped symmetric distance quotient
    (d1 - d2 + D) / (2D) and requires a strictly positive separation D;
    mode="projection" uses d1(z) / dist(Pi_1(z), Sigma_2) with the nearest
    point projection onto Sigma_1.
    """
    if domain.sigma2 is None:
        raise ParameterError("the separation barriers need two boundary pieces")
    ob1, ob2 = domain.sigma1, domain.sigma2

    if mode == "positive-distance":
        D = boundary_separation(domain)
        if D <= 0:
            raise ParameterError(
                "measured boundary separation is not positive; the positive-distance "
                "barrier requires dist(Sigma_1, Sigma_2) > 0")

        def batch(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            d1 = np.abs(ob1.depth(pts))
            d2 = np.abs(ob2.depth(pts))
            return _clamp01((d1 - d2 + D) / (2.0 * D))
    elif mode == "projection":
        def batch(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            d1 = np.abs(ob1.depth(pts))
            denom = np.abs(ob2.depth(ob1.project(pts)))
            return _clamp01(d1 / np.maximum(denom, 1e-300))
    else:
        raise ParameterError(f"unknown barrier mode {mode!r}")

    return ScalarField(lambda x: float(batch(x[None, :])[0]), batch_evaluator=batch)


def measured_lipschitz(fld, domain):
    """Numerical Lipschitz estimate over quasi-random interior points."""
    count, delta = 2000, 1e-4    # Halton points; difference step and interior margin
    radius = min(domain.exhaustion_radius, 6.0)
    pts = (halton(count, domain.ambient_dim) - 0.5) * 2.0 * radius
    inside = np.ones(count, dtype=bool)
    for _, ob in domain.pieces():
        inside &= np.asarray(ob.depth(pts)) > delta
    pts = pts[inside]
    worst = 0.0
    for ax in range(domain.ambient_dim):
        e = np.zeros(domain.ambient_dim)
        e[ax] = delta
        vals = np.abs(fld.batch(pts + e) - fld.batch(pts - e)) / (2.0 * delta)
        worst = max(worst, float(vals.max(initial=0.0)))
    return worst


# --------------------------------------------------------------------------
# asymptotic separation hypothesis


@dataclass
class SeparationHypothesis:
    """Decay data of the asymptotic separation condition: b is the Gaussian
    decay rate (must satisfy 0 <= b < 1/2) and poly_p the polynomial
    coefficients (numpy order)."""

    b: float
    poly_p: tuple = (1.0,)

    def __post_init__(self):
        if not 0.0 <= self.b < 0.5:
            raise ParameterError("separation rate must satisfy 0 <= b < 1/2")
        if len(self.poly_p) == 0:
            raise ParameterError("'poly_p' needs a coefficient; an empty one reads as p = 0")


# Old names of the two separation surfaces, kept only because the benchmark's
# workloads build them; nothing else uses them.
PlaneSurface = Hyperplane
CylinderSurface = Cylinder


class GraphSurface:
    """Graph {x_n = height(|x_hat|)} over the horizontal hyperplane, a
    separation surface (see `geometry`) that is only ever sigma2."""

    def __init__(self, height, ambient_dim=3):
        self.height = height
        self.ambient_dim = ambient_dim

    def distance(self, pts):
        raise ParameterError("graph surface is used only as a sampled sigma2")

    def sample_at_norm(self, norm, count):
        lo, hi = 0.0, norm
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid * mid + self.height(mid) ** 2 <= norm * norm:
                lo = mid
            else:
                hi = mid
        rho = 0.5 * (lo + hi)
        dirs = sphere_directions(count, self.ambient_dim - 1)
        pts = np.zeros((count, self.ambient_dim))
        pts[:, :-1] = rho * dirs
        pts[:, -1] = self.height(rho)
        return pts


@dataclass
class SeparationReport:
    ratios: list          # (|z|, worst ratio at that norm)
    passes: bool
    truncated: bool

    def to_csv(self):
        lines = ["z_norm,ratio"]
        lines += [f"{z!r},{r!r}" for z, r in self.ratios]
        return "\n".join(lines) + "\n"


def separation_check(hyp, sigma1, sigma2, sample_norms):
    """Finite-sample check of the separation hypothesis along sigma2.

    For 8 quasi-random points z on sigma2 at each requested norm (positive,
    finite and increasing), evaluates dist(z, sigma1) * e^(b |z|^2) * P(|z|)
    and requires the worst ratio over the top half of the norms to clear
    the margin 1e-6.  This is an explicitly finite-sample heuristic, not a
    liminf.
    """
    sample_norms = require_radii(sample_norms, "separation sample norms")

    ratios = []
    truncated = False
    for s in sample_norms:
        pts = sigma2.sample_at_norm(s, 8)
        if pts is None:
            truncated = True
            continue
        dists = sigma1.distance(pts)
        norms = np.linalg.norm(pts, axis=1)
        scale = np.exp(hyp.b * norms ** 2) * np.polyval(list(hyp.poly_p), norms)
        ratios.append((s, float(np.min(dists * scale))))

    if not ratios:
        raise ParameterError("no sample norms were reachable on sigma2")
    top = ratios[len(ratios) // 2:]
    passes = bool(min(r for _, r in top) > 1e-6)
    return SeparationReport(ratios=ratios, passes=passes, truncated=truncated)
