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
separation hypothesis dist(z, Sigma_1) >= const * e^(-b|z|^2) / P(|z|) in
the separation protocol documented in `geometry`: Sigma_1 is a
`geometry.Hyperplane`, read through `raw_signed`, and Sigma_2 a Hyperplane,
a `geometry.Cylinder` or a `GraphSurface`, sampled by `sample_at_norm`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParameterError, require_positive, require_radii
from .fields import ScalarField, gradient, weighted_laplacian
from .geometry import Cylinder, Hyperplane
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
    "SEPARATION_CASES",
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
    control that the check actually detects sign violations.  Fewer than one
    sample raises ParameterError.
    """
    if samples < 1:
        raise ParameterError(f"sample count must be at least 1, got {samples}")
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
    dist = require_positive("distance to sigma1", dist_to_sigma1)
    z_norm = float(z) if np.isscalar(z) else float(np.linalg.norm(np.asarray(z, dtype=float)))
    BarrierParams(R, min(1.0, dist), m, z_norm)  # that shell's checks of R, m and |z|
    return (R + 1.0) ** m / R ** m * math.exp(z_norm) / dist


# --------------------------------------------------------------------------
# Lipschitz separation barriers


def lipschitz_barrier(mode, domain):
    """Locally Lipschitz field pinned to 0 on Sigma_1 and 1 on Sigma_2.

    mode="positive-distance" uses the clamped symmetric distance quotient
    (d1 - d2 + D) / (2D) and requires a strictly positive separation D, the
    least |depth| below Sigma_2 of Sigma_1's quadrature nodes (`quad_nodes`
    at 128 per dimension, within the exhaustion ball for a plane);
    mode="projection" uses d1(z) / dist(Pi_1(z), Sigma_2) with the nearest
    point projection onto Sigma_1.
    """
    if domain.sigma2 is None:
        raise ParameterError("the separation barriers need two boundary pieces")
    ob1, ob2 = domain.sigma1, domain.sigma2

    if mode == "positive-distance":
        nodes, _ = ob1.shape.quad_nodes(domain.exhaustion_radius, per_dim=128)
        D = float(np.min(np.abs(ob2.depth(nodes)), initial=np.inf))
        if not 0.0 < D < np.inf:
            raise ParameterError(
                f"measured boundary separation {D!r} is not positive and finite; the "
                "positive-distance barrier requires dist(Sigma_1, Sigma_2) > 0")

        def batch(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            d1 = np.abs(ob1.depth(pts))
            d2 = np.abs(ob2.depth(pts))
            return np.clip((d1 - d2 + D) / (2.0 * D), 0.0, 1.0)
    elif mode == "projection":
        def batch(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            d1 = np.abs(ob1.depth(pts))
            denom = np.abs(ob2.depth(ob1.shape.project(pts)))
            return np.clip(d1 / np.maximum(denom, 1e-300), 0.0, 1.0)
    else:
        raise ParameterError(f"unknown barrier mode {mode!r}")

    return ScalarField(lambda x: float(batch(x[None, :])[0]), batch_evaluator=batch)


def measured_lipschitz(fld, domain):
    """Numerical Lipschitz estimate: the largest |partial derivative| that
    `fields.gradient` reads at quasi-random interior points, NaN if one is."""
    # 1000 or 3000 points move the 2D annulus's reading 0.66667 by 1e-6; 0.5 or 1.5 delta, 1e-11
    count, delta = 2000, 1e-4    # Halton points; difference step and interior margin
    radius = min(domain.exhaustion_radius, 6.0)
    pts = (halton(count, domain.ambient_dim) - 0.5) * 2.0 * radius
    inside = np.ones(count, dtype=bool)
    for _, ob in domain.pieces():
        inside &= np.asarray(ob.depth(pts)) > delta
    return float(np.max(np.abs(gradient(fld, pts[inside], h=delta)), initial=0.0))


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
    """Graph {x_n = height(|x_hat|)} over the horizontal hyperplane; only
    ever sigma2 (see `geometry`), so it answers `sample_at_norm` alone,
    with None at a norm the graph does not reach."""

    def __init__(self, height, ambient_dim=3):
        self.height = height
        self.ambient_dim = ambient_dim

    def sample_at_norm(self, norm, count):
        lo, hi = 0.0, norm
        # the bracket meets adjacent doubles in about 60 halvings: 100 or 300 give this rho
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid * mid + self.height(mid) ** 2 <= norm * norm:
                lo = mid
            else:
                hi = mid
        rho = 0.5 * (lo + hi)
        height = self.height(rho)
        if abs(math.hypot(rho, height) - norm) > 1e-9 * norm:
            return None  # bisection found no point of the graph at this norm
        dirs = sphere_directions(count, self.ambient_dim - 1)
        pts = np.zeros((count, self.ambient_dim))
        pts[:, :-1] = rho * dirs
        pts[:, -1] = height
        return pts


# name -> (sigma2 checked against the plane x_3 = 0, criterion 12's b and outcome)
SEPARATION_CASES = {
    "plane-cylinder": (lambda: Cylinder(k=1, m=2), 0.0, True),
    "parallel-planes": (lambda: Hyperplane(normal=(0, 0, 1.0), offset=1.0), 0.3, True),
    "gaussian-graph": (lambda: GraphSurface(height=lambda r: float(np.exp(-r * r)),
                                            ambient_dim=3), 0.4, False),
}


@dataclass
class SeparationReport:
    ratios: list          # (|z|, worst ratio at that norm)
    passes: bool
    truncated: bool


def separation_check(hyp, sigma1, sigma2, sample_norms):
    """Finite-sample check of the separation hypothesis along sigma2.

    For 8 quasi-random points z on sigma2 at each requested norm (positive,
    finite and increasing), evaluates dist(z, sigma1) * e^(b |z|^2) * P(|z|),
    with dist(z, sigma1) = abs(sigma1.raw_signed(z)) for a hyperplane sigma1,
    and requires the worst ratio over the top half of the norms to clear
    the margin 1e-6.  This is an explicitly finite-sample heuristic, not a
    liminf.
    """
    sample_norms = require_radii(sample_norms, "separation sample norms")

    ratios = []
    truncated = False
    for s in sample_norms:
        # SEPARATION_CASES' sigma2 keep one plane distance at a norm: 4 or 12 points agree
        pts = sigma2.sample_at_norm(s, 8)
        if pts is None:
            truncated = True
            continue
        dists = np.abs(sigma1.raw_signed(pts))
        norms = np.linalg.norm(pts, axis=1)
        scale = np.exp(hyp.b * norms ** 2) * np.polyval(list(hyp.poly_p), norms)
        ratios.append((s, float(np.min(dists * scale))))

    if not ratios:
        raise ParameterError("no sample norms were reachable on sigma2")
    top = ratios[len(ratios) // 2:]
    passes = bool(min(r for _, r in top) > 1e-6)
    return SeparationReport(ratios=ratios, passes=passes, truncated=truncated)
