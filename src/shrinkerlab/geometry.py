"""Exact model self-shrinkers and their pointwise geometry.

Three model hypersurfaces of R^(m+1) are supported: hyperplanes through the
origin, round spheres of radius sqrt(m), and cylinders S^k x R^(m-k) whose
spherical factor has radius sqrt(k) and lives in the first k+1 coordinates.
Radii are stored as the integers m, k and materialized on demand so that
residual tests stay exact.

Orientation convention: the stored unit normal is outward for spheres and
cylinders and the given unit normal for hyperplanes.  The scalar second
fundamental form is A(X, Y) = -<D_X nu, Y> and the mean curvature vector is
H = (tr A) nu, so the models satisfy x_perp + H = 0 exactly.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, ParameterError
from .fields import fd_gradient_hessian
from .quadrature import halton, sphere_directions

__all__ = [
    "Hyperplane",
    "Sphere",
    "Cylinder",
    "SurfaceSample",
    "ParametrizedPatch",
    "signed_distance",
    "shrinker_residual",
    "cylinder_identities",
    "extrinsic_volume_growth",
    "model_to_json",
    "model_from_json",
    "surface_samples",
]


def as_point(p, dim=None):
    """Coerce to a finite 1D float array (an ambient point)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ParameterError(f"point must be a 1D coordinate vector, got shape {p.shape}")
    if p.size < 2:
        raise ParameterError("ambient dimension must be at least 2")
    if dim is not None and p.size != dim:
        raise ParameterError(f"expected a point in R^{dim}, got R^{p.size}")
    if not np.all(np.isfinite(p)):
        raise ParameterError("point has non-finite coordinates")
    return p


def complement_frame(v):
    """Orthonormal basis of the hyperplane orthogonal to the unit vector v.

    Rows of the returned (n-1, n) array span v-perp; deterministic via SVD.
    """
    v = np.asarray(v, dtype=float)
    _, _, vt = np.linalg.svd(v[None, :])
    return vt[1:]


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane through the origin with a fixed unit normal."""

    normal: tuple

    def __post_init__(self):
        n = as_point(self.normal)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ParameterError("hyperplane normal must be unit length (within 1e-12)")
        object.__setattr__(self, "normal", tuple(float(x) for x in n))

    @property
    def ambient_dim(self):
        return len(self.normal)

    @property
    def hypersurface_dim(self):
        return self.ambient_dim - 1

    @property
    def core_radius(self):
        return 0.0

    def signed_distance(self, p):
        p = as_point(p, self.ambient_dim)
        return float(np.dot(p, self.normal))

    def sample(self, y):
        """Surface sample at the orthogonal projection of y onto the plane."""
        y = as_point(y, self.ambient_dim)
        nu = np.asarray(self.normal)
        x = y - np.dot(y, nu) * nu
        frame = complement_frame(nu)
        m = self.hypersurface_dim
        return SurfaceSample(point=x, normal=nu, second_fundamental_form=np.zeros((m, m)),
                             frame=frame)

    def quasi_random_samples(self, count, span=3.0):
        pts = (halton(count, self.ambient_dim) - 0.5) * 2.0 * span
        return [self.sample(y) for y in pts]


@dataclass(frozen=True)
class Sphere:
    """Round sphere of dimension m and radius sqrt(m), centered at the origin."""

    m: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ParameterError("sphere dimension m must be an integer >= 1")

    @property
    def ambient_dim(self):
        return self.m + 1

    @property
    def hypersurface_dim(self):
        return self.m

    @property
    def radius(self):
        return math.sqrt(self.m)

    @property
    def core_radius(self):
        return self.radius

    def signed_distance(self, p):
        p = as_point(p, self.ambient_dim)
        return float(np.linalg.norm(p) - self.radius)

    def sample(self, direction):
        d = as_point(direction, self.ambient_dim)
        d = d / np.linalg.norm(d)
        x = self.radius * d
        frame = complement_frame(d)
        a = -np.eye(self.m) / self.radius
        return SurfaceSample(point=x, normal=d, second_fundamental_form=a, frame=frame)

    def quasi_random_samples(self, count, span=None):
        return [self.sample(d) for d in sphere_directions(count, self.ambient_dim)]


@dataclass(frozen=True)
class Cylinder:
    """Shrinker cylinder S^k_sqrt(k) x R^(m-k), spherical factor in coords 0..k."""

    k: int
    m: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and isinstance(self.m, int)):
            raise ParameterError("cylinder k, m must be integers")
        if not (1 <= self.k <= self.m - 1):
            raise ParameterError("cylinder requires 1 <= k <= m-1")

    @property
    def ambient_dim(self):
        return self.m + 1

    @property
    def hypersurface_dim(self):
        return self.m

    @property
    def radius(self):
        return math.sqrt(self.k)

    @property
    def core_radius(self):
        return self.radius

    def signed_distance(self, p):
        """Distance to the cylinder, negative inside the solid tube."""
        p = as_point(p, self.ambient_dim)
        rho = float(np.linalg.norm(p[: self.k + 1]))
        if rho == 0.0:
            warnings.warn("cylinder signed distance queried on the axis; returning the "
                          "infimum -sqrt(k)", RuntimeWarning, stacklevel=2)
            return -self.radius
        return rho - self.radius

    def sample(self, spherical_direction, axial):
        """Sample at sqrt(k) * d on the spherical factor, offset axially."""
        d = np.asarray(spherical_direction, dtype=float)
        if d.size != self.k + 1:
            raise ParameterError(f"spherical direction must live in R^{self.k + 1}")
        d = d / np.linalg.norm(d)
        axial = np.atleast_1d(np.asarray(axial, dtype=float))
        if axial.size != self.m - self.k:
            raise ParameterError(f"axial part must live in R^{self.m - self.k}")
        n = self.ambient_dim
        x = np.zeros(n)
        x[: self.k + 1] = self.radius * d
        x[self.k + 1:] = axial
        nu = np.zeros(n)
        nu[: self.k + 1] = d
        # frame: k directions tangent to the spherical factor, then the flat axes
        sph_frame = complement_frame(d)  # (k, k+1)
        frame = np.zeros((self.m, n))
        frame[: self.k, : self.k + 1] = sph_frame
        for i in range(self.m - self.k):
            frame[self.k + i, self.k + 1 + i] = 1.0
        a = np.zeros((self.m, self.m))
        a[: self.k, : self.k] = -np.eye(self.k) / self.radius
        return SurfaceSample(point=x, normal=nu, second_fundamental_form=a, frame=frame)

    def quasi_random_samples(self, count, span=3.0):
        dirs = sphere_directions(count, self.k + 1)
        axials = (halton(count, max(self.m - self.k, 1)) - 0.5) * 2.0 * span
        return [self.sample(d, ax[: self.m - self.k]) for d, ax in zip(dirs, axials)]


@dataclass
class SurfaceSample:
    """Pointwise data of an immersed hypersurface.

    frame holds m orthonormal tangent vectors (rows); the second fundamental
    form is expressed in that frame with the convention A(X,Y) = -<D_X nu, Y>,
    so the mean curvature vector is (tr A) * normal.
    """

    point: np.ndarray
    normal: np.ndarray
    second_fundamental_form: np.ndarray
    frame: np.ndarray
    mean_curvature_vector: np.ndarray = field(default=None)

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.normal = np.asarray(self.normal, dtype=float)
        self.second_fundamental_form = np.asarray(self.second_fundamental_form, dtype=float)
        self.frame = np.atleast_2d(np.asarray(self.frame, dtype=float))
        if self.mean_curvature_vector is None:
            self.mean_curvature_vector = float(np.trace(self.second_fundamental_form)) * self.normal
        else:
            self.mean_curvature_vector = np.asarray(self.mean_curvature_vector, dtype=float)
        self.validate()

    @property
    def scalar_mean_curvature(self):
        return float(np.trace(self.second_fundamental_form))

    def validate(self):
        a = self.second_fundamental_form
        if not np.allclose(a, a.T, atol=1e-10):
            raise ContractViolation("second fundamental form is not symmetric")
        if np.max(np.abs(self.frame @ self.normal)) > 1e-10:
            raise ContractViolation("tangent frame is not orthogonal to the normal")
        h = self.scalar_mean_curvature * self.normal
        if not (np.allclose(h, self.mean_curvature_vector, atol=1e-9)
                or np.allclose(-h, self.mean_curvature_vector, atol=1e-9)):
            raise ContractViolation("mean curvature vector is not (tr A) times the normal")


@dataclass
class ParametrizedPatch:
    """User-supplied chart from a parameter rectangle of R^m into R^(m+1).

    All geometric quantities come from central differences at ``fd_step``;
    the chart must be an immersion (smallest Jacobian singular value > 1e-8).
    The normal orientation is whatever the SVD produces -- downstream residual
    checks are norm-based and insensitive to the sign.
    """

    chart: callable
    lo: tuple
    hi: tuple
    fd_step: float = 1e-4

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ParameterError("invalid parameter rectangle")
        if self.fd_step <= 0:
            raise ParameterError("fd_step must be positive")

    @property
    def param_dim(self):
        return self.lo.size

    def sample(self, s):
        """Build a SurfaceSample at parameter s via finite differences."""
        s = np.asarray(s, dtype=float)
        h = self.fd_step
        m = self.param_dim
        x = np.asarray(self.chart(s), dtype=float)
        n = x.size
        if n != m + 1:
            raise ParameterError("chart must map into R^(m+1)")

        jac = np.empty((n, m))
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            jac[:, i] = (np.asarray(self.chart(s + e)) - np.asarray(self.chart(s - e))) / (2 * h)
        svals = np.linalg.svd(jac, compute_uv=False)
        if svals[-1] <= 1e-8:
            raise ParameterError("chart fails the immersion check (singular Jacobian)")

        # unit normal: left null vector of the Jacobian
        u, _, _ = np.linalg.svd(jac)
        nu = u[:, -1]

        # coordinate second fundamental form b_ij = <d2 chart, nu>
        b = np.empty((m, m))
        for i in range(m):
            ei = np.zeros(m)
            ei[i] = h
            b[i, i] = np.dot(
                np.asarray(self.chart(s + ei)) - 2 * x + np.asarray(self.chart(s - ei)), nu
            ) / (h * h)
            for j in range(i + 1, m):
                ej = np.zeros(m)
                ej[j] = h
                mixed = (np.asarray(self.chart(s + ei + ej)) - np.asarray(self.chart(s + ei - ej))
                         - np.asarray(self.chart(s - ei + ej)) + np.asarray(self.chart(s - ei - ej)))
                b[i, j] = b[j, i] = np.dot(mixed, nu) / (4 * h * h)

        g = jac.T @ jac
        evals, evecs = np.linalg.eigh(g)
        g_inv_half = evecs @ np.diag(evals ** -0.5) @ evecs.T
        frame = (jac @ g_inv_half).T          # rows orthonormal tangent vectors
        a = g_inv_half @ b @ g_inv_half       # A in the orthonormal frame
        a = 0.5 * (a + a.T)
        return SurfaceSample(point=x, normal=nu, second_fundamental_form=a, frame=frame)


# --------------------------------------------------------------------------
# pointwise operations


def signed_distance(model, p):
    """Signed Euclidean distance to the model surface (negative inside)."""
    return model.signed_distance(p)


def shrinker_residual(sample):
    """Residual x_perp + H of the shrinker equation; zero on exact shrinkers."""
    x, nu = sample.point, sample.normal
    x_perp = np.dot(x, nu) * nu
    return x_perp + sample.mean_curvature_vector


@dataclass
class CylinderIdentityReport:
    u: float
    grad_id_residual: float
    laplu_residual: float
    sqrtu_slack: float  # None when the sample sits over the axis plane (u = 0)


def _surface_drift_laplacian(batch, sample, fd_step):
    """Weighted surface Laplacian of an ambient function (given by its batch
    evaluator) at the sample.

    Uses Lap_S f = sum_i Hess f(t_i, t_i) + (tr A) df/dnu together with the
    tangential drift term -<x_tan, grad_S f> of the Gaussian weight.
    """
    x, nu, frame = sample.point, sample.normal, sample.frame
    grad, hess = fd_gradient_hessian(batch, x[None, :], fd_step)
    grad, hess = grad[0], hess[0]
    grad_nu = float(np.dot(grad, nu))
    grad_tan = grad - grad_nu * nu
    lap_surface = float(np.einsum("ij,jk,ik->", frame, hess, frame)) \
        + sample.scalar_mean_curvature * grad_nu
    x_tan = x - np.dot(x, nu) * nu
    return lap_surface - float(np.dot(x_tan, grad_tan)), grad, grad_tan


def cylinder_identities(k, sample, fd_step=None):
    """Evaluate the distance-squared identities for u = sum_{A<=k+1} x_A^2.

    Returns the residuals of the gradient identity and of the weighted surface
    Laplacian identity, plus the slack of the sqrt(u) supersolution estimate
    (which must be nonnegative).  The sample may lie on any hypersurface of
    the same ambient space.

    The ambient differencing step defaults to 0.01 * (1 + |x|): u is a
    quadratic, so central differences carry no truncation error and a large
    step only suppresses rounding noise.  Chart-level differentiation error
    enters through the sample's frame and curvature instead.
    """
    x = sample.point
    n = x.size
    if not (1 <= k <= n - 2):
        raise ParameterError(f"need 1 <= k <= {n - 2} for ambient dimension {n}")
    if fd_step is None:
        fd_step = 0.01 * (1.0 + float(np.linalg.norm(x)))

    def u_batch(ys):
        # row-wise dot products through matmul, which rounds as np.dot does
        v = ys[:, : k + 1]
        return (v[:, None, :] @ v[:, :, None])[:, 0, 0]

    u = float(u_batch(x[None, :])[0])
    nu = sample.normal
    lap_f_u, grad_u, grad_u_tan = _surface_drift_laplacian(u_batch, sample, fd_step)

    nbar_sq = float(np.dot(nu[: k + 1], nu[: k + 1]))
    xbar_dot_nu = float(np.dot(x[: k + 1], nu[: k + 1]))

    grad_id_residual = 0.25 * float(np.dot(grad_u_tan, grad_u_tan)) - (u - xbar_dot_nu ** 2)
    laplu_residual = 0.5 * lap_f_u - (k + 1 - nbar_sq - u)

    if u <= 1e-14:
        sqrtu_slack = None
    else:
        # chain rule Lap_f sqrt(u) = Lap_f u / (2 sqrt u) - |grad_S u|^2 / (4 u^(3/2));
        # differencing sqrt(u) directly is hopeless near the axis plane, the
        # polynomial u differences exactly.
        grad_sq = float(np.dot(grad_u_tan, grad_u_tan))
        lap_f_sqrt = lap_f_u / (2.0 * math.sqrt(u)) - grad_sq / (4.0 * u ** 1.5)
        sqrtu_slack = (k - u) / math.sqrt(u) - lap_f_sqrt

    return CylinderIdentityReport(u=u, grad_id_residual=grad_id_residual,
                                  laplu_residual=laplu_residual, sqrtu_slack=sqrtu_slack)


# --------------------------------------------------------------------------
# extrinsic volume growth

_MIDPOINTS = 256


def _midpoint(fn, a, b, n=_MIDPOINTS):
    x = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(fn(x)) * (b - a) / n)


def _sphere_area(j, rho):
    """Area of the round j-sphere of radius rho by product midpoint quadrature."""
    if j == 0:
        return 2.0
    area = 2 * math.pi * rho ** j
    for p in range(1, j):
        area *= _midpoint(lambda t, p=p: np.sin(t) ** p, 0.0, math.pi)
    return area


def _ball_volume(d, radius):
    if radius <= 0.0:
        return 0.0
    if d == 1:
        return 2.0 * radius
    return _sphere_area(d - 1, 1.0) * _midpoint(lambda r: r ** (d - 1), 0.0, radius)


def _axial_extent(k, big_radius):
    """Axial reach t with |chart(t)| = big_radius, found by bisection."""
    lo, hi = 0.0, big_radius
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.hypot(math.sqrt(k), mid) <= big_radius:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _clipped_area(model, radius):
    if isinstance(model, Hyperplane):
        return _ball_volume(model.hypersurface_dim, radius)
    if isinstance(model, Sphere):
        return _sphere_area(model.m, model.radius) if radius >= model.radius else 0.0
    if isinstance(model, Cylinder):
        t = _axial_extent(model.k, radius)
        return _sphere_area(model.k, model.radius) * _ball_volume(model.m - model.k, t)
    raise ParameterError(f"unknown model {model!r}")


@dataclass
class VolumeGrowthResult:
    table: list                # (R, area) pairs
    fitted_exponent: float

    def to_csv(self):
        lines = ["R,area"]
        lines += [f"{r!r},{a!r}" for r, a in self.table]
        return "\n".join(lines) + "\n"


def extrinsic_volume_growth(model, radii):
    """Measure |Sigma cap B_R| and fit the growth exponent on the upper radii.

    The fitted exponent must not exceed m + 0.05 (Euclidean volume growth of
    properly immersed shrinkers); exceeding it raises ContractViolation.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise ParameterError("need at least 3 radii for an exponent fit")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ParameterError("radii must be strictly increasing")
    if radii[0] <= model.core_radius:
        raise ParameterError("radii must exceed the model's core radius")

    table = [(r, _clipped_area(model, r)) for r in radii]
    upper = table[len(table) // 2:]
    logs_r = np.log([r for r, _ in upper])
    logs_a = np.log([max(a, 1e-300) for _, a in upper])
    slope = float(np.polyfit(logs_r, logs_a, 1)[0])
    m = model.hypersurface_dim
    if slope > m + 0.05:
        raise ContractViolation(
            f"fitted volume growth exponent {slope:.4f} exceeds m + 0.05 = {m + 0.05}")
    return VolumeGrowthResult(table=table, fitted_exponent=slope)


# --------------------------------------------------------------------------
# serialization and sampling helpers


def model_to_json(model):
    if isinstance(model, Hyperplane):
        return {"type": "hyperplane", "normal": list(model.normal)}
    if isinstance(model, Sphere):
        return {"type": "sphere", "m": model.m}
    if isinstance(model, Cylinder):
        return {"type": "cylinder", "m": model.m, "k": model.k}
    raise ParameterError(f"unknown model {model!r}")


def model_from_json(obj):
    kind = obj.get("type")
    if kind == "hyperplane":
        return Hyperplane(normal=tuple(obj["normal"]))
    if kind == "sphere":
        return Sphere(m=int(obj["m"]))
    if kind == "cylinder":
        return Cylinder(m=int(obj["m"]), k=int(obj["k"]))
    raise ParameterError(f"unknown model type {kind!r}")


def surface_samples(model, count, span=3.0):
    """Deterministic quasi-random SurfaceSamples on a model surface."""
    return model.quasi_random_samples(count, span=span)
