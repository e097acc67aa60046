"""Plane, sphere and cylinder: the model self-shrinkers and every other role
the laboratory gives these shapes.

Three hypersurfaces of R^(m+1) are supported: hyperplanes {<normal, x> =
offset}, round spheres centred at the origin of radius sqrt(m) (or a given
radius), and cylinders S^k x R^(m-k) whose spherical factor has radius
sqrt(k) and lives in the first k+1 coordinates.  With offset 0 and the
default radius these are the model shrinkers (Colding-Minicozzi).

Each shape is one class used in up to three roles:

* Model shrinker (all three): `clipped_area` (|Sigma cap B_R|, in closed
  form from `sphere_measure`), `to_json` (the config that `model_from_json`
  reads) and `quasi_random_samples`, which builds, frames and checks its
  samples as one stack; the first k rows of a stack are the k-sample stack.
* Dirichlet boundary piece (Hyperplane, Sphere), through one batched
  protocol: points are arrays of shape (n,) or (N, n) and answers carry one
  entry (or row) per point.  A piece answers `raw_signed`, `raw_normal`,
  `principal_curvatures(x, exterior_sign)`, `project` and
  `quad_nodes(max_radius, per_dim)`; `domain.OrientedBoundary` adds the side
  of the zero set that Omega occupies.
* Separation pair (`barrier.separation_check`): sigma2 (Hyperplane,
  Cylinder) answers `sample_at_norm(norm, count)`, surface points z with
  |z| = norm, or None when the surface does not reach that norm; sigma1 is
  read through `raw_signed`, whose absolute value is a plane's distance.

Orientation convention: the stored unit normal is outward for spheres and
cylinders and the given unit normal for hyperplanes.  The scalar second
fundamental form is A(X, Y) = -<D_X nu, Y> and the mean curvature vector is
H = (tr A) nu, so the models satisfy x_perp + H = 0 exactly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ContractViolation, MissingGeometryError, ParameterError, build_from_config,
                     require_positive, require_radii)
from .fields import fd_gradient_hessian
from .quadrature import gauss_legendre, halton, sphere_directions

__all__ = [
    "Hyperplane",
    "Sphere",
    "Cylinder",
    "SurfaceSample",
    "ParametrizedPatch",
    "radii",
    "sphere_measure",
    "gaussian_ball_mass",
    "shrinker_residual",
    "cylinder_identities",
    "max_shrinker_residual",
    "identity_extremes",
    "extrinsic_volume_growth",
    "model_from_json",
    "surface_samples",
]


def as_point(p):
    """Coerce to a finite 1D float array (an ambient point)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ParameterError(f"point must be a 1D coordinate vector, got shape {p.shape}")
    if p.size < 2:
        raise ParameterError("ambient dimension must be at least 2")
    if not np.all(np.isfinite(p)):
        raise ParameterError("point has non-finite coordinates")
    return p


def complement_frame(v):
    """Orthonormal basis of the hyperplane orthogonal to the unit vector v.

    Rows of the returned (n-1, n) array span v-perp; deterministic via SVD.
    (N, n) unit vectors give their (N, n-1, n) frames from one stacked SVD.
    """
    v = np.asarray(v, dtype=float)
    _, _, vt = np.linalg.svd(v[..., None, :])
    return vt[..., 1:, :]


def _unit_rows(d):
    """d / np.linalg.norm(d) of each row: a stacked matmul rounds as np.dot.
    A zero row has no direction and raises ParameterError."""
    norms = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ParameterError(f"direction {d[zero[0]].tolist()} has zero length")
    return d / norms


def radii(x):
    """Euclidean norm of an (n,) point or of each row of (..., n) points;
    about 3x faster than np.linalg.norm on (N, 3) rows."""
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _angles(per_dim):
    """Midpoint rule in the angle: nodes and the common weight on [0, 2 pi)."""
    return 2.0 * math.pi * (np.arange(per_dim) + 0.5) / per_dim, 2.0 * math.pi / per_dim


def sphere_measure(d):
    """Surface measure of the unit (d-1)-sphere in R^d.

    scipy.special is imported here, on first use; `math.lgamma` would differ
    from `gammaln` in the last bit at some orders."""
    from scipy.special import gammaln

    return 2.0 * math.pi ** (d / 2.0) / math.exp(gammaln(d / 2.0))


def gaussian_ball_mass(d, radius):
    """int_{|t| <= radius, t in R^d} e^{-|t|^2/2} dt (d = 0 gives 1), for a
    scalar or an array of radii."""
    from scipy.special import gammainc

    if d == 0:
        return 1.0
    r = np.maximum(radius, 0.0)
    return (2.0 * math.pi) ** (d / 2.0) * gammainc(d / 2.0, 0.5 * r * r)


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {<normal, x> = offset} with a unit normal; a model
    shrinker when it passes through the origin."""

    normal: tuple
    offset: float = 0.0

    def __post_init__(self):
        n = as_point(self.normal)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ParameterError("hyperplane normal must be unit length (within 1e-12)")
        object.__setattr__(self, "normal", tuple(float(x) for x in n))
        if not math.isfinite(self.offset):
            raise ParameterError(f"hyperplane offset must be finite, got {self.offset!r}")

    @property
    def ambient_dim(self):
        return len(self.normal)

    @property
    def hypersurface_dim(self):
        return self.ambient_dim - 1

    def quasi_random_samples(self, count, span=3.0):
        """Samples at the orthogonal projections of quasi-random points."""
        ys = (halton(count, self.ambient_dim) - 0.5) * 2.0 * span
        # stacked matmul heights round each row as np.dot; gemv may not
        nu, m = np.asarray(self.normal), self.hypersurface_dim
        signed = (ys[:, None, :] @ nu[:, None])[:, 0, 0] - self.offset
        return _sample_rows(ys - signed[:, None] * nu, np.tile(nu, (count, 1)),
                            np.zeros((count, m, m)), np.tile(complement_frame(nu), (count, 1, 1)))

    def clipped_area(self, R):
        """Volume of the (m-dimensional) disc cut out by the ball B_R."""
        m = self.hypersurface_dim
        return sphere_measure(m) * math.sqrt(max(R * R - self.offset ** 2, 0.0)) ** m / m

    def to_json(self):
        if self.offset:
            raise ParameterError("only a hyperplane through the origin is a model")
        return {"type": "hyperplane", "normal": list(self.normal)}

    def raw_signed(self, x):
        """<x, normal> - offset."""
        return np.asarray(x, dtype=float) @ np.asarray(self.normal) - self.offset

    def raw_normal(self, x):
        return np.broadcast_to(np.asarray(self.normal), np.shape(x))

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return x - self.raw_signed(x)[..., None] * np.asarray(self.normal)

    def principal_curvatures(self, x, exterior_sign):
        shape = np.shape(x)
        return np.zeros(shape[:-1] + (shape[-1] - 1,))

    def quad_nodes(self, max_radius, per_dim):
        """Quadrature of the plane clipped to the origin-centered ball."""
        n = np.asarray(self.normal)
        if abs(self.offset) >= max_radius:
            return np.zeros((0, self.ambient_dim)), np.zeros(0)
        reach = math.sqrt(max_radius ** 2 - self.offset ** 2)
        tangents = complement_frame(n)
        base = self.offset * n
        if self.ambient_dim == 2:
            t, w = gauss_legendre(per_dim, -reach, reach)
            pts = base[None, :] + t[:, None] * tangents[0][None, :]
            return pts, w
        if self.ambient_dim == 3:
            r, wr = gauss_legendre(per_dim, 0.0, reach)
            th, wth = _angles(per_dim)
            rg, tg = np.meshgrid(r, th, indexing="ij")
            pts = (base[None, :]
                   + (rg * np.cos(tg)).reshape(-1, 1) * tangents[0][None, :]
                   + (rg * np.sin(tg)).reshape(-1, 1) * tangents[1][None, :])
            w = (wr[:, None] * r[:, None] * wth * np.ones_like(tg)).reshape(-1)
            return pts, w
        raise MissingGeometryError("plane surface quadrature implemented for ambient 2 and 3")

    def sample_at_norm(self, norm, count):
        off = self.offset
        if norm < abs(off):
            return None
        reach = math.sqrt(max(norm * norm - off * off, 0.0))
        n = np.asarray(self.normal)
        dirs = sphere_directions(count, self.ambient_dim - 1)
        return off * n[None, :] + reach * dirs @ complement_frame(n)


@dataclass(frozen=True)
class Sphere:
    """Round m-sphere centred at the origin, of radius sqrt(m) (the model
    shrinker) unless another radius is given.

    The radial normal is undefined at the centre; it is reported as 0 there.
    """

    m: int
    radius: float = None

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ParameterError("sphere dimension m must be an integer >= 1")
        object.__setattr__(self, "radius", math.sqrt(self.m) if self.radius is None
                           else require_positive("sphere radius", self.radius))

    @property
    def ambient_dim(self):
        return self.m + 1

    @property
    def hypersurface_dim(self):
        return self.m

    def quasi_random_samples(self, count, span=None):
        d = _unit_rows(sphere_directions(count, self.ambient_dim))
        a = np.tile(-np.eye(self.m) / self.radius, (count, 1, 1))
        return _sample_rows(self.radius * d, d, a, complement_frame(d))

    def clipped_area(self, R):
        return sphere_measure(self.m + 1) * self.radius ** self.m if R >= self.radius else 0.0

    def to_json(self):
        if self.radius != math.sqrt(self.m):
            raise ParameterError("only the sphere of radius sqrt(m) is a model")
        return {"type": "sphere", "m": self.m}

    def raw_signed(self, x):
        x = np.asarray(x, dtype=float)
        return radii(x) - self.radius

    def raw_normal(self, x):
        x = np.asarray(x, dtype=float)
        return x / np.maximum(radii(x), 1e-300)[..., None]

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return self.radius * x / np.maximum(radii(x), 1e-300)[..., None]

    def principal_curvatures(self, x, exterior_sign):
        # A(X,Y) = -<D_X nu, Y> with nu = exterior_sign * radial
        shape = np.shape(x)
        return np.full(shape[:-1] + (shape[-1] - 1,), -exterior_sign / self.radius)

    def quad_nodes(self, max_radius, per_dim):
        """Quadrature of the whole sphere; max_radius does not clip it."""
        rho = self.radius
        th, wth = _angles(per_dim)
        if self.ambient_dim == 2:
            pts = rho * np.stack([np.cos(th), np.sin(th)], axis=1)
            return pts, np.full(per_dim, wth * rho)
        if self.ambient_dim == 3:
            # Archimedes: d(sigma) = rho^2 dtheta dz on z in [-1, 1]
            z, wz = gauss_legendre(per_dim, -1.0, 1.0)
            zg, tg = np.meshgrid(z, th, indexing="ij")
            s = np.sqrt(np.clip(1.0 - zg ** 2, 0.0, None))
            pts = rho * np.stack([s * np.cos(tg), s * np.sin(tg), zg], axis=-1).reshape(-1, 3)
            w = (wz[:, None] * wth * rho ** 2 * np.ones_like(tg)).reshape(-1)
            return pts, w
        raise MissingGeometryError("sphere surface quadrature implemented for ambient 2 and 3")


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

    def quasi_random_samples(self, count, span=3.0):
        """Samples at sqrt(k) * d on the spherical factor, offset axially."""
        k, m = self.k, self.m
        d = _unit_rows(sphere_directions(count, k + 1))
        axials = ((halton(count, max(m - k, 1)) - 0.5) * 2.0 * span)[:, : m - k]
        x, nu = np.hstack([self.radius * d, axials]), np.hstack([d, np.zeros_like(axials)])
        # frame: k directions tangent to the spherical factor, then the flat axes
        frame = np.zeros((count, m, self.ambient_dim))
        frame[:, :k, : k + 1] = complement_frame(d)
        frame[:, k:, k + 1:] = np.eye(m - k)
        a = np.zeros((count, m, m))
        a[:, :k, :k] = -np.eye(k) / self.radius
        return _sample_rows(x, nu, a, frame)

    def clipped_area(self, R):
        """Area of the spherical factor times the flat (m-k)-disc of axial
        reach t = sqrt(R^2 - k)."""
        j = self.m - self.k
        t = math.sqrt(max(R * R - self.k, 0.0))
        return (sphere_measure(self.k + 1) * self.radius ** self.k
                * sphere_measure(j) * t ** j / j)

    def to_json(self):
        return {"type": "cylinder", "m": self.m, "k": self.k}

    def sample_at_norm(self, norm, count):
        k = self.k
        if norm < self.radius:
            return None
        axial_reach = math.sqrt(max(norm * norm - k, 0.0))
        dirs = sphere_directions(count, k + 1)
        flat = sphere_directions(count, max(self.m - k, 1))[:, : self.m - k]
        pts = np.zeros((count, self.ambient_dim))
        pts[:, : k + 1] = self.radius * dirs
        pts[:, k + 1:] = axial_reach * flat
        return pts


@dataclass
class SurfaceSample:
    """Pointwise data of an immersed hypersurface.

    frame holds m orthonormal tangent vectors (rows); the second fundamental
    form is expressed in that frame with the convention A(X,Y) = -<D_X nu, Y>,
    so the mean curvature vector is (tr A) * normal.  Construction runs
    `check_sample_contracts` on the sample; model samplers check a stack once.
    """

    point: np.ndarray
    normal: np.ndarray
    second_fundamental_form: np.ndarray
    frame: np.ndarray
    mean_curvature_vector: np.ndarray = field(init=False)

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.normal = np.asarray(self.normal, dtype=float)
        self.second_fundamental_form = np.asarray(self.second_fundamental_form, dtype=float)
        self.frame = np.atleast_2d(np.asarray(self.frame, dtype=float))
        self.mean_curvature_vector = float(np.trace(self.second_fundamental_form)) * self.normal
        check_sample_contracts(self.normal[None], self.second_fundamental_form[None],
                               self.frame[None])

    @property
    def scalar_mean_curvature(self):
        return float(np.trace(self.second_fundamental_form))


def check_sample_contracts(normals, forms, frames):
    """SurfaceSample's contracts on (N, ...) stacks: A symmetric to
    np.allclose's tolerances, |A - A^T| <= 1e-10 + 1e-5 |A^T|, and the frame
    orthogonal to the normal, every |<t_i, nu>| <= 1e-10.  Both compare a
    difference, so a NaN or infinite entry of A, the frame or nu fails."""
    forms_t = forms.swapaxes(1, 2)
    if not np.all(np.abs(forms - forms_t) <= 1e-10 + 1e-5 * np.abs(forms_t)):
        raise ContractViolation("second fundamental form is not symmetric")
    if not np.all(np.abs(frames @ normals[:, :, None]) <= 1e-10):
        raise ContractViolation("tangent frame is not orthogonal to the normal")


def _sample_rows(points, normals, forms, frames):
    """SurfaceSamples with H = (tr A) nu from (N, ...) stacks, checked once."""
    check_sample_contracts(normals, forms, frames)
    h = np.trace(forms, axis1=1, axis2=2)[:, None] * normals
    rows = [object.__new__(SurfaceSample) for _ in h]  # rows skip __post_init__'s check
    for s, *fields in zip(rows, points, normals, forms, frames, h):
        s.point, s.normal, s.second_fundamental_form, s.frame, s.mean_curvature_vector = fields
    return rows


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
        self.fd_step = require_positive("fd_step", self.fd_step)

    @property
    def param_dim(self):
        return self.lo.size

    def sample(self, s):
        """Build a SurfaceSample at parameter s, a point of the rectangle
        lo <= s <= hi, via finite differences, from 1 + 2 m^2 chart calls.
        The chart is evaluated up to fd_step outside the rectangle in each
        coordinate, so it must be defined on the rectangle grown by fd_step."""
        s = np.asarray(s, dtype=float)
        if s.shape != self.lo.shape or not np.all((self.lo <= s) & (s <= self.hi)):
            raise ParameterError(f"parameter {s.tolist()} is not a point of the rectangle "
                                 f"{self.lo.tolist()} .. {self.hi.tolist()}")
        h = self.fd_step
        m = self.param_dim
        x = np.asarray(self.chart(s), dtype=float)
        n = x.size
        if n != m + 1:
            raise ParameterError("chart must map into R^(m+1)")

        steps = h * np.eye(m)  # row i is h e_i
        # chart(s + h e_i) and chart(s - h e_i), shared by the Jacobian and
        # the diagonal second differences
        fwd = [np.asarray(self.chart(s + e)) for e in steps]
        bwd = [np.asarray(self.chart(s - e)) for e in steps]
        jac = np.stack([p - q for p, q in zip(fwd, bwd)], axis=1) / (2 * h)
        u, svals, _ = np.linalg.svd(jac)
        if svals[-1] <= 1e-8:
            raise ParameterError("chart fails the immersion check (singular Jacobian)")
        nu = u[:, -1]  # unit normal: left null vector of the Jacobian

        # coordinate second fundamental form b_ij = <d2 chart, nu>
        b = np.empty((m, m))
        for i, ei in enumerate(steps):
            b[i, i] = np.dot(fwd[i] - 2 * x + bwd[i], nu) / (h * h)
            for j, ej in enumerate(steps[i + 1:], i + 1):
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


def shrinker_residual(sample):
    """Residual x_perp + H of the shrinker equation; zero on exact shrinkers."""
    x, nu = sample.point, sample.normal
    x_perp = np.dot(x, nu) * nu
    return x_perp + sample.mean_curvature_vector


def max_shrinker_residual(samples):
    """Largest |x_perp + H| over the samples, NaN if any residual is NaN;
    a model passes when `worst < 1e-9`."""
    return float(np.max([np.linalg.norm(shrinker_residual(s)) for s in samples]))


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
    grad, hess = grad[:, 0], hess[:, :, 0]
    grad_nu = float(np.dot(grad, nu))
    grad_tan = grad - grad_nu * nu
    lap_surface = float(np.einsum("ij,jk,ik->", frame, hess, frame)) \
        + sample.scalar_mean_curvature * grad_nu
    x_tan = x - np.dot(x, nu) * nu
    return lap_surface - float(np.dot(x_tan, grad_tan)), grad, grad_tan


def cylinder_identities(k, sample):
    """Evaluate the distance-squared identities for u = sum_{A<=k+1} x_A^2.

    Returns the residuals of the gradient identity and of the weighted surface
    Laplacian identity, plus the slack of the sqrt(u) supersolution estimate
    (which must be nonnegative).  The sample may lie on any hypersurface of
    the same ambient space.

    The ambient differencing step is 0.01 * (1 + |x|): u is a
    quadratic, so central differences carry no truncation error and a large
    step only suppresses rounding noise.  Chart-level differentiation error
    enters through the sample's frame and curvature instead.
    """
    x = sample.point
    n = x.size
    if not (1 <= k <= n - 2):
        raise ParameterError(f"need 1 <= k <= {n - 2} for ambient dimension {n}")
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


def identity_extremes(samples, ks):
    """(largest |residual|, smallest sqrt slack), each from 0.0, of
    `cylinder_identities` over every sample and k, keeping a NaN; the
    identities hold when the first is < 1e-6 and the second >= -1e-8.
    No sample or no k raises ParameterError: nothing would be checked."""
    reps = [cylinder_identities(k, s) for s in samples for k in ks]
    if not reps:  # ambient dimension n has a k only in 1..n-2, none for n = 2
        raise ParameterError(f"no identity to check: {len(samples)} samples, k values {ks}")
    res = [abs(x) for r in reps for x in (r.grad_id_residual, r.laplu_residual)]
    slack = [r.sqrtu_slack for r in reps if r.sqrtu_slack is not None]
    return float(np.max([0.0, *res])), float(np.min([0.0, *slack]))


# --------------------------------------------------------------------------
# extrinsic volume growth


@dataclass
class VolumeGrowthResult:
    table: list                # (R, area) pairs
    fitted_exponent: float


def extrinsic_volume_growth(model, radii):
    """Measure |Sigma cap B_R| and fit the growth exponent on the upper radii.

    The fitted exponent must not exceed m + 0.05 (Euclidean volume growth of
    properly immersed shrinkers); exceeding it raises ContractViolation.
    """
    radii = require_radii(radii, "volume-growth radii", at_least=3)
    table = [(r, model.clipped_area(r)) for r in radii]
    if table[0][1] <= 0.0:
        raise ParameterError(f"the smallest radius {radii[0]} does not reach the surface")

    upper = table[len(table) // 2:]
    logs_r = np.log([r for r, _ in upper])
    logs_a = np.log([a for _, a in upper])
    slope = float(np.polyfit(logs_r, logs_a, 1)[0])
    m = model.hypersurface_dim
    if slope > m + 0.05:
        raise ContractViolation(
            f"fitted volume growth exponent {slope:.4f} exceeds m + 0.05 = {m + 0.05}")
    return VolumeGrowthResult(table=table, fitted_exponent=slope)


# --------------------------------------------------------------------------
# the model config and sampling helpers

_MODELS = {
    "hyperplane": (Hyperplane, {"normal": ([float], True)}),
    "sphere": (Sphere, {"m": (int, True)}),
    "cylinder": (Cylinder, {"m": (int, True), "k": (int, True)}),
}


def model_from_json(obj):
    """Model shrinker from its config, e.g. {"type": "cylinder", "m": 2,
    "k": 1}; the inverse of each class's `to_json`."""
    return build_from_config(obj, "type", _MODELS, "model config")


def surface_samples(model, count, span=3.0):
    """count >= 1 deterministic quasi-random SurfaceSamples on a model, over
    coordinates within a finite, positive span."""
    if count < 1:
        raise ParameterError(f"sample count must be at least 1, got {count}")
    return model.quasi_random_samples(count, span=require_positive("span", span))
