"""Domains between labeled boundary hypersurfaces.

A DomainSpec describes the region Omega enclosed by two boundary pieces
(Dirichlet data 0 on sigma1, 1 on sigma2) intersected with an exhaustion
ball.  Every geometric question about a piece goes through one batched
protocol: points are arrays of shape (n,) or (N, n) and answers carry one
entry (or row) per point.  A piece provides `raw_signed`, `raw_normal`,
`principal_curvatures`, `project` and `quad_nodes(ambient_dim, max_radius,
per_dim)`; OrientedBoundary turns these into `depth`, `exterior_normal`,
`principal_curvatures`, `weighted_mean_curvature`, `project` and
`quad_nodes` for the side Omega occupies.  That is everything the solver,
the energy bookkeeping, the barriers and the Reilly integrals need.

Orientation bookkeeping: each piece is wrapped with the side of its zero set
that Omega occupies, so `depth` is positive inside Omega and the reported
normal always points out of Omega.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingGeometryError, ParameterError
from .geometry import complement_frame
from .quadrature import gauss_legendre

__all__ = [
    "PlaneBoundary",
    "SphereBoundary",
    "LevelSetBoundary",
    "OrientedBoundary",
    "DomainSpec",
    "slab_domain",
    "annulus_domain",
    "ball_domain",
    "domain_from_json",
]


def radii(x):
    """Euclidean norm of an (n,) point or of each row of (..., n) points;
    about 3x faster than np.linalg.norm on (N, 3) rows."""
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _angles(per_dim):
    """Midpoint rule in the angle: nodes and the common weight on [0, 2 pi)."""
    return 2.0 * math.pi * (np.arange(per_dim) + 0.5) / per_dim, 2.0 * math.pi / per_dim


@dataclass(frozen=True)
class PlaneBoundary:
    """Affine hyperplane {<normal, x> = offset}."""

    normal: tuple
    offset: float = 0.0

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ParameterError("plane normal must be unit length")
        object.__setattr__(self, "normal", tuple(float(v) for v in n))

    @property
    def ambient_dim(self):
        return len(self.normal)

    def raw_signed(self, x):
        x = np.asarray(x, dtype=float)
        return x @ np.asarray(self.normal) - self.offset

    def raw_normal(self, x):
        return np.broadcast_to(np.asarray(self.normal), np.shape(x))

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return x - self.raw_signed(x)[..., None] * np.asarray(self.normal)

    def principal_curvatures(self, x, exterior_sign):
        shape = np.shape(x)
        return np.zeros(shape[:-1] + (shape[-1] - 1,))

    def quad_nodes(self, ambient_dim, max_radius, per_dim=256):
        """Quadrature of the plane clipped to the origin-centered ball."""
        n = np.asarray(self.normal)
        if abs(self.offset) >= max_radius:
            return np.zeros((0, ambient_dim)), np.zeros(0)
        reach = math.sqrt(max_radius ** 2 - self.offset ** 2)
        tangents = complement_frame(n)
        base = self.offset * n
        if ambient_dim == 2:
            t, w = gauss_legendre(per_dim, -reach, reach)
            pts = base[None, :] + t[:, None] * tangents[0][None, :]
            return pts, w
        if ambient_dim == 3:
            r, wr = gauss_legendre(per_dim, 0.0, reach)
            th, wth = _angles(per_dim)
            rg, tg = np.meshgrid(r, th, indexing="ij")
            pts = (base[None, :]
                   + (rg * np.cos(tg)).reshape(-1, 1) * tangents[0][None, :]
                   + (rg * np.sin(tg)).reshape(-1, 1) * tangents[1][None, :])
            w = (wr[:, None] * r[:, None] * wth * np.ones_like(tg)).reshape(-1)
            return pts, w
        raise MissingGeometryError("plane surface quadrature implemented for ambient 2 and 3")

    def to_json(self):
        return {"type": "plane", "normal": list(self.normal), "offset": self.offset}


@dataclass(frozen=True)
class SphereBoundary:
    """Round sphere of the given radius centered at the origin.

    The radial normal is undefined at the center; it is reported as 0 there.
    """

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ParameterError("sphere radius must be positive")

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

    def quad_nodes(self, ambient_dim, max_radius, per_dim=256):
        """Quadrature of the whole sphere; max_radius does not clip it."""
        rho = self.radius
        th, wth = _angles(per_dim)
        if ambient_dim == 2:
            pts = rho * np.stack([np.cos(th), np.sin(th)], axis=1)
            return pts, np.full(per_dim, wth * rho)
        if ambient_dim == 3:
            # Archimedes: d(sigma) = rho^2 dtheta dz on z in [-1, 1]
            z, wz = gauss_legendre(per_dim, -1.0, 1.0)
            zg, tg = np.meshgrid(z, th, indexing="ij")
            s = np.sqrt(np.clip(1.0 - zg ** 2, 0.0, None))
            pts = rho * np.stack([s * np.cos(tg), s * np.sin(tg), zg], axis=-1).reshape(-1, 3)
            w = (wz[:, None] * wth * rho ** 2 * np.ones_like(tg)).reshape(-1)
            return pts, w
        raise MissingGeometryError("sphere surface quadrature implemented for ambient 2 and 3")

    def to_json(self):
        return {"type": "sphere", "radius": self.radius}


@dataclass(frozen=True)
class LevelSetBoundary:
    """Generic level-set boundary {s(x) = 0}: a signed function and nothing
    else, so every protocol question beyond `raw_signed` is refused."""

    func: callable

    def raw_signed(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self.func(x))
        return np.array([float(self.func(row)) for row in x.reshape(-1, x.shape[-1])]) \
            .reshape(x.shape[:-1])

    def _missing(self, *args, **kwargs):
        raise MissingGeometryError(
            "level-set boundary carries no curvature data: its normal, curvatures, "
            "projection and surface quadrature are unavailable")

    raw_normal = project = principal_curvatures = quad_nodes = _missing

    def to_json(self):
        raise ParameterError("level-set boundaries are not JSON-serializable")


class OrientedBoundary:
    """A boundary piece together with the side of it that Omega occupies.

    side=+1 means Omega lies where raw_signed > 0.  depth() is positive
    inside Omega; exterior_normal() points out of Omega; curvature data is
    expressed with respect to that exterior normal.  Every method takes
    points of shape (n,) or (N, n).
    """

    def __init__(self, piece, side):
        if side not in (+1, -1):
            raise ParameterError("side must be +1 or -1")
        self.piece = piece
        self.side = side

    def depth(self, x):
        return self.side * self.piece.raw_signed(x)

    def exterior_normal(self, x):
        return -self.side * self.piece.raw_normal(x)

    def principal_curvatures(self, x):
        """Principal curvatures of A(X,Y) = -<D_X nu, Y>, one row per point."""
        return self.piece.principal_curvatures(x, exterior_sign=-self.side)

    def weighted_mean_curvature(self, x):
        """H_f = tr A + <x, nu> with respect to the exterior normal."""
        x = np.asarray(x, dtype=float)
        return (np.sum(self.principal_curvatures(x), axis=-1)
                + np.einsum("...i,...i->...", x, self.exterior_normal(x)))

    def project(self, x):
        return self.piece.project(x)

    def quad_nodes(self, ambient_dim, max_radius, per_dim=256):
        return self.piece.quad_nodes(ambient_dim, max_radius, per_dim)

    def to_json(self):
        obj = self.piece.to_json()
        obj["side"] = self.side
        return obj


def _piece_from_json(obj):
    kind = obj["type"]
    if kind == "plane":
        piece = PlaneBoundary(normal=tuple(obj["normal"]), offset=float(obj["offset"]))
    elif kind == "sphere":
        piece = SphereBoundary(radius=float(obj["radius"]))
    else:
        raise ParameterError(f"unknown boundary type {kind!r}")
    return OrientedBoundary(piece, int(obj["side"]))


class DomainSpec:
    """Region between sigma1 (Dirichlet 0) and sigma2 (Dirichlet 1) inside an
    exhaustion ball of radius `exhaustion_radius`."""

    def __init__(self, sigma1, sigma2, exhaustion_radius, ambient_dim,
                 kind="generic", params=None, box_hint=None):
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        self.exhaustion_radius = float(exhaustion_radius)
        self.ambient_dim = int(ambient_dim)
        self.kind = kind
        self.params = dict(params or {})
        self.box_hint = box_hint
        if self.exhaustion_radius <= 0:
            raise ParameterError("exhaustion radius must be positive")

    def pieces(self):
        out = [("sigma1", self.sigma1)]
        if self.sigma2 is not None:
            out.append(("sigma2", self.sigma2))
        return out

    def grid_box(self, radius=None):
        """Axis box covering Omega intersected with the exhaustion ball."""
        r = self.exhaustion_radius if radius is None else radius
        lo = np.full(self.ambient_dim, -r)
        hi = np.full(self.ambient_dim, r)
        if self.box_hint is not None:
            hlo, hhi = self.box_hint
            lo = np.maximum(lo, hlo)
            hi = np.minimum(hi, hhi)
        return lo, hi

    def with_radius(self, radius):
        return DomainSpec(self.sigma1, self.sigma2, radius, self.ambient_dim,
                          kind=self.kind, params=self.params, box_hint=self.box_hint)

    def to_json(self):
        obj = {"kind": self.kind, "ambient_dim": self.ambient_dim,
               "radius": self.exhaustion_radius}
        obj.update(self.params)
        return obj


def slab_domain(h1, h2, ambient_dim=2, radius=4.0, axis=-1):
    """Domain between the parallel hyperplanes {s = h1} (data 0), {s = h2} (data 1)."""
    if not h1 < h2:
        raise ParameterError("slab requires h1 < h2")
    axis = axis % ambient_dim
    normal = np.zeros(ambient_dim)
    normal[axis] = 1.0
    s1 = OrientedBoundary(PlaneBoundary(tuple(normal), h1), side=+1)
    s2 = OrientedBoundary(PlaneBoundary(tuple(normal), h2), side=-1)
    lo = np.full(ambient_dim, -np.inf)
    hi = np.full(ambient_dim, np.inf)
    lo[axis], hi[axis] = h1, h2
    return DomainSpec(s1, s2, radius, ambient_dim, kind="slab",
                      params={"h1": h1, "h2": h2, "axis": axis}, box_hint=(lo, hi))


def annulus_domain(a, b, ambient_dim=2, radius=None):
    """Domain between concentric spheres r = a (data 0) and r = b (data 1)."""
    if not 0 < a < b:
        raise ParameterError("annulus requires 0 < a < b")
    if radius is None:
        radius = b + 1.0
    s1 = OrientedBoundary(SphereBoundary(a), side=+1)
    s2 = OrientedBoundary(SphereBoundary(b), side=-1)
    lo = np.full(ambient_dim, -b)
    hi = np.full(ambient_dim, b)
    return DomainSpec(s1, s2, radius, ambient_dim, kind="annulus",
                      params={"a": a, "b": b}, box_hint=(lo, hi))


def ball_domain(rho, ambient_dim=3, radius=None):
    """Ball of radius rho; single boundary piece labeled sigma1."""
    if rho <= 0:
        raise ParameterError("ball radius must be positive")
    if radius is None:
        radius = rho + 1.0
    s1 = OrientedBoundary(SphereBoundary(rho), side=-1)
    lo = np.full(ambient_dim, -rho)
    hi = np.full(ambient_dim, rho)
    return DomainSpec(s1, None, radius, ambient_dim, kind="ball",
                      params={"rho": rho}, box_hint=(lo, hi))


def domain_from_json(obj):
    kind = obj.get("kind")
    if kind == "slab":
        return slab_domain(float(obj["h1"]), float(obj["h2"]),
                           ambient_dim=int(obj.get("ambient_dim", 2)),
                           radius=float(obj.get("radius", 4.0)),
                           axis=int(obj.get("axis", -1)))
    if kind == "annulus":
        return annulus_domain(float(obj["a"]), float(obj["b"]),
                              ambient_dim=int(obj.get("ambient_dim", 2)),
                              radius=obj.get("radius"))
    if kind == "ball":
        return ball_domain(float(obj["rho"]),
                           ambient_dim=int(obj.get("ambient_dim", 3)),
                           radius=obj.get("radius"))
    if kind == "generic":
        return DomainSpec(_piece_from_json(obj["sigma1"]),
                          _piece_from_json(obj["sigma2"]) if obj.get("sigma2") else None,
                          float(obj["radius"]), int(obj["ambient_dim"]))
    raise ParameterError(f"unknown domain kind {kind!r}")
