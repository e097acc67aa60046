"""Domains between labeled boundary hypersurfaces.

A DomainSpec describes the region Omega enclosed by two boundary pieces
(Dirichlet data 0 on sigma1, 1 on sigma2) intersected with an exhaustion
ball.  A piece is an OrientedBoundary: a `geometry.Hyperplane` or
`geometry.Sphere`, which answers the batched piece protocol documented in
`geometry`, together with the side of its zero set that Omega occupies.
From these it answers `depth` (positive inside Omega), `exterior_normal`
(pointing out of Omega), `principal_curvatures`, `weighted_mean_curvature`,
`project` and `quad_nodes` for that side.  That is everything the solver,
the energy bookkeeping, the barriers and the Reilly integrals need.  A slab
or annulus also carries its exact solution (`solver.SlabProfile` or
`RadialProfile`) as `closed_form`, for the checks of grids and Monte Carlo.

`domain_from_json` reads the domain config: a "kind" (slab, annulus, ball
or generic) and exactly the arguments of that kind's builder.
"""

import numpy as np

from .errors import ParameterError, build_from_config
from .geometry import Hyperplane, Sphere
from .solver import RadialProfile, SlabProfile

__all__ = [
    "OrientedBoundary",
    "DomainSpec",
    "slab_domain",
    "annulus_domain",
    "ball_domain",
    "domain_from_json",
]

# Old names of the two piece classes, kept only because the benchmark's
# tracer hooks `principal_curvatures` under them; nothing else uses them.
PlaneBoundary = Hyperplane
SphereBoundary = Sphere


class OrientedBoundary:
    """A boundary shape together with the side of it that Omega occupies.

    side=+1 means Omega lies where raw_signed > 0.  depth() is positive
    inside Omega; exterior_normal() points out of Omega; curvature data is
    expressed with respect to that exterior normal.  Every method takes
    points of shape (n,) or (N, n).
    """

    def __init__(self, shape, side):
        if side not in (+1, -1):
            raise ParameterError("side must be +1 or -1")
        self.shape = shape
        self.side = side

    def depth(self, x, out=None):
        """side * raw_signed(x), written into `out` when one is given."""
        return np.multiply(self.side, self.shape.raw_signed(x), out=out)

    def exterior_normal(self, x):
        return -self.side * self.shape.raw_normal(x)

    def principal_curvatures(self, x):
        """Principal curvatures of A(X,Y) = -<D_X nu, Y>, one row per point."""
        return self.shape.principal_curvatures(x, exterior_sign=-self.side)

    def weighted_mean_curvature(self, x):
        """H_f = tr A + <x, nu> with respect to the exterior normal."""
        x = np.asarray(x, dtype=float)
        return (np.sum(self.principal_curvatures(x), axis=-1)
                + np.einsum("...i,...i->...", x, self.exterior_normal(x)))

    def project(self, x):
        return self.shape.project(x)

    def quad_nodes(self, max_radius, per_dim=256):
        return self.shape.quad_nodes(max_radius, per_dim)


class DomainSpec:
    """Region between sigma1 (Dirichlet 0) and sigma2 (Dirichlet 1) inside an
    exhaustion ball of radius `exhaustion_radius`; `closed_form` is the exact
    solution's profile, or None when the domain has none."""

    def __init__(self, sigma1, sigma2, exhaustion_radius, ambient_dim,
                 closed_form=None, box_hint=None):
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        self.exhaustion_radius = float(exhaustion_radius)
        self.ambient_dim = int(ambient_dim)
        self.closed_form = closed_form
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
                          self.closed_form, self.box_hint)


def slab_domain(h1, h2, ambient_dim=2, radius=4.0, axis=-1):
    """Domain between the parallel hyperplanes {s = h1} (data 0), {s = h2} (data 1)."""
    if not h1 < h2:
        raise ParameterError("slab requires h1 < h2")
    axis = axis % ambient_dim
    normal = np.zeros(ambient_dim)
    normal[axis] = 1.0
    s1 = OrientedBoundary(Hyperplane(tuple(normal), h1), side=+1)
    s2 = OrientedBoundary(Hyperplane(tuple(normal), h2), side=-1)
    lo = np.full(ambient_dim, -np.inf)
    hi = np.full(ambient_dim, np.inf)
    lo[axis], hi[axis] = h1, h2
    return DomainSpec(s1, s2, radius, ambient_dim, SlabProfile(h1, h2, ambient_dim, axis),
                      box_hint=(lo, hi))


def annulus_domain(a, b, ambient_dim=2, radius=None):
    """Domain between concentric spheres r = a (data 0) and r = b (data 1)."""
    if not 0 < a < b:
        raise ParameterError("annulus requires 0 < a < b")
    if radius is None:
        radius = b + 1.0
    s1 = OrientedBoundary(Sphere(ambient_dim - 1, a), side=+1)
    s2 = OrientedBoundary(Sphere(ambient_dim - 1, b), side=-1)
    lo = np.full(ambient_dim, -b)
    hi = np.full(ambient_dim, b)
    return DomainSpec(s1, s2, radius, ambient_dim, RadialProfile(a, b, ambient_dim),
                      box_hint=(lo, hi))


def ball_domain(rho, ambient_dim=3, radius=None):
    """Ball of radius rho; single boundary piece labeled sigma1."""
    if rho <= 0:
        raise ParameterError("ball radius must be positive")
    if radius is None:
        radius = rho + 1.0
    s1 = OrientedBoundary(Sphere(ambient_dim - 1, rho), side=-1)
    lo = np.full(ambient_dim, -rho)
    hi = np.full(ambient_dim, rho)
    return DomainSpec(s1, None, radius, ambient_dim, box_hint=(lo, hi))


def _generic_domain(sigma1, radius, ambient_dim, sigma2=None):
    """Domain between two pieces given as configs, e.g. {"type": "plane",
    "normal": [0, 1], "offset": -2.0, "side": 1} or {"type": "sphere",
    "radius": 1.0, "side": 1}."""
    def plane(normal, offset, side):
        if len(normal) != ambient_dim:
            raise ParameterError(f"plane boundary piece: key 'normal' has {len(normal)} "
                                 f"entries, but ambient_dim is {ambient_dim}")
        return OrientedBoundary(Hyperplane(normal, offset), side)

    pieces = {
        "plane": (plane, {"normal": ([float], True), "offset": (float, True),
                          "side": (int, True)}),
        "sphere": (lambda radius, side: OrientedBoundary(Sphere(ambient_dim - 1, radius), side),
                   {"radius": (float, True), "side": (int, True)}),
    }
    return DomainSpec(build_from_config(sigma1, "type", pieces, "boundary piece"),
                      build_from_config(sigma2, "type", pieces, "boundary piece")
                      if sigma2 else None, radius, ambient_dim)


_NUMBER, _OPTIONAL_NUMBER, _OPTIONAL_INT = (float, True), (float, False), (int, False)
_KINDS = {
    "slab": (slab_domain, {"h1": _NUMBER, "h2": _NUMBER, "ambient_dim": _OPTIONAL_INT,
                           "radius": _OPTIONAL_NUMBER, "axis": _OPTIONAL_INT}),
    "annulus": (annulus_domain, {"a": _NUMBER, "b": _NUMBER, "ambient_dim": _OPTIONAL_INT,
                                 "radius": _OPTIONAL_NUMBER}),
    "ball": (ball_domain, {"rho": _NUMBER, "ambient_dim": _OPTIONAL_INT,
                           "radius": _OPTIONAL_NUMBER}),
    "generic": (_generic_domain, {"sigma1": (dict, True), "sigma2": (dict, False),
                                  "radius": _NUMBER, "ambient_dim": (int, True)}),
}


def domain_from_json(obj):
    """Domain from its config; unknown, missing or mistyped keys raise
    ParameterError."""
    return build_from_config(obj, "kind", _KINDS, "domain config")
