"""Scalar and vector fields on R^n and the Gaussian weighted operators.

The weight is fixed to f(x) = |x|^2 / 2, so the weighted Laplacian is the
Ornstein-Uhlenbeck operator  Lap u - <x, grad u>  and the weighted divergence
of a vector field is  div X - <X, x>.  All derivatives are central finite
differences with a relative default step; grid-backed fields switch to
one-sided stencils within one cell of their box and report the reduced order.
"""

import io
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryStencilError, ParameterError


@dataclass(frozen=True)
class BoundingBox:
    lo: tuple
    hi: tuple

    def contains(self, p, margin=0.0):
        p = np.asarray(p, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return bool(np.all(p >= lo + margin) and np.all(p <= hi - margin))


class ScalarField:
    """Closed-form scalar field: a Point -> real evaluator plus an optional
    declared bounding box that stencils must respect.

    An optional batch evaluator maps (N, n) arrays to (N,) values; volume
    quadratures use it when present instead of looping pointwise.
    """

    def __init__(self, evaluator, declared_domain=None, batch_evaluator=None):
        self._evaluator = evaluator
        self.declared_domain = declared_domain
        self.batch_eval = batch_evaluator

    def __call__(self, p):
        return float(self._evaluator(np.asarray(p, dtype=float)))

    def batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.batch_eval is not None:
            return np.asarray(self.batch_eval(pts), dtype=float)
        return np.array([self._evaluator(p) for p in pts])


class VectorField:
    def __init__(self, evaluator, declared_domain=None):
        self._evaluator = evaluator
        self.declared_domain = declared_domain

    def __call__(self, p):
        return np.asarray(self._evaluator(np.asarray(p, dtype=float)), dtype=float)


def default_step(p):
    """Relative differencing step 1e-4 (1 + |p|); the drift grows linearly."""
    return 1e-4 * (1.0 + float(np.linalg.norm(p)))


def _check_stencil(fld, p, h):
    box = getattr(fld, "declared_domain", None)
    if box is not None and not box.contains(p, margin=h):
        raise BoundaryStencilError(
            f"stencil of width {h} at {np.asarray(p)} leaves the declared domain")


def gradient(fld, p, h=None):
    """Central-difference gradient, O(h^2)."""
    p = np.asarray(p, dtype=float)
    h = default_step(p) if h is None else float(h)
    _check_stencil(fld, p, h)
    g = np.empty(p.size)
    for i in range(p.size):
        e = np.zeros(p.size)
        e[i] = h
        g[i] = (fld(p + e) - fld(p - e)) / (2.0 * h)
    return g


def weighted_laplacian(fld, p, h=None):
    """Ornstein-Uhlenbeck operator Lap u - <x, grad u> by central differences."""
    p = np.asarray(p, dtype=float)
    h = default_step(p) if h is None else float(h)
    _check_stencil(fld, p, h)
    f0 = fld(p)
    lap = 0.0
    grad = np.empty(p.size)
    for i in range(p.size):
        e = np.zeros(p.size)
        e[i] = h
        fp, fm = fld(p + e), fld(p - e)
        lap += (fp - 2.0 * f0 + fm) / (h * h)
        grad[i] = (fp - fm) / (2.0 * h)
    return lap - float(np.dot(p, grad))


def weighted_divergence(vfld, p, h=None):
    """Weighted divergence div X - <X, x> by central differences."""
    p = np.asarray(p, dtype=float)
    h = default_step(p) if h is None else float(h)
    _check_stencil(vfld, p, h)
    div = 0.0
    for i in range(p.size):
        e = np.zeros(p.size)
        e[i] = h
        div += (vfld(p + e)[i] - vfld(p - e)[i]) / (2.0 * h)
    return div - float(np.dot(vfld(p), p))


def fd_gradient_hessian(batch, pts, h):
    """Gradient (N, n) and Hessian (N, n, n) at each row of pts (N, n) by
    central differences of step h; batch maps (N, n) points to (N,) values."""
    N, n = pts.shape
    f0 = batch(pts)
    grad = np.empty((N, n))
    hess = np.empty((N, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fp = batch(pts + e)
        fm = batch(pts - e)
        grad[:, i] = (fp - fm) / (2.0 * h)
        hess[:, i, i] = (fp - 2.0 * f0 + fm) / (h * h)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (batch(pts + ei + ej) - batch(pts + ei - ej)
                     - batch(pts - ei + ej) + batch(pts - ei - ej)) / (4.0 * h * h)
            hess[:, i, j] = mixed
            hess[:, j, i] = mixed
    return grad, hess


# --------------------------------------------------------------------------
# grid-backed fields

_GRID_MAGIC = b"SLGRID01"


class GridField(ScalarField):
    """Uniform tensor grid with multilinear interpolation.

    Immutable after construction.  Node values interpolate exactly; within
    one cell of the box boundary the derivative stencils fall back to
    one-sided differences (order reported by :meth:`stencil_order`).
    """

    def __init__(self, origin, spacing, values):
        self.origin = np.asarray(origin, dtype=float)
        spacing = np.asarray(spacing, dtype=float)
        if spacing.ndim == 0:
            spacing = np.full(self.origin.size, float(spacing))
        self.spacing = spacing
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != self.origin.size or self.origin.size != self.spacing.size:
            raise ParameterError("grid dims, origin and spacing are inconsistent")
        hi = self.origin + (np.array(self.values.shape) - 1) * self.spacing
        super().__init__(self._interpolate,
                         declared_domain=BoundingBox(tuple(self.origin), tuple(hi)))
        self.values.setflags(write=False)

    @property
    def ndim(self):
        return self.origin.size

    @property
    def shape(self):
        return self.values.shape

    def node_coordinates(self, axis):
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])

    def _locate(self, p):
        t = (np.asarray(p, dtype=float) - self.origin) / self.spacing
        idx = np.floor(t).astype(int)
        idx = np.clip(idx, 0, np.array(self.shape) - 2)
        frac = t - idx
        return idx, frac

    def _interpolate(self, p):
        idx, frac = self._locate(p)
        n = self.ndim
        acc = 0.0
        for corner in range(1 << n):
            w = 1.0
            offs = []
            for ax in range(n):
                bit = (corner >> ax) & 1
                w *= frac[ax] if bit else (1.0 - frac[ax])
                offs.append(idx[ax] + bit)
            acc += w * self.values[tuple(offs)]
        return acc

    def stencil_order(self, p):
        """2 for centered interior stencils, 1 where one-sided kicks in."""
        idx, _ = self._locate(p)
        interior = all(1 <= idx[ax] and idx[ax] + 1 <= self.shape[ax] - 2
                       for ax in range(self.ndim))
        return 2 if interior else 1

    def gradient(self, p):
        """Gradient by differencing interpolated values at node spacing."""
        p = np.asarray(p, dtype=float)
        lo = self.origin
        hi = self.origin + (np.array(self.shape) - 1) * self.spacing
        g = np.empty(self.ndim)
        for ax in range(self.ndim):
            h = self.spacing[ax]
            e = np.zeros(self.ndim)
            e[ax] = h
            if p[ax] - h >= lo[ax] and p[ax] + h <= hi[ax]:
                g[ax] = (self(p + e) - self(p - e)) / (2.0 * h)
            elif p[ax] + 2 * h <= hi[ax]:   # one-sided forward, reduced order
                g[ax] = (-3.0 * self(p) + 4.0 * self(p + e) - self(p + 2 * e)) / (2.0 * h)
            elif p[ax] - 2 * h >= lo[ax]:
                g[ax] = (3.0 * self(p) - 4.0 * self(p - e) + self(p - 2 * e)) / (2.0 * h)
            else:
                raise BoundaryStencilError("grid too small for a gradient stencil")
        return g

    # -- serialization -----------------------------------------------------

    def to_binary(self):
        """Flat binary: magic, ndim, dims, spacing, origin, row-major float64."""
        buf = io.BytesIO()
        buf.write(_GRID_MAGIC)
        buf.write(struct.pack("<q", self.ndim))
        buf.write(struct.pack(f"<{self.ndim}q", *self.shape))
        buf.write(struct.pack(f"<{self.ndim}d", *self.spacing))
        buf.write(struct.pack(f"<{self.ndim}d", *self.origin))
        buf.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())
        return buf.getvalue()

    @classmethod
    def from_binary(cls, payload):
        buf = io.BytesIO(payload)
        if buf.read(8) != _GRID_MAGIC:
            raise ParameterError("not a grid-field binary payload")
        (ndim,) = struct.unpack("<q", buf.read(8))
        dims = struct.unpack(f"<{ndim}q", buf.read(8 * ndim))
        spacing = struct.unpack(f"<{ndim}d", buf.read(8 * ndim))
        origin = struct.unpack(f"<{ndim}d", buf.read(8 * ndim))
        count = int(np.prod(dims))
        values = np.frombuffer(buf.read(8 * count), dtype="<f8").reshape(dims)
        return cls(origin=origin, spacing=spacing, values=values.copy())

    def to_csv(self):
        """Node dump for inspection: one row per node, coords then value."""
        n = self.ndim
        header = ",".join(f"x{i}" for i in range(n)) + ",value"
        lines = [header]
        for flat_idx in np.ndindex(*self.shape):
            coords = self.origin + self.spacing * np.array(flat_idx)
            coord_txt = ",".join(repr(float(c)) for c in coords)
            lines.append(f"{coord_txt},{float(self.values[flat_idx])!r}")
        return "\n".join(lines) + "\n"
