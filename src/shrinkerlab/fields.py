"""Scalar and vector fields on R^n and the Gaussian weighted operators.

The weight is fixed to f(x) = |x|^2 / 2, so the weighted Laplacian is the
Ornstein-Uhlenbeck operator  Lap u - <x, grad u>  and the weighted divergence
of a vector field is  div X - <X, x>.  All derivatives are central finite
differences with a relative default step.  `gradient` and
`weighted_laplacian` take an (n,) point or (N, n) points and run on
`fd_gradient_hessian`, the one batched stencil: it evaluates the field at
n^2 + n + 1 points per row (13 in 3D, 7 in 2D), taking the mixed second
differences from the 7-point formula that reuses the axis evaluations.
Its results are component-major, the gradient (n, N) and the Hessian
(n, n, N), so each component is one contiguous array of N values, and
`row_dot` contracts such arrays component by component.
`weighted_divergence` stays pointwise, since vector fields have no batch
evaluator.
"""

import io
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryStencilError, ParameterError

_WORKERS = os.cpu_count() or 1      # threads of `ordered_map`


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
    """Relative differencing step 1e-4 (1 + |p|) of an (n,) point, or of each
    row of (N, n) points; the drift grows linearly."""
    return 1e-4 * (1.0 + np.linalg.norm(p, axis=-1))


def _check_stencil(fld, p, h):
    box = getattr(fld, "declared_domain", None)
    if box is not None and not box.contains(p, margin=h):
        raise BoundaryStencilError(
            f"stencil of width {np.max(h):.6g} at {np.asarray(p)} leaves the "
            "declared domain")


def _stencil_rows(fld, p, h):
    """(N, n) rows of p and one step per row, checked against the domain."""
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    steps = default_step(pts) if h is None else np.full(pts.shape[0], float(h))
    _check_stencil(fld, pts, steps[:, None])
    return pts, steps


def gradient(fld, p, h=None):
    """Central-difference gradient, O(h^2), at an (n,) point or at each row
    of (N, n) points."""
    pts, steps = _stencil_rows(fld, p, h)
    grad, _ = fd_gradient_hessian(fld.batch, pts, steps)
    return grad.T.reshape(np.shape(p))


def weighted_laplacian(fld, p, h=None):
    """Ornstein-Uhlenbeck operator Lap u - <x, grad u> by central differences:
    a float at an (n,) point, an (N,) array at (N, n) points."""
    pts, steps = _stencil_rows(fld, p, h)
    grad, hess = fd_gradient_hessian(fld.batch, pts, steps)
    lap = trace(hess) - row_dot(pts.T, grad)
    return float(lap[0]) if np.ndim(p) == 1 else lap


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


def stencil_evaluations(n):
    """Field evaluations per point of `fd_gradient_hessian` in R^n: the
    centre, two per axis and two per axis pair, n^2 + n + 1 (13 in 3D)."""
    return n * n + n + 1


def row_dot(a, b):
    """sum_i a[i] * b[i] of two component-major arrays (or sequences of
    equal-shaped arrays), added in component order: the row-wise dot
    product of (n, N) components, or the contraction of a Hessian row."""
    out = a[0] * b[0]
    for ai, bi in zip(a[1:], b[1:]):
        out += ai * bi
    return out


def trace(hess):
    """sum_i hess[i, i] of an (n, n, N) component-major Hessian."""
    out = hess[0, 0].copy()
    for i in range(1, hess.shape[0]):
        out += hess[i, i]
    return out


def fd_gradient_hessian(batch, pts, h):
    """Gradient and Hessian at each row of pts (N, n) by central differences
    of step h, one scalar or one step per row (N,); batch maps (N, n) points
    to (N,) values.

    Both are component-major: the gradient is (n, N) and the Hessian
    (n, n, N), so grad[i] and hess[i, j] are contiguous (N,) arrays.  The
    mixed terms reuse the axis evaluations through the 7-point formula
    (f(+i+j) - f(+i) - f(+j) + 2 f0 - f(-i) - f(-j) + f(-i-j)) / (2 h^2), so
    a point costs `stencil_evaluations(n)` field evaluations.  Shifted
    points are written column by column into one reused buffer, a column
    being put back only when the next evaluation does not move it too; a
    result that is a view of the buffer is copied before the buffer changes,
    so batch may return a view of its input.
    """
    N, n = pts.shape
    h = np.asarray(h, dtype=float).reshape(-1)
    buf = np.array(pts, dtype=float)
    moved = []

    def at(sign, *axes):
        """f at pts moved by sign * h along each of axes."""
        for i in moved:
            if i not in axes:
                buf[:, i] = pts[:, i]
        for i in axes:
            np.add(pts[:, i], sign * h, out=buf[:, i])
        moved[:] = axes
        vals = np.asarray(batch(buf), dtype=float)
        return vals.copy() if np.may_share_memory(vals, buf) else vals

    f0 = at(0.0)
    fp = [at(1.0, i) for i in range(n)]
    fm = [at(-1.0, i) for i in range(n)]
    grad = np.empty((n, N))
    hess = np.empty((n, n, N))
    for i in range(n):
        grad[i] = (fp[i] - fm[i]) / (2.0 * h)
        hess[i, i] = (fp[i] - 2.0 * f0 + fm[i]) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            hess[i, j] = (at(1.0, i, j) - fp[i] - fp[j] + 2.0 * f0
                          - fm[i] - fm[j] + at(-1.0, i, j)) / (2.0 * h * h)
            hess[j, i] = hess[i, j]
    return grad, hess


def ordered_map(fn, items):
    """[fn(item) for item in items], run on _WORKERS threads when there is
    more than one item.  numpy releases the GIL, so pure numpy work overlaps,
    and the results come back in item order whatever the worker count."""
    items = list(items)
    if len(items) == 1:
        return [fn(items[0])]
    with ThreadPoolExecutor(_WORKERS) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# grid-backed fields

_GRID_MAGIC = b"SLGRID01"


class GridField(ScalarField):
    """Uniform tensor grid with multilinear interpolation.

    Immutable after construction.  Node values interpolate exactly, also
    beside unsolved (NaN) nodes: a corner of weight 0 adds nothing.  The box
    is the declared domain that derivative stencils must stay inside.
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
                         declared_domain=BoundingBox(tuple(self.origin), tuple(hi)),
                         batch_evaluator=self._interpolate)
        self.values.setflags(write=False)

    @property
    def ndim(self):
        return self.origin.size

    @property
    def shape(self):
        return self.values.shape

    def _locate(self, p):
        t = (np.asarray(p, dtype=float) - self.origin) / self.spacing
        idx = np.floor(t).astype(int)
        idx = np.clip(idx, 0, np.array(self.shape) - 2)
        frac = t - idx
        return idx, frac

    def _interpolate(self, p):
        """Multilinear value at an (n,) point, or (N,) values at (N, n) points."""
        idx, frac = self._locate(p)
        n = self.ndim
        acc = 0.0
        for corner in range(1 << n):
            w = 1.0
            offs = []
            for ax in range(n):
                bit = (corner >> ax) & 1
                w = w * (frac[..., ax] if bit else (1.0 - frac[..., ax]))
                offs.append(idx[..., ax] + bit)
            acc = acc + np.where(w == 0.0, 0.0, w * self.values[tuple(offs)])
        return acc

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
