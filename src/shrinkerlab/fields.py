"""Scalar and vector fields on R^n and the Gaussian weighted operators.

The weight is fixed to f(x) = |x|^2 / 2, so the weighted Laplacian is the
Ornstein-Uhlenbeck operator  Lap u - <x, grad u>  and the weighted divergence
of a vector field is  div X - <X, x>.  All derivatives are central finite
differences with a relative default step.  `gradient` (2n field evaluations
per point) and `weighted_laplacian` (on `fd_gradient_hessian`, n^2 + n + 1
per point, the mixed terms from the 7-point formula) take an (n,) point or
(N, n) points.  Stencil results are component-major, the gradient (n, N) and
the Hessian (n, n, N), so `row_dot` contracts them component by component.
`weighted_divergence` stays pointwise, since vector fields have no batch
evaluator.
"""

import ctypes
import functools
import io
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryStencilError, ParameterError

_WORKERS = os.cpu_count() or 1      # threads of `ordered_map`


def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when there is none.  dlsym on numpy's own extension module searches
    the libraries it links, so no path is needed.  numpy 2's wheels bundle
    OpenBLAS with the scipy_openblas prefix and 64_ suffix, numpy 1's with
    the 64_ suffix alone, and a system build has the plain names."""
    try:
        from numpy._core import _multiarray_umath as extension
    except ImportError:             # numpy < 2
        from numpy.core import _multiarray_umath as extension
    try:
        lib = ctypes.CDLL(extension.__file__)
    except OSError:
        return None
    for get, put in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads")):
        if hasattr(lib, get) and hasattr(lib, put):
            getter, setter = getattr(lib, get), getattr(lib, put)
            getter.argtypes, getter.restype = (), ctypes.c_int
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            return getter, setter
    return None


_OPENBLAS_THREADS = _openblas_thread_calls()


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
    """Central-difference gradient, O(h^2), from 2n field evaluations per
    point, at an (n,) point or at each row of (N, n) points."""
    pts, steps = _stencil_rows(fld, p, h)
    at = _shifted(fld.batch, pts, steps)
    grad = np.empty(pts.shape[::-1])
    for i in range(pts.shape[1]):
        grad[i] = (at(1.0, i) - at(-1.0, i)) / (2.0 * steps)
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


def _shifted(batch, pts, h):
    """at(sign, *axes): batch at a fresh copy of pts moved by sign * h along
    each of axes, as a contiguous float array: a strided view of the moved
    copy (batch may return one) is compacted, so it does not hold the copy."""
    def at(sign, *axes):
        moved = pts.copy()
        for i in axes:
            moved[:, i] += sign * h
        return np.ascontiguousarray(batch(moved), dtype=float)
    return at


def fd_gradient_hessian(batch, pts, h):
    """Gradient and Hessian at each row of pts (N, n) by central differences
    of step h, one scalar or one step per row (N,); batch maps (N, n) points
    to (N,) values.

    Both are component-major: the gradient is (n, N) and the Hessian
    (n, n, N), so grad[i] and hess[i, j] are contiguous (N,) arrays.  The
    mixed terms reuse the axis evaluations through the 7-point formula
    (f(+i+j) - f(+i) - f(+j) + 2 f0 - f(-i) - f(-j) + f(-i-j)) / (2 h^2), so
    a point costs `stencil_evaluations(n)` field evaluations.
    """
    N, n = pts.shape
    h = np.asarray(h, dtype=float).reshape(-1)
    at = _shifted(batch, pts, h)
    f0_2 = at(0.0)
    f0_2 *= 2.0     # every formula reads 2 f0
    fp = [at(1.0, i) for i in range(n)]
    fm = [at(-1.0, i) for i in range(n)]
    grad = np.empty((n, N))
    hess = np.empty((n, n, N))
    for i in range(n):
        grad[i] = (fp[i] - fm[i]) / (2.0 * h)
        hess[i, i] = (fp[i] - f0_2 + fm[i]) / (h * h)
    # the mixed terms are formed in place, in the formula's order, so that a
    # pair's temporaries are its two evaluations only
    for i in range(n):
        for j in range(i + 1, n):
            mixed = np.subtract(at(1.0, i, j), fp[i], out=hess[i, j])
            mixed -= fp[j]
            mixed += f0_2
            mixed -= fm[i]
            mixed -= fm[j]
            mixed += at(-1.0, i, j)
            mixed /= 2.0 * h * h
            hess[j, i] = mixed
    return grad, hess


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, and restore the count it had on exit; a
    no-op without OpenBLAS.  The count is process-wide: in a pthread build
    `openblas_set_num_threads_local` changed the caller's count as well."""
    if _OPENBLAS_THREADS is None:
        yield
        return
    get, put = _OPENBLAS_THREADS
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def ordered_map(fn, items):
    """[fn(item) for item in items], run on _WORKERS threads when there is
    more than one item.  numpy releases the GIL, so pure numpy work overlaps,
    and the results come back in item order whatever the worker count.

    One worker per core: more only add items in flight.  On a 2-core x86-64
    machine the reilly_ball benchmark (seed 1, 10 s runs, four each) took
    0.49-0.54 s a pass with 2 workers and 0.54-0.63 s with 3, and the third
    worker added about 8 MB of peak RSS (57.4-57.8 against 65.2-65.5 MB).

    While the pool runs, OpenBLAS is held at one thread (`_one_blas_thread`):
    the workers already fill the cores, and a BLAS call inside one (a
    plane's depth is a gemv) would start threads of its own.  On that
    machine a 100k-path Monte Carlo estimate on the slab took 1.8 s instead
    of 3.2 s, and on an oblique slab 1.7 s instead of 2.9 s, with
    bit-identical estimates.  The count is process-wide and saved and
    restored without a lock, so ordered_map must not be called from several
    threads at once: two overlapping calls could leave OpenBLAS at one
    thread."""
    items = list(items)
    if len(items) == 1:
        return [fn(items[0])]
    with _one_blas_thread(), ThreadPoolExecutor(_WORKERS) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------------------
# grid-backed fields

_GRID_MAGIC = b"SLGRID01"


def _interpolate(origin, spacing, values, p):
    """Multilinear value of a grid at an (n,) point, or (N,) values at (N, n) points."""
    t = (np.asarray(p, dtype=float) - origin) / spacing
    idx = np.clip(np.floor(t).astype(int), 0, np.array(values.shape) - 2)
    frac = t - idx
    acc = 0.0
    for corner in range(1 << origin.size):
        w = 1.0
        offs = []
        for ax in range(origin.size):
            bit = (corner >> ax) & 1
            w = w * (frac[..., ax] if bit else (1.0 - frac[..., ax]))
            offs.append(idx[..., ax] + bit)
        acc = acc + np.where(w == 0.0, 0.0, w * values[tuple(offs)])
    return acc


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
        # the evaluator holds the arrays, not the field: a bound method would
        # make each field a reference cycle, freed only by the cyclic collector
        interpolate = functools.partial(_interpolate, self.origin, self.spacing, self.values)
        super().__init__(interpolate,
                         declared_domain=BoundingBox(tuple(self.origin), tuple(hi)),
                         batch_evaluator=interpolate)
        self.values.setflags(write=False)

    @property
    def ndim(self):
        return self.origin.size

    @property
    def shape(self):
        return self.values.shape

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
        """The field that `to_binary` wrote; a payload shorter or longer than
        its header declares is a ParameterError."""
        if payload[:8] != _GRID_MAGIC:
            raise ParameterError("not a grid-field binary payload")
        size = len(payload)
        ndim = struct.unpack_from("<q", payload, 8)[0] if size >= 16 else -1
        header = 16 + 24 * ndim
        dims = struct.unpack_from(f"<{ndim}q", payload, 16) if 0 <= header <= size else (-1,)
        if min(dims, default=0) < 0 or size != header + 8 * math.prod(dims):
            raise ParameterError(f"grid-field payload of {size} bytes does not match its header")
        spacing = struct.unpack_from(f"<{ndim}d", payload, 16 + 8 * ndim)
        origin = struct.unpack_from(f"<{ndim}d", payload, 16 + 16 * ndim)
        values = np.frombuffer(payload, dtype="<f8", offset=header).reshape(dims)
        return cls(origin=origin, spacing=spacing, values=values.copy())
