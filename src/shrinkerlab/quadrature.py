"""Deterministic quadrature and low-discrepancy sampling helpers.

Every 1D integral in the package is a closed form or a fixed rule from the
cached `gauss_legendre` table.  The boundary pieces' surface quadratures
take that rule in the radius or height and the equispaced rule in the
periodic angle, which is exact for trigonometric polynomials of degree
below the node count.  `CumulativeProfile` turns a positive density into the
normalized cumulative integral behind the slab and radial closed forms and
the barrier profile psi.  The Halton sequence gives reproducible quasi-random
points for sampling shells and surfaces, built for all points at once.
"""

from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .fields import ScalarField

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# leading Halton points skipped, to avoid the degenerate early entries
_HALTON_SKIP = 20


@lru_cache(maxsize=64)
def gauss_legendre(n, a=0.0, b=1.0):
    """Return cached Gauss-Legendre nodes and weights on [a, b], read-only,
    so that no caller can change the rule for the next one."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (b - a) * (x + 1.0) + a
    w = 0.5 * (b - a) * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class CumulativeProfile:
    """u(t) = F(t) / F(hi) for the cumulative integral F(t) = int_lo^t g of a
    positive density g (the subclass's `density`), tabulated on 257
    equispaced nodes.

    F at a node is the running sum of order-8 Gauss-Legendre panels, stored
    divided by F(hi) = `normalization`; between nodes one more order-8 panel
    covers [node, t].  A panel calls the density once per Gauss node on all
    N points and adds w_k g_k in place, node by node, so every point's sum
    runs left to right whatever N is.  `value` maps a scalar to a float and
    an (N,) array to an (N,) array, with exactly 0 at and below lo and
    exactly 1 at and above hi; `derivative(t)` is g(t) / F(hi) at a scalar
    t; `as_field` wraps a subclass's `__call__` as a scalar field with the
    same batch evaluator.  A non-finite or empty interval [lo, hi] is a
    ParameterError.
    """

    def __init__(self, lo, hi):
        if not -np.inf < lo < hi < np.inf:
            raise ParameterError(f"profile interval [{lo!r}, {hi!r}] must be finite and non-empty")
        self._nodes = np.linspace(lo, hi, 257)
        cum = np.cumsum(self._integral_from(self._nodes[:-1], self._nodes[1:]))
        self.normalization = float(cum[-1])
        self._table = np.concatenate([[0.0], cum]) / self.normalization

    def _integral_from(self, x0, t):
        """Order-8 Gauss-Legendre integral of g over [x0, t], row by row."""
        xi, w = gauss_legendre(8)
        width = t - x0
        # one contiguous density call per node, summed in place left to
        # right, so each row rounds alike at any N
        total = np.zeros_like(width)
        for xk, wk in zip(xi, w):
            g = self.density(x0 + width * xk)
            g *= wk
            total += g
        total *= width
        return total

    def value(self, t):
        t = np.asarray(t, dtype=float)
        s = np.clip(t.reshape(-1), self._nodes[0], self._nodes[-1])
        i = np.minimum(np.searchsorted(self._nodes, s, side="right") - 1,
                       self._nodes.size - 2)
        u = self._table[i] + self._integral_from(self._nodes[i], s) / self.normalization
        u = np.where(s >= self._nodes[-1], 1.0, np.minimum(u, 1.0))
        return float(u[0]) if t.ndim == 0 else u

    def derivative(self, t):
        t = np.clip(np.asarray(t, dtype=float), self._nodes[0], self._nodes[-1])
        return float(self.density(t) / self.normalization)

    def as_field(self):
        return ScalarField(self.__call__, batch_evaluator=self.__call__)


def halton(count, dim):
    """First ``count`` points of the ``dim``-dimensional Halton sequence
    after the first _HALTON_SKIP.

    Deterministic, no RNG state involved.  All points take one base-b digit
    per step, so each equals its point-by-point sum exactly.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"Halton sequence implemented up to dim {len(_PRIMES)}")
    out = np.zeros((count, dim))
    for d in range(dim):
        base = _PRIMES[d]
        n = np.arange(count) + (_HALTON_SKIP + 1)
        invb = 1.0 / base
        while n.any():
            out[:, d] += (n % base) * invb
            n //= base
            invb /= base
    return out


def sphere_directions(count, ambient_dim):
    """Deterministic quasi-uniform unit vectors in R^ambient_dim.

    Halton points pushed through the inverse normal CDF and normalized; this
    gives a low-discrepancy analogue of Gaussian direction sampling.
    """
    from scipy.special import ndtri

    u = halton(count, ambient_dim)
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms
