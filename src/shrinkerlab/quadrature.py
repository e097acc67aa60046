"""Deterministic quadrature and low-discrepancy sampling helpers.

Adaptive Simpson integrates the barrier profile psi and the energies of the
closed-form profiles.  Gauss-Legendre panels back the surface integrals and
the cumulative tables of the radial/slab closed forms, and the Halton
sequence provides reproducible quasi-random points for sampling shells and
surfaces.
"""

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def adaptive_simpson(f, a, b, tol=1e-10, max_intervals=10 ** 6):
    """Integrate ``f`` on [a, b] to absolute tolerance ``tol``.

    Classic adaptive Simpson with Richardson acceptance (|S_left + S_right -
    S_whole| <= 15 tol).  Raises :class:`QuadratureError` carrying the worst
    accepted interval error if the interval budget runs out.

    The integrand is assumed smooth; endpoints are evaluated once.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def _simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(a, fa, b, fb)
    # stack entries: (x0, f0, x2, f2, xm, fm, S, local_tol)
    stack = [(a, fa, b, fb, m, fm, whole, tol)]
    total = 0.0
    used = 1
    worst = 0.0
    while stack:
        x0, f0, x2, f2, xm, fm_, S, ltol = stack.pop()
        lm, flm, S_l = _simpson(x0, f0, xm, fm_)
        rm, frm, S_r = _simpson(xm, fm_, x2, f2)
        used += 2
        err = S_l + S_r - S
        if abs(err) <= 15.0 * ltol or (x2 - x0) < 1e-14 * (b - a):
            total += S_l + S_r + err / 15.0
            worst = max(worst, abs(err) / 15.0)
        elif used >= max_intervals:
            raise QuadratureError(
                f"adaptive Simpson exhausted {max_intervals} intervals "
                f"(worst interval error {abs(err) / 15.0:.3e} > tol {tol:.3e})",
                achieved_tol=abs(err) / 15.0,
            )
        else:
            half = 0.5 * ltol
            stack.append((x0, f0, xm, fm_, lm, flm, S_l, half))
            stack.append((xm, fm_, x2, f2, rm, frm, S_r, half))
    return sign * total


@lru_cache(maxsize=64)
def gauss_legendre(n, a=0.0, b=1.0):
    """Return cached Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (b - a) * (x + 1.0) + a
    w = 0.5 * (b - a) * w
    return x, w


def halton(count, dim, skip=20):
    """First ``count`` points of the ``dim``-dimensional Halton sequence.

    A small number of leading points is skipped to avoid the degenerate
    early entries.  Deterministic, no RNG state involved.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"Halton sequence implemented up to dim {len(_PRIMES)}")
    out = np.empty((count, dim))
    for d in range(dim):
        base = _PRIMES[d]
        for i in range(count):
            n = i + skip + 1
            value, invb = 0.0, 1.0 / base
            while n > 0:
                value += (n % base) * invb
                n //= base
                invb /= base
            out[i, d] = value
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
