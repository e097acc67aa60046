"""Numerical laboratory for Gaussian-weighted elliptic PDE machinery on
model self-shrinker geometry.

Subpackage map:
  geometry  plane, sphere and cylinder; shrinker residuals, volume growth
  fields    scalar/vector fields and the Ornstein-Uhlenbeck operators
  domain    regions between labeled boundary pieces
  solver    mixed boundary value problems and 1D closed-form reductions
  energy    weighted Dirichlet energy, growth profiles, Caccioppoli check
  reilly    localized Reilly identity and the energy-growth chain
  barrier   exterior-sphere barriers, gradient estimates, separation checks
  mc        Ornstein-Uhlenbeck hitting probabilities (Monte Carlo oracle)
  cli       batch verification front end
"""

__version__ = "0.1.0"

import ctypes
import platform

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3      # mallopt parameters (malloc.h)


def _start_malloc_thresholds_at_ceiling():
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB,
    the ceiling that glibc's dynamic rule (trim = 2 x mmap) reaches on 64-bit
    targets; a no-op off glibc.  Left dynamic, the thresholds follow the
    largest freed mmapped block, which in a Reilly volume item is its Hessian
    (<= 2.4 MB), below the item's 6-7 MB of temporaries, so each item's last
    free trims its worker's arena and the next item faults the pages back
    in.  On a 2-core x86-64 machine a warm reilly_ball pass took 91k-103k
    minor faults and 0.22-0.28 s of system time, and 32-74 faults and
    0.03-0.10 s with the thresholds at the ceiling.  No arithmetic changes,
    so every number stays bit-identical."""
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 * 2 ** 20)
        mallopt(_M_TRIM_THRESHOLD, 64 * 2 ** 20)
    except (OSError, AttributeError, TypeError):
        pass


_start_malloc_thresholds_at_ceiling()

from . import barrier, domain, energy, fields, geometry, mc, reilly, solver
from .errors import (BoundaryStencilError, ContractViolation, MissingGeometryError,
                     ParameterError, SingularSystemError, SolverConvergenceError)

__all__ = [
    "barrier", "domain", "energy", "fields", "geometry", "mc", "reilly", "solver",
    "BoundaryStencilError", "ContractViolation", "MissingGeometryError",
    "ParameterError", "SingularSystemError", "SolverConvergenceError",
    "__version__",
]
