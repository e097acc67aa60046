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

from . import barrier, domain, energy, fields, geometry, mc, reilly, solver
from .errors import (BoundaryStencilError, ContractViolation, MissingGeometryError,
                     ParameterError, SingularSystemError, SolverConvergenceError)

__all__ = [
    "barrier", "domain", "energy", "fields", "geometry", "mc", "reilly", "solver",
    "BoundaryStencilError", "ContractViolation", "MissingGeometryError",
    "ParameterError", "SingularSystemError", "SolverConvergenceError",
    "__version__",
]
