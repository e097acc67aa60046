"""Shared exception types."""


class ContractViolation(Exception):
    """A documented invariant of a public operation failed at runtime.

    The CLI maps this, SolverConvergenceError and QuadratureError to exit
    code 2; parameter problems and SingularSystemError map to exit 1.
    """


class ParameterError(ValueError):
    """Invalid argument combination (empty annulus, too few radii, ...)."""


class QuadratureError(RuntimeError):
    """A quadrature could not reach the requested tolerance.

    The package's own integrals are fixed Gauss-Legendre rules and closed
    forms, which never raise it; it stays part of the CLI error contract.
    """

    def __init__(self, message, achieved_tol=None):
        super().__init__(message)
        self.achieved_tol = achieved_tol


class BoundaryStencilError(ValueError):
    """A finite-difference stencil would leave the field's declared domain."""


class SingularSystemError(RuntimeError):
    """The discrete problem has no Dirichlet data; only constants solve it."""


class SolverConvergenceError(RuntimeError):
    """Iterative linear solve ran out of iterations; carries the residual history."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = list(residual_history)


class MissingGeometryError(ValueError):
    """A boundary description lacks a geometric quantity (named in the message)."""
