"""Shared exception types, the checks of scalar and radius-list arguments,
and the checker of JSON configs that raise them."""

import math


class ContractViolation(Exception):
    """A documented invariant of a public operation failed at runtime.

    The CLI maps this and SolverConvergenceError to exit code 2; parameter
    problems and SingularSystemError map to exit 1.
    """


class ParameterError(ValueError):
    """Invalid argument combination (empty annulus, too few radii, ...)."""


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


def require_positive(name, value):
    """`value` as a float; a ParameterError names it unless it is finite and > 0."""
    x = float(value)
    if not (math.isfinite(x) and x > 0.0):
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    return x


def require_radii(radii, what, at_least=1):
    """`radii` as a list of floats that are finite, positive and strictly
    increasing, at least `at_least` of them; a ParameterError names the
    list (`what`, e.g. "exhaustion radii") and the condition it fails."""
    radii = [float(r) for r in radii]
    if len(radii) < at_least:
        raise ParameterError(f"need at least {at_least} increasing {what}, got {len(radii)}")
    bad = [r for r in radii if not (math.isfinite(r) and r > 0.0)]
    if bad:
        raise ParameterError(f"{what} must be positive and finite, got {bad[0]!r}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ParameterError(f"{what} must be strictly increasing, got {radii}")
    return radii


def _of_kind(value, kind):
    """Whether a JSON value has a schema kind: `float` takes any number,
    `[kind]` a list of values of that kind, and no kind takes true or false."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_of_kind(v, kind[0]) for v in value)
    types = (int, float) if kind is float else kind
    return not isinstance(value, bool) and isinstance(value, types)


def check_config(obj, schema, what):
    """Check a JSON config against `schema`, a dict key -> (kind, required).

    Every key must be in the schema, every required key present and every
    value of its kind (see `_of_kind`; `[float]` is a list of numbers, `[int]`
    a list of integers).  A `float` value is converted, so 1 reads as 1.0;
    list elements are kept as written.  Returns the checked dict; a
    ParameterError names the offending key.
    """
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be a JSON object")
    for key in obj:
        if key not in schema:
            raise ParameterError(f"{what}: unknown key {key!r}")
    out = {}
    for key, (kind, required) in schema.items():
        if key not in obj:
            if required:
                raise ParameterError(f"{what}: missing required key {key!r}")
            continue
        value = obj[key]
        if not _of_kind(value, kind):
            raise ParameterError(f"{what}: key {key!r} has the wrong type")
        out[key] = float(value) if kind is float else value
    return out


def build_from_config(obj, tag, kinds, what):
    """Build an object from a tagged JSON config: `obj[tag]` names an entry
    (builder, schema) of `kinds`, and the other keys, checked against the
    schema, are the builder's keyword arguments, so an absent optional key
    takes the builder's default."""
    kind = obj.get(tag) if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ParameterError(f"{what}: unknown {tag} {kind!r}")
    builder, schema = kinds[kind]
    args = check_config(obj, {tag: (str, True), **schema}, f"{kind} {what}")
    del args[tag]
    return builder(**args)
