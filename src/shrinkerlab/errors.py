"""Shared exception types, and the checker of JSON configs that raises them."""


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


def check_config(obj, schema, what):
    """Check a JSON config against `schema`, a dict key -> (type, required).

    Every key must be in the schema, every required key present and every
    value of its type; `float` accepts any JSON number and converts it, so
    1 reads as 1.0, and no type accepts true or false.  Returns the checked dict; a ParameterError names the
    offending key.
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
        types = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, types):
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
