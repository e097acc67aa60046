"""Every cache in the package is bounded and hands out read-only arrays, so
no caller can change what the next caller reads."""

import ast
import glob
import os

import numpy as np
import pytest

import shrinkerlab
from shrinkerlab import geometry as geo
from shrinkerlab import quadrature, reilly

SRC = os.path.dirname(os.path.abspath(shrinkerlab.__file__))

# each cached function of the package, with arguments for one entry
CACHED = {
    "quadrature.gauss_legendre": (quadrature.gauss_legendre, (16, -1.0, 2.0)),
    "reilly._piece_quadrature": (reilly._piece_quadrature, (geo.Sphere(2, 1.0), 2.0, 8)),
    # a 2D plane hands out the Gauss-Legendre weights themselves
    "reilly._piece_quadrature(plane)": (reilly._piece_quadrature,
                                        (geo.Hyperplane((0.0, 1.0), 0.5), 3.0, 8)),
}


def _cache_decorators():
    """(module.function, decorator name, decorator node) of each functools
    cache in src."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                if name in ("lru_cache", "cache"):
                    found.append((f"{module}.{node.name}", name, dec))
    return found


def test_every_cache_has_a_finite_maxsize():
    decorators = _cache_decorators()
    assert {name for name, _, _ in decorators} == {key.split("(")[0] for key in CACHED}
    for name, kind, dec in decorators:
        # a bare @lru_cache is bounded at 128; @cache and maxsize=None are not
        assert kind == "lru_cache", name
        if isinstance(dec, ast.Call):
            size = dec.args[0] if dec.args else next(
                (k.value for k in dec.keywords if k.arg == "maxsize"), ast.Constant(128))
            assert isinstance(size, ast.Constant) and isinstance(size.value, int), name
    for fn, _ in CACHED.values():
        assert isinstance(fn.cache_parameters()["maxsize"], int)


@pytest.mark.parametrize("name", sorted(CACHED))
def test_cached_arrays_are_read_only(name):
    fn, args = CACHED[name]
    first = fn(*args)
    arrays = [a for a in first if isinstance(a, np.ndarray)]
    assert arrays
    before = [a.copy() for a in arrays]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a += 1.0
    again = fn(*args)
    assert again is first
    for a, b in zip(before, (x for x in again if isinstance(x, np.ndarray))):
        np.testing.assert_array_equal(a, b)

