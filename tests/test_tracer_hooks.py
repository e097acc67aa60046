"""The benchmark's tracer hooks package functions by name; every name it
lists must resolve, so that renaming or deleting a hooked function fails
here and not only as `trace.absent_hooks` in a later benchmark run."""

import importlib.util
from pathlib import Path

import shrinkerlab

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# hooks whose targets were deleted from the package and are still listed by
# the tracer; nothing else may be missing
KNOWN_ABSENT = {"quadrature.adaptive_simpson", "energy.marching_boundary_integral"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves_against_the_package():
    tracer = _load_tracer()
    resolver = tracer.Tracer(shrinkerlab)
    names = set(tracer.SPANS) | set(tracer.COUNTED) | set(tracer.RESULTS)
    unresolved = {name for name in names if resolver._resolve(name) is None}
    assert unresolved == KNOWN_ABSENT
