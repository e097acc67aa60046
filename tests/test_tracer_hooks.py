"""The benchmark's tracer hooks package functions by name, and its
workloads call the package's public names; every such name must resolve, so
that renaming or deleting one fails here and not only in a later benchmark
run."""

import ast
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

import shrinkerlab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"

# hooks whose targets were deleted from the package and are still listed by
# the tracer; nothing else may be missing
KNOWN_ABSENT = {"quadrature.adaptive_simpson", "energy.marching_boundary_integral"}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves_against_the_package():
    tracer = _load("perfbench_tracer", TRACER)
    resolver = tracer.Tracer(shrinkerlab)
    names = set(tracer.SPANS) | set(tracer.COUNTED) | set(tracer.RESULTS)
    unresolved = {name for name in names if resolver._resolve(name) is None}
    assert unresolved == KNOWN_ABSENT


def test_every_package_name_the_workloads_read_resolves():
    workloads = _load("perfbench_workloads", WORKLOADS)
    modules = {alias: value for alias, value in vars(workloads).items()
               if isinstance(value, ModuleType) and value.__name__.startswith("shrinkerlab.")}
    read = {f"{node.value.id}.{node.attr}": hasattr(modules[node.value.id], node.attr)
            for node in ast.walk(ast.parse(WORKLOADS.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {"br.PlaneSurface", "geo.ParametrizedPatch", "rl.reilly_residual"} <= set(read)
    assert [name for name, found in read.items() if not found] == []


@pytest.mark.parametrize("name", ["grid_solve", "mc_hitting", "reilly_ball", "small_checks"])
def test_every_workload_builds(name):
    workload = _load("perfbench_workloads", WORKLOADS).build(name, seed=1, tiny=True)
    assert workload.name == name and workload.tasks
    assert workload.warmup in [task.name for task in workload.tasks]
