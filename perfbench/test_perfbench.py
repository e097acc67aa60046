"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def _run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _exact(metric):
    return metric["unit"] == "count" or metric["name"] == "mc.step_yield"


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request):
    return request.param, _run(request.param, 1), _run(request.param, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0


def test_traced_run_emits_every_per_layer_metric(traced_pair):
    workload, result, _ = traced_pair
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace.absent_hooks"] == 0
    busy = {"grid_solve": ["solver.iters.slab.h32", "solver.oracle_points",
                           "solver.solve_s", "energy.flux_s"],
            "mc_hitting": ["mc.paths", "mc.steps_generated", "mc.depth_s",
                           "mc.rerun_identical"],
            "reilly_ball": ["reilly.field_points", "domain.exterior_normal_calls",
                            "domain.curvature_calls", "reilly.field_s"],
            "small_checks": ["geometry.samples_s", "barrier.supersolution_s",
                             "solver.exhaustion_s", "quadrature.simpson_calls"]}
    for name in busy[workload]:
        assert values[name] > 0, name


def test_same_seed_repeats_exact_counts(traced_pair):
    _, first, second = traced_pair
    for m in SPEC["per_layer"]:
        if _exact(m):
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    def inputs(seed):
        return json.dumps(workloads.build(workload, seed, tiny=True).inputs)

    assert inputs(SEED) == inputs(SEED)
    if workload != "small_checks":     # its inputs are the fixed acceptance inputs
        assert inputs(SEED) != inputs(SEED + 1)


def test_absent_hooks_are_reported_not_fatal():
    import tracer

    package = types.ModuleType("fakelab")
    package.mc = types.ModuleType("fakelab.mc")
    package.mc.ou_hitting_probability = lambda x0, domain, cfg: None
    t = tracer.Tracer(package)
    t.install()
    try:
        assert package.mc.ou_hitting_probability(0, 0, 0) is None
    finally:
        t.uninstall()
    assert "solver.solve_mixed_bvp" in t.absent
    assert "mc.ou_hitting_probability result fields" in t.absent
    assert t.per_layer([])["trace.absent_hooks"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "grid_solve", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
