"""Imports: scipy is imported where it is called, so the package, the CLI and
the paths that need no sparse solve or special function load no scipy
module; and no package module keeps a top-level import it does not use."""

import ast
import glob
import os
import subprocess
import sys

import pytest

import shrinkerlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(shrinkerlab.__file__)))

_REPORT = "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def _scipy_modules_after(code):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code + _REPORT], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


@pytest.mark.parametrize("code", [
    "import shrinkerlab",
    "import shrinkerlab.cli",
    "import numpy as np\n"
    "from shrinkerlab import domain, mc\n"
    "mc.ou_hitting_probability(np.array([0.0, 0.3]), domain.slab_domain(-1, 1),\n"
    "                          mc.McConfig(n_paths=100, seed=1))",
    "from shrinkerlab import domain, reilly\n"
    "from shrinkerlab.fields import ScalarField\n"
    "u = ScalarField(lambda x: x[0], batch_evaluator=lambda P: P[:, 0])\n"
    "reilly.reilly_residual(u, None, domain.ball_domain(1.0, ambient_dim=3), mesh_h=1 / 8)",
    "from shrinkerlab import solver\n"
    "solver.solve_slab(-1, 1, ambient_dim=2).profile([0.0, 0.5])",
    "from shrinkerlab import barrier\n"
    "barrier.build_psi(barrier.BarrierParams(R=1.0, a=1.0, m=2, z_norm=0.0))",
], ids=["package", "cli", "mc", "reilly", "slab-profile", "psi"])
def test_paths_without_a_sparse_solve_load_no_scipy(code):
    assert _scipy_modules_after(code) == []


def test_grid_solve_loads_scipy_sparse_linalg():
    loaded = _scipy_modules_after(
        "from shrinkerlab import domain, solver\n"
        "solver.solve_mixed_bvp(domain.slab_domain(-1, 1, radius=2.0), h=1 / 8)")
    assert "scipy.sparse.linalg" in loaded


def _unused_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_no_module_has_an_unused_top_level_import():
    modules = sorted(glob.glob(os.path.join(SRC, "shrinkerlab", "*.py")))
    assert len(modules) > 10
    unused = {os.path.basename(p): _unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
