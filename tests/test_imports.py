"""Imports and lints: scipy is imported where it is called, so the package,
the CLI and the paths that need no sparse solve or special function load no
scipy module; no package module keeps a top-level import it does not use or
reads another module's underscore name; every module-level function
reads each parameter it takes; no module dispatches on the type of a
geometry shape; only `fields.ordered_map` starts a thread pool; and only
`energy` walks a box in cells."""

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
    "from shrinkerlab import barrier, domain, energy\n"
    "dom = domain.slab_domain(-1, 1, ambient_dim=2, radius=3.0)\n"
    "psi = barrier.lipschitz_barrier('positive-distance', dom)\n"
    "energy.energy_of_field(psi, dom, resolution=1 / 32)\n"
    "barrier.measured_lipschitz(psi, dom)",
], ids=["package", "cli", "mc", "reilly", "slab-profile", "psi", "domination"])
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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(path, package_modules):
    """Underscore names of other package modules that a module imports or reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    own = os.path.splitext(os.path.basename(path))[0]
    aliases, found = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = (node.module or "").split(".")[-1]
        if node.level == 0 and (node.module or "").split(".")[0] != "shrinkerlab":
            continue
        for alias in node.names:
            if source in package_modules and source != own and _private(alias.name):
                found.append(f"{source}.{alias.name}")
            elif alias.name in package_modules and alias.name != own:
                aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(set(found))


def test_no_module_reads_a_private_name_of_another():
    paths = sorted(glob.glob(os.path.join(SRC, "shrinkerlab", "*.py")))
    modules = {os.path.splitext(os.path.basename(p))[0] for p in paths}
    reads = {os.path.basename(p): _private_reads(p, modules) for p in paths}
    assert {name: names for name, names in reads.items() if names} == {}


def _unread_parameters(path):
    """Parameters of the module-level functions that the function never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    unread = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}({p})" for p in params if p not in read]
    return unread


_SHAPE_CLASSES = {"Hyperplane", "Sphere", "Cylinder", "GraphSurface"}


def _shape_type_checks(path):
    """The isinstance calls of a module whose class argument names a shape."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            names = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for n in ast.walk(node.args[1])}
            found += [f"line {node.lineno}: {name}" for name in sorted(names & _SHAPE_CLASSES)]
    return found


def test_no_module_dispatches_on_a_shape_type():
    # a piece answers the batched protocol of `geometry` itself, so no caller
    # branches on whether it is a plane, sphere, cylinder or graph
    modules = sorted(glob.glob(os.path.join(SRC, "shrinkerlab", "*.py")))
    checks = {os.path.basename(p): _shape_type_checks(p) for p in modules}
    assert {name: found for name, found in checks.items() if found} == {}


def test_every_module_function_reads_its_parameters():
    # methods are exempt: a protocol signature may ignore an argument
    # (Sphere.quad_nodes(max_radius), Hyperplane.principal_curvatures(exterior_sign))
    modules = sorted(glob.glob(os.path.join(SRC, "shrinkerlab", "*.py")))
    unread = {os.path.basename(p): _unread_parameters(p) for p in modules}
    assert {name: params for name, params in unread.items() if params} == {}


def _thread_pools(path):
    """The functions (dotted, or <module>) that construct a ThreadPoolExecutor,
    under any name it is imported as."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if alias.name == "ThreadPoolExecutor"} | {"ThreadPoolExecutor"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and (getattr(child.func, "id", None) in names
                                                or getattr(child.func, "attr", None)
                                                == "ThreadPoolExecutor"):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_ordered_map_starts_a_thread_pool():
    # its pool holds OpenBLAS at one thread and runs one work item per
    # worker, so that hold and the items' memory budget cover every pool
    modules = sorted(glob.glob(os.path.join(SRC, "shrinkerlab", "*.py")))
    pools = {os.path.basename(p): _thread_pools(p) for p in modules}
    assert {name: found for name, found in pools.items() if found} == {
        "fields.py": ["ordered_map"]}


# the cell stream's definitions: the runs, their classification, the work
# items, the cut fractions and the box cells
_CELL_STREAM = {"_RUN", "_ITEM_CELLS", "_CLASSIFY_RUNS", "_runs", "_candidate_runs", "_run_cells",
                "_run_items", "_box_fraction", "box_cells", "cell_centres", "cell_stream",
                "kept_fractions"}


def _cell_stream_uses(path):
    """The cell stream names a module defines at top level, and its calls of
    `box_cells` or `cell_centres`."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [f"defines {name}" for name in names if name in _CELL_STREAM]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("box_cells", "cell_centres"):
                found.append(f"line {node.lineno}: calls {name}")
    return found


def test_only_energy_walks_the_box_in_cells():
    # the Reilly volume side and energy_of_field read one cell stream, with
    # two keep rules, so the runs and their items are defined once
    modules = sorted(glob.glob(os.path.join(SRC, "shrinkerlab", "*.py")))
    uses = {os.path.basename(p): _cell_stream_uses(p) for p in modules}
    assert {name: found for name, found in uses.items() if found and name != "energy.py"} == {}
    assert {f"defines {name}" for name in _CELL_STREAM} <= set(uses["energy.py"])
