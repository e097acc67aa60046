"""Seeded inputs and verified tasks of the four benchmark workloads.

A workload is a list of tasks that one client runs back to back (a closed
loop).  A task calls public functions of `shrinkerlab` on inputs generated
here from the seed, checks every result at the acceptance suite's own
tolerance, and returns (work done, names of the checks that failed); the
work is solved unknowns in grid_solve, OU paths in mc_hitting and 0
elsewhere.  The package sees only the generated inputs.

`tiny=True` shrinks every workload so the benchmark's own tests run quickly;
its inputs keep the same shape, but the acceptance tolerances are not
expected to hold at those sizes.
"""

import math
from dataclasses import dataclass

import numpy as np

from shrinkerlab import barrier as br
from shrinkerlab import domain as dm
from shrinkerlab import energy as en
from shrinkerlab import geometry as geo
from shrinkerlab import mc
from shrinkerlab import reilly as rl
from shrinkerlab import solver as sv
from shrinkerlab.fields import ScalarField

# Monte Carlo stream of acceptance criterion 6
MC_SEED = 20240801


@dataclass
class Task:
    """One verified unit of work.

    `run(note)` returns (work, failed check names); `note(key, value)` adds
    an exact count to the traced run.  Tasks that run on a mesh end their
    name in its tag ("h32" for h = 1/32).
    """

    name: str
    run: object


@dataclass
class Workload:
    name: str
    inputs: dict              # everything generated from the seed
    tasks: list
    warmup: str               # name of the task run once, untimed, in set-up


def _mesh_tag(h):
    return f"h{round(1 / h)}"


def _failed(checks):
    return [name for name, ok in checks if not ok]


def _checked(checks):
    """The result of a task that reports no work."""
    return 0, _failed(checks)


# --------------------------------------------------------------------------
# grid_solve: the BiCGStab solve and the pointwise closed-form oracle


def grid_solve(seed, tiny=False):
    rng = np.random.default_rng(seed)
    # a sub-cell shift of the slab at every spacing, so Dirichlet legs are cut
    shift = float(rng.uniform(0.25, 0.75)) / 128
    h1, h2 = -1.0 + shift, 1.0 + shift
    hs = (1 / 16, 1 / 32) if tiny else (1 / 32, 1 / 64, 1 / 128)
    inputs = {"slab": {"h1": h1, "h2": h2, "radius": 5.0},
              "annulus": {"a": 0.5, "b": 2.0}, "hs": list(hs)}
    domains = {"slab": dm.slab_domain(h1, h2, ambient_dim=2, radius=5.0),
               "annulus": dm.annulus_domain(0.5, 2.0, ambient_dim=2)}
    oracles = {"slab": lambda: sv.solve_slab(h1, h2).profile,
               "annulus": lambda: sv.solve_radial(0.5, 2.0, 2).profile}
    # the slab error is measured on B_2, away from the exhaustion collar
    compact = {"slab": 2.0, "annulus": None}
    errors = {}

    def make(geom, h):
        def run(note):
            dom = domains[geom]
            profile = oracles[geom]()
            sol = sv.solve_mixed_bvp(dom, h=h, tol=1e-11)
            note(f"solver.iters.{geom}.{_mesh_tag(h)}", sol.report.iterations)
            vals = sol.field.values
            err = sv.max_node_error(sol, profile, within_radius=compact[geom])
            errors[(geom, h)] = err
            checks = [("range in [0, 1]", np.nanmin(vals) >= 0.0 and np.nanmax(vals) <= 1.0),
                      ("closed-form error < 5e-4", err < 5e-4),
                      ("caccioppoli", en.caccioppoli_check(sol, dom).satisfied)]
            if h == hs[-1]:
                ladder = [errors[(geom, hh)] for hh in hs]
                order = float(np.polyfit(np.log(hs), np.log(ladder), 1)[0])
                checks.append(("convergence order >= 1.8", order >= 1.8))
            return sol.report.details["unknowns"], _failed(checks)
        return Task(f"{geom}.{_mesh_tag(h)}", run)

    tasks = [make(geom, h) for geom in ("slab", "annulus") for h in hs]
    return Workload("grid_solve", inputs, tasks, warmup=tasks[0].name)


# --------------------------------------------------------------------------
# mc_hitting: the Ornstein-Uhlenbeck path loop


def mc_hitting(seed, tiny=False):
    rng = np.random.default_rng(seed)
    n_paths = 100 if tiny else 1000
    cfg = mc.McConfig(n_paths=n_paths, dt=1e-3, seed=MC_SEED)
    # Criterion 6 depths.  Slab points move along the slab (the hit counts
    # depend only on the normal coordinate), annulus points around it among
    # 16 directions; each of the 48 annulus start points passes at 1000
    # paths (worst gap 2.45 sigma), so no seed fails the 3-sigma check by
    # chance.
    slab_points = [[float(rng.uniform(-1.0, 1.0)), s] for s in (-0.5, 0.0, 0.5)]
    angles = 2 * math.pi * rng.integers(0, 16, size=3) / 16
    annulus_points = [[r * math.cos(t), r * math.sin(t)]
                      for r, t in zip((0.8, 1.0, 1.5), angles)]
    inputs = {"n_paths": n_paths, "dt": cfg.dt, "mc_seed": MC_SEED,
              "slab": slab_points, "annulus": annulus_points}
    domains = {"slab": dm.slab_domain(-1.0, 1.0, ambient_dim=2, radius=6.0),
               "annulus": dm.annulus_domain(0.5, 2.0, ambient_dim=2)}
    profiles = {"slab": sv.solve_slab(-1.0, 1.0).profile,
                "annulus": sv.solve_radial(0.5, 2.0, 2).profile}
    first = {}

    def estimate(geom, x0):
        return mc.ou_hitting_probability(np.array(x0), domains[geom], cfg)

    def make(i, geom, x0):
        def run(note):
            est = estimate(geom, x0)
            if i == 0:
                first["est"] = est
            gap = abs(est.p_hat - profiles[geom](np.array(x0)))
            return n_paths, _failed([("within 3 sigma", gap <= 3.0 * est.stderr)])
        return Task(f"{geom}.{i}", run)

    def rerun(note):
        est, ref = estimate("slab", slab_points[0]), first["est"]
        same = ((est.hits_sigma1, est.hits_sigma2, est.truncated)
                == (ref.hits_sigma1, ref.hits_sigma2, ref.truncated))
        note("mc.rerun_identical", int(same))
        return n_paths, _failed([("rerun bit-identical", same)])

    points = [("slab", p) for p in slab_points] + [("annulus", p) for p in annulus_points]
    tasks = [make(i, geom, x0) for i, (geom, x0) in enumerate(points)]
    tasks.append(Task("rerun", rerun))
    return Workload("mc_hitting", inputs, tasks, warmup=tasks[0].name)


# --------------------------------------------------------------------------
# reilly_ball: both sides of the localized Reilly identity on the unit ball


def reilly_ball(seed, tiny=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    # cutoff radii where the cut cells at the sphere dominate the residual
    cutoff = float(rng.uniform(0.52, 0.55))
    meshes = (1 / 8, 1 / 16) if tiny else (1 / 32, 1 / 64)
    inputs = {"direction": v.tolist(), "cutoff_R": cutoff, "meshes": list(meshes)}
    ball = dm.ball_domain(1.0, ambient_dim=3)
    u = ScalarField(lambda x: float(x @ v), batch_evaluator=lambda P: P @ v)
    phis = {"phi1": lambda: None, "cutoff": lambda: rl.CutoffFamily(cutoff)}
    coarse = {}

    def make(tag, mesh):
        def run(note):
            rep = rl.reilly_residual(u, phis[tag](), ball, mesh_h=mesh)
            if mesh == meshes[0]:
                coarse[tag] = rep.residual
                checks = [("residual <= 1e-3", rep.residual <= 1e-3)]
            else:
                ratio = rep.residual / coarse[tag] if coarse[tag] > 0 else 0.0
                checks = [("halving ratio <= 0.75", ratio <= 0.75)]
            return _checked(checks)
        return Task(f"{tag}.{_mesh_tag(mesh)}", run)

    tasks = [make(tag, mesh) for tag in phis for mesh in meshes]
    return Workload("reilly_ball", inputs, tasks, warmup=tasks[0].name)


# --------------------------------------------------------------------------
# small_checks: many small calls, the per-call overhead of every layer


def _identity_charts():
    r2 = math.sqrt(2.0)

    def sphere(s):
        th, ph = s
        return np.array([r2 * math.sin(ph) * math.cos(th),
                         r2 * math.sin(ph) * math.sin(th), r2 * math.cos(ph)])

    def cylinder(s):
        th, t = s
        return np.array([math.cos(th), math.sin(th), t])

    def plane(s):
        return np.array([s[0], s[1], 0.0])

    return {"sphere": (sphere, [(0.45, 0.6), (0.8, 1.2), (1.9, 2.2)]),
            "cylinder": (cylinder, [(0.3, -0.5), (1.1, 0.7), (2.0, 1.5)]),
            "plane": (plane, [(0.9, 0.6), (-1.1, 1.3), (1.7, -0.8)])}


def small_checks(seed, tiny=False):
    """The acceptance inputs, fixed: the seed does not change them."""
    samples = 20 if tiny else 200
    mc_paths = 100 if tiny else 200
    inputs = {"shrinker_samples": samples, "mc_paths": mc_paths}
    tasks = []

    models = [geo.Hyperplane(normal=(0.0, 1.0)), geo.Sphere(m=1),
              geo.Hyperplane(normal=(0.0, 0.0, 1.0)), geo.Sphere(m=2),
              geo.Cylinder(k=1, m=2), geo.Hyperplane(normal=(0.0, 0.0, 0.0, 1.0)),
              geo.Sphere(m=3), geo.Cylinder(k=1, m=3),
              geo.Cylinder(k=2, m=3)]
    for i, model in enumerate(models):
        def run(note, model=model):
            worst = max(float(np.linalg.norm(geo.shrinker_residual(s)))
                        for s in geo.surface_samples(model, samples))
            return _checked([("shrinker residual < 1e-9", worst < 1e-9)])
        tasks.append(Task(f"shrinker.{i}", run))

    for name, (chart, points) in _identity_charts().items():
        def run(note, chart=chart, points=points):
            patch = geo.ParametrizedPatch(chart=chart, lo=(-10, -10), hi=(10, 10), fd_step=1e-4)
            checks = []
            for s in points:
                rep = geo.cylinder_identities(1, patch.sample(np.array(s)))
                checks.append(("identity residual < 1e-6",
                               max(abs(rep.grad_id_residual), abs(rep.laplu_residual)) < 1e-6))
                if rep.sqrtu_slack is not None:
                    checks.append(("sqrt slack >= -1e-8", rep.sqrtu_slack >= -1e-8))
            return _checked(checks)
        tasks.append(Task(f"identities.{name}", run))

    growth_models = [geo.Hyperplane(normal=(0, 0, 1.0)), geo.Cylinder(k=1, m=2),
                     geo.Cylinder(k=1, m=3), geo.Cylinder(k=2, m=3), geo.Sphere(m=2),
                     geo.Sphere(m=3)]
    for i, model in enumerate(growth_models):
        def run(note, model=model, plane=(i == 0)):
            res = geo.extrinsic_volume_growth(model, list(range(2, 11)))
            ok = (abs(res.fitted_exponent - 2.0) <= 0.02 if plane
                  else res.fitted_exponent <= model.hypersurface_dim + 0.05)
            return _checked([("volume growth exponent", ok)])
        tasks.append(Task(f"growth.{i}", run))

    for i, R in enumerate((0.5, 1.0, 2.0)):
        def run(note, R=R):
            checks = []
            for a in (0.5, 1.0, 2.0):
                for z in (0.0, 1.0, 5.0):
                    res = br.build_psi(br.BarrierParams(R=R, a=a, m=2, z_norm=z))
                    end_gap = max(abs(res.psi(0.0)), abs(res.psi(a) - 1.0))
                    ds = np.linspace(0, a, 9)
                    checks += [
                        ("barrier endpoints <= 1e-10", end_gap <= 1e-10),
                        ("barrier monotone", all(res.psi(d2) > res.psi(d1)
                                                 for d1, d2 in zip(ds[:-1], ds[1:]))),
                        ("barrier slope bound",
                         res.psi_prime_0 <= res.rough_bound * (1 + 1e-12))]
            return _checked(checks)
        tasks.append(Task(f"barrier.{i}", run))

    def supersolution(note):
        violation = br.supersolution_check(br.BarrierParams(R=1.0, a=1.0, m=2, z_norm=0.0),
                                           samples=samples)
        return _checked([("supersolution <= 1e-6", violation <= 1e-6)])
    tasks.append(Task("supersolution", supersolution))

    plane = br.PlaneSurface(normal=(0, 0, 1.0))
    cases = [(br.SeparationHypothesis(b=0.0), br.CylinderSurface(k=1, m=2), True),
             (br.SeparationHypothesis(b=0.3), br.PlaneSurface(normal=(0, 0, 1.0), offset=1.0),
              True),
             (br.SeparationHypothesis(b=0.4),
              br.GraphSurface(height=lambda r: math.exp(-r * r), ambient_dim=3), False)]
    for i, (hyp, sigma2, expected) in enumerate(cases):
        def run(note, hyp=hyp, sigma2=sigma2, expected=expected):
            rep = br.separation_check(hyp, plane, sigma2, [2, 3, 4, 5, 6, 8])
            return _checked([("separation pattern", rep.passes == expected)])
        tasks.append(Task(f"separation.{i}", run))

    def chain(note):
        off = dm.slab_domain(-1, 1, ambient_dim=2, radius=8.0)
        rep = rl.energy_growth_chain(sv.solve_mixed_bvp(off, h=1 / 32, tol=1e-11), off,
                                     [1.0, 2.0, 4.0])
        minimal = dm.slab_domain(0, 1, ambient_dim=2, radius=8.0)
        rep2 = rl.energy_growth_chain(sv.solve_mixed_bvp(minimal, h=1 / 32, tol=1e-11),
                                      minimal, [1.0, 2.0, 4.0])
        return _checked([
            ("chain fails off the origin", not rep.consistent),
            ("failure attributed", all(abs(t) > 1e-6 for t in rep.boundary_terms.values())),
            ("f-minimal term < 1e-6", abs(rep2.boundary_terms["sigma1"]) < 1e-6)])
    tasks.append(Task("chain", chain))

    def domination_slab(note):
        dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=7.0)
        eu = en.dirichlet_energy(sv.solve_slab(-1, 1))
        epsi = en.energy_of_field(br.lipschitz_barrier("positive-distance", dom), dom,
                                  resolution=1 / 128, radius=7.0)
        return _checked([("E(u) <= E(Psi) - 1e-4", eu <= epsi - 1e-4)])

    def domination_annulus(note):
        dom = dm.annulus_domain(0.5, 2.0, ambient_dim=2)
        eu = en.dirichlet_energy(sv.solve_radial(0.5, 2, 2))
        epsi = en.energy_of_field(br.lipschitz_barrier("projection", dom), dom,
                                  resolution=1 / 128)
        return _checked([("E(u) <= E(Psi) - 1e-4", eu <= epsi - 1e-4)])
    tasks += [Task("domination.slab", domination_slab),
              Task("domination.annulus", domination_annulus)]

    def exhaustion(note):
        dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=2.0)
        sol = sv.solve_exhaustion(dom, [2, 4, 6, 8], h=1 / 32, tol=1e-4, linear_tol=1e-11)
        diffs = [d for _, d in sol.report.exhaustion_history]
        return _checked([
            ("exhaustion converged", sol.report.converged),
            ("exhaustion differences shrink", all(b < a for a, b in zip(diffs, diffs[1:])))])
    tasks.append(Task("exhaustion", exhaustion))

    cfg = mc.McConfig(n_paths=mc_paths, dt=1e-3, seed=MC_SEED)
    mc_cases = [("slab", dm.slab_domain(-1, 1, ambient_dim=2, radius=6.0),
                 sv.solve_slab(-1, 1).profile, (0.0, 0.0)),
                ("annulus", dm.annulus_domain(0.5, 2.0, ambient_dim=2),
                 sv.solve_radial(0.5, 2.0, 2).profile, (1.0, 0.0))]
    for name, dom, profile, x0 in mc_cases:
        def run(note, dom=dom, profile=profile, x0=np.array(x0)):
            est = mc.ou_hitting_probability(x0, dom, cfg)
            return _checked([("within 3 sigma",
                               abs(est.p_hat - profile(x0)) <= 3.0 * est.stderr)])
        tasks.append(Task(f"mc.{name}", run))

    return Workload("small_checks", inputs, tasks, warmup="exhaustion")


_BY_NAME = {"grid_solve": grid_solve, "mc_hitting": mc_hitting,
            "reilly_ball": reilly_ball, "small_checks": small_checks}


def build(name, seed, tiny=False):
    return _BY_NAME[name](seed, tiny)
