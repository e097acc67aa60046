"""The acceptance suite: every release criterion with its pinned tolerance.

Each criterion is a standalone function returning a CriterionResult; the
pytest wrapper and the command-line `acceptance` subcommand both run these.
Tolerances are fixed here, not configurable.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import barrier as br
from . import domain as dm
from . import energy as en
from . import geometry as geo
from . import mc
from . import reilly as rl
from . import solver as sv
from .errors import ParameterError
from .fields import ScalarField

__all__ = ["CriterionResult", "CRITERIA", "run_acceptance", "format_table"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    runtime: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.index:2d} {self.name}: {self.detail} ({self.runtime:.1f}s)"


def _ambient_models():
    return [
        geo.Hyperplane(normal=(0.0, 1.0)),
        geo.Sphere(m=1),
        geo.Hyperplane(normal=(0.0, 0.0, 1.0)),
        geo.Sphere(m=2),
        geo.Cylinder(k=1, m=2),
        geo.Hyperplane(normal=(0.0, 0.0, 0.0, 1.0)),
        geo.Sphere(m=3),
        geo.Cylinder(k=1, m=3),
        geo.Cylinder(k=2, m=3),
    ]


def criterion_1_shrinker_residuals():
    worst = 0.0
    for model in _ambient_models():
        for s in geo.surface_samples(model, 1000):
            worst = max(worst, float(np.linalg.norm(geo.shrinker_residual(s))))
    return worst < 1e-9, f"max |x_perp + H| = {worst:.3e} (< 1e-9)"


def _identity_patches():
    r2 = math.sqrt(2.0)

    def sphere_chart(s):
        th, ph = s
        return np.array([r2 * math.sin(ph) * math.cos(th),
                         r2 * math.sin(ph) * math.sin(th), r2 * math.cos(ph)])

    def cylinder_chart(s):
        th, t = s
        return np.array([math.cos(th), math.sin(th), t])

    def plane_chart(s):
        return np.array([s[0], s[1], 0.0])

    return [
        ("sphere", sphere_chart, (0.45, 0.6), (0.8, 1.2), (1.9, 2.2)),
        ("cylinder", cylinder_chart, (0.3, -0.5), (1.1, 0.7), (2.0, 1.5)),
        ("plane", plane_chart, (0.9, 0.6), (-1.1, 1.3), (1.7, -0.8)),
    ]


def criterion_2_cylinder_identities():
    worst_res, worst_slack = 0.0, 0.0
    for _, chart, *pts in _identity_patches():
        patch = geo.ParametrizedPatch(chart=chart, lo=(-10, -10), hi=(10, 10), fd_step=1e-4)
        for s in pts:
            sample = patch.sample(np.array(s))
            rep = geo.cylinder_identities(1, sample)
            worst_res = max(worst_res, abs(rep.grad_id_residual), abs(rep.laplu_residual))
            if rep.sqrtu_slack is not None:
                worst_slack = min(worst_slack, rep.sqrtu_slack)
    ok = worst_res < 1e-6 and worst_slack >= -1e-8
    return ok, (f"max residual {worst_res:.3e} (< 1e-6), "
                f"min sqrt slack {worst_slack:.3e} (>= -1e-8)")


def criterion_3_volume_growth():
    radii = list(range(2, 11))
    plane = geo.extrinsic_volume_growth(geo.Hyperplane(normal=(0, 0, 1.0)), radii)
    details = [f"plane {plane.fitted_exponent:.4f}"]
    ok = abs(plane.fitted_exponent - 2.0) <= 0.02
    for model in (geo.Cylinder(k=1, m=2), geo.Cylinder(k=1, m=3),
                  geo.Cylinder(k=2, m=3), geo.Sphere(m=2), geo.Sphere(m=3)):
        res = geo.extrinsic_volume_growth(model, radii)
        ok = ok and res.fitted_exponent <= model.hypersurface_dim + 0.05
        details.append(f"{type(model).__name__}(m={model.hypersurface_dim}) "
                       f"{res.fitted_exponent:.3f}")
    return ok, "; ".join(details)


def _solver_benchmarks(hs=(1 / 16, 1 / 32, 1 / 64)):
    out = {"domains": {"slab": dm.slab_domain(-1, 1, ambient_dim=2, radius=5.0),
                       "annulus": dm.annulus_domain(0.5, 2.0, ambient_dim=2)}}
    for name, dom in out["domains"].items():
        out[name] = [(h, sv.solve_mixed_bvp(dom, h=h, tol=1e-11)) for h in hs]
    return out


def _ls_order(hs, errs):
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def criterion_4_solver_convergence():
    bench = _solver_benchmarks()
    details = []
    ok = True
    for name, compact in (("slab", 2.0), ("annulus", None)):
        hs, errs = [], []
        for h, sol in bench[name]:
            hs.append(h)
            errs.append(sv.max_node_error(sol, bench["domains"][name].closed_form,
                                          within_radius=compact))
        order = _ls_order(hs, errs)
        ok = ok and order >= 1.8 and errs[-1] < 5e-4
        where = "on B_2" if compact else "global"
        details.append(f"{name} {where}: err(1/64) = {errs[-1]:.2e} (< 5e-4), "
                       f"order {order:.2f} (>= 1.8)")
    return ok, "; ".join(details)


def criterion_5_maximum_principle():
    bench = _solver_benchmarks(hs=(1 / 32,))
    ok = True
    worst_range = 0.0
    for name in ("slab", "annulus"):
        for _, sol in bench[name]:
            vals = sol.field.values
            lo, hi = np.nanmin(vals), np.nanmax(vals)
            worst_range = max(worst_range, -lo, hi - 1.0)
            ok = ok and lo >= 0.0 and hi <= 1.0
    dom = bench["domains"]["annulus"]
    tol = 1e-11
    g0 = sv.solve_mixed_bvp(dom, h=1 / 32, tol=tol, initial_guess=0.0)
    g1 = sv.solve_mixed_bvp(dom, h=1 / 32, tol=tol, initial_guess=1.0)
    gap = float(np.nanmax(np.abs(g0.field.values - g1.field.values)))
    ok = ok and gap <= 10 * tol
    return ok, (f"range excess {worst_range:.1e} (<= 0), "
                f"two-guess gap {gap:.2e} (<= {10 * tol:.0e})")


MC_POINTS = {
    "slab": ([0.0, -0.5], [0.0, 0.0], [0.0, 0.5]),
    "annulus": ([0.8, 0.0], [1.0, 0.0], [1.5, 0.0]),
}


def criterion_6_monte_carlo():
    cfg = mc.McConfig(n_paths=100_000, dt=1e-3, seed=20240801)
    domains = {"slab": dm.slab_domain(-1, 1, ambient_dim=2, radius=6.0),
               "annulus": dm.annulus_domain(0.5, 2.0, ambient_dim=2)}
    ok = True
    worst = 0.0
    first = None
    for name, points in MC_POINTS.items():
        for x0 in points:
            x0 = np.array(x0)
            est = mc.ou_hitting_probability(x0, domains[name], cfg)
            if first is None:
                first = (name, x0, est)
            gap = abs(est.p_hat - domains[name].closed_form(x0))
            sigmas = gap / est.stderr if est.stderr > 0 else math.inf
            worst = max(worst, sigmas)
            ok = ok and gap <= 3.0 * est.stderr
    # determinism: rerun the first estimate and demand identical counts
    name, x0, est = first
    est2 = mc.ou_hitting_probability(x0, domains[name], cfg)
    identical = (est2.hits_sigma1, est2.hits_sigma2, est2.truncated) == \
                (est.hits_sigma1, est.hits_sigma2, est.truncated)
    ok = ok and identical
    return ok, (f"worst gap {worst:.2f} sigma (<= 3), "
                f"rerun bit-identical: {identical}")


def criterion_7_reilly():
    ball = dm.ball_domain(1.0, ambient_dim=3)
    u = ScalarField(lambda x: x[0], batch_evaluator=lambda P: P[:, 0])
    ok = True
    details = []
    for tag, phi in (("phi=1", None), ("cutoff", rl.CutoffFamily(0.5))):
        rep_f = rl.reilly_residual(u, phi, ball, mesh_h=1 / 64)
        rep_2f = rl.reilly_residual(u, phi, ball, mesh_h=1 / 128)
        ratio = rep_2f.residual / rep_f.residual if rep_f.residual > 0 else 0.0
        ok = ok and rep_f.residual <= 1e-3 and ratio <= 0.75
        details.append(f"{tag}: residual {rep_f.residual:.2e} (<= 1e-3), "
                       f"halving ratio {ratio:.2f} (<= 0.75)")
    return ok, "; ".join(details)


def criterion_8_chain_attribution():
    dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=8.0)
    sol = sv.solve_mixed_bvp(dom, h=1 / 32, tol=1e-11)
    rep = rl.energy_growth_chain(sol, dom, [1.0, 2.0, 4.0])
    failed_somewhere = not rep.consistent
    attributed = all(abs(v) > 1e-6 for v in rep.boundary_terms.values())

    dom2 = dm.slab_domain(0, 1, ambient_dim=2, radius=8.0)
    sol2 = sv.solve_mixed_bvp(dom2, h=1 / 32, tol=1e-11)
    rep2 = rl.energy_growth_chain(sol2, dom2, [1.0, 2.0, 4.0])
    minimal_term = abs(rep2.boundary_terms["sigma1"])
    ok = failed_somewhere and attributed and minimal_term < 1e-6
    return ok, (f"off-origin slab: failure={failed_somewhere} with nonzero H_f terms "
                f"{[f'{v:.3f}' for v in rep.boundary_terms.values()]}; "
                f"f-minimal piece term {minimal_term:.1e} (< 1e-6)")


def criterion_9_caccioppoli():
    bench = _solver_benchmarks(hs=(1 / 32,))
    ok = True
    details = []
    for name in ("slab", "annulus"):
        _, sol = bench[name][-1]
        rep = en.caccioppoli_check(sol, bench["domains"][name])
        ok = ok and rep.satisfied
        details.append(f"{name} grid lhs/rhs = {rep.lhs / rep.rhs:.3f}")
    for name, maker in (("slab", lambda: sv.solve_slab(-1, 1)),
                        ("annulus", lambda: sv.solve_radial(0.5, 2, 2))):
        rep = en.caccioppoli_check(maker(), None)
        ok = ok and rep.satisfied
        details.append(f"{name} profile lhs/rhs = {rep.lhs / rep.rhs:.3f}")
    return ok, "; ".join(details) + " (all <= 1.05)"


def criterion_10_barrier_suite():
    ok = True
    worst_end = 0.0
    for R in (0.5, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            for z in (0.0, 1.0, 5.0):
                params = br.BarrierParams(R=R, a=a, m=2, z_norm=z)
                res = br.build_psi(params)
                end_gap = max(abs(res.psi(0.0)), abs(res.psi(a) - 1.0))
                worst_end = max(worst_end, end_gap)
                ds = np.linspace(0, a, 9)
                monotone = all(res.psi(d2) > res.psi(d1)
                               for d1, d2 in zip(ds[:-1], ds[1:]))
                ok = ok and end_gap <= 1e-10 and monotone \
                    and res.psi_prime_0 <= res.rough_bound * (1 + 1e-12)
    violation = br.supersolution_check(br.BarrierParams(R=1.0, a=1.0, m=2, z_norm=0.0),
                                       samples=1000)
    ok = ok and violation <= 1e-6

    ann_dom = dm.annulus_domain(0.5, 2.0, ambient_dim=2)
    sol = sv.solve_mixed_bvp(ann_dom, h=1 / 32, tol=1e-11)
    mids, _, _ = en.interface_segments(sol, "sigma2")
    _, dudnu = en.normal_derivative(sol, ann_dom, "sigma2", mids)
    measured = float(np.max(np.abs(dudnu)))
    bound = br.estimate_gradient(2.0, R=2.0, dist_to_sigma1=1.5, m=1)
    ok = ok and measured <= bound
    return ok, (f"worst endpoint gap {worst_end:.1e} (<= 1e-10), 27-point bound holds, "
                f"supersolution violation {violation:.2e} (<= 1e-6), "
                f"annulus |grad u| {measured:.3f} <= bound {bound:.3f}")


def criterion_11_domination():
    ok = True
    details = []
    slab_dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=7.0)
    eu = en.dirichlet_energy(sv.solve_slab(-1, 1))
    epsi = en.energy_of_field(br.lipschitz_barrier("positive-distance", slab_dom),
                              slab_dom, resolution=1 / 128, radius=7.0)
    ok = ok and eu <= epsi - 1e-4
    details.append(f"slab E(u) = {eu:.4f} <= E(Psi) - 1e-4 = {epsi - 1e-4:.4f}")
    ann_dom = dm.annulus_domain(0.5, 2.0, ambient_dim=2)
    eu = en.dirichlet_energy(sv.solve_radial(0.5, 2, 2))
    epsi = en.energy_of_field(br.lipschitz_barrier("projection", ann_dom),
                              ann_dom, resolution=1 / 128)
    ok = ok and eu <= epsi - 1e-4
    details.append(f"annulus E(u) = {eu:.4f} <= E(Psi) - 1e-4 = {epsi - 1e-4:.4f}")
    return ok, "; ".join(details)


def criterion_12_separation():
    s_plane = geo.Hyperplane(normal=(0, 0, 1.0))
    cases = [
        (br.SeparationHypothesis(b=0.0), s_plane, geo.Cylinder(k=1, m=2), True),
        (br.SeparationHypothesis(b=0.3), s_plane,
         geo.Hyperplane(normal=(0, 0, 1.0), offset=1.0), True),
        (br.SeparationHypothesis(b=0.4), s_plane,
         br.GraphSurface(height=lambda r: math.exp(-r * r), ambient_dim=3), False),
    ]
    outcomes = []
    for hyp, s1, s2, expected in cases:
        rep = br.separation_check(hyp, s1, s2, [2, 3, 4, 5, 6, 8])
        outcomes.append(rep.passes == expected)
    return all(outcomes), f"pass/pass/fail pattern confirmed: {outcomes}"


CRITERIA = [
    (1, "shrinker residuals", criterion_1_shrinker_residuals),
    (2, "cylinder identities", criterion_2_cylinder_identities),
    (3, "volume growth", criterion_3_volume_growth),
    (4, "solver convergence", criterion_4_solver_convergence),
    (5, "maximum principle / uniqueness", criterion_5_maximum_principle),
    (6, "Monte Carlo cross-validation", criterion_6_monte_carlo),
    (7, "localized Reilly identity", criterion_7_reilly),
    (8, "energy chain attribution", criterion_8_chain_attribution),
    (9, "Caccioppoli inequality", criterion_9_caccioppoli),
    (10, "barrier suite", criterion_10_barrier_suite),
    (11, "variational domination", criterion_11_domination),
    (12, "separation heuristic", criterion_12_separation),
]


def run_acceptance(indices=None, echo=False):
    """Run the criteria with the given indices (all when None) in order;
    an index that names no criterion is a ParameterError."""
    unknown = sorted(set(indices or ()) - {idx for idx, _, _ in CRITERIA})
    if unknown:
        raise ParameterError(f"unknown acceptance criterion {unknown[0]} (1-12)")
    results = []
    for idx, name, fn in CRITERIA:
        if indices and idx not in indices:
            continue
        t0 = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with the reason recorded
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        res = CriterionResult(index=idx, name=name, passed=bool(passed),
                              detail=detail, runtime=time.time() - t0)
        if echo:
            print(res.line(), flush=True)
        results.append(res)
    return results


def format_table(results):
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
