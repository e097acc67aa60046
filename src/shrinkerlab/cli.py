"""Batch verification front end.

Every subcommand reads file- or flag-based configuration, runs one module
workflow, and writes a deterministic JSON report (all floats at 17
significant digits, so regression constants can be frozen byte-for-byte)
plus CSV artifacts into the output directory.  Timestamps live in a separate
run_meta.json so reruns with identical configuration reproduce report bytes
exactly.

Exit codes: 0 success; 1 usage/parameter error, including a problem with no
Dirichlet data; 2 contract violation (a module invariant failed or a linear
solve did not converge).
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import barrier as br
from . import domain as dm
from . import energy as en
from . import geometry as geo
from . import mc
from . import reilly as rl
from . import solver as sv
from .acceptance import format_table, run_acceptance
from .errors import (ContractViolation, ParameterError, SingularSystemError,
                     SolverConvergenceError)
from .fields import ScalarField

# --------------------------------------------------------------------------
# deterministic serialization


def dumps17(obj, indent=0):
    """JSON text with every float rendered at 17 significant digits; whole
    floats keep a decimal point (1.0, -0.0), so they load back as floats, and
    non-finite ones are the tokens NaN, Infinity and -Infinity that
    json.dumps writes and json.loads reads back as floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {dumps17(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps17(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return json.dumps(x)
        text = format(x, ".17g")
        return text if "." in text or "e" in text else text + ".0"
    return json.dumps(obj)


def _write(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_report(outdir, report):
    path = _write(outdir, "report.json", dumps17(report) + "\n")
    _write(outdir, "run_meta.json",
           dumps17({"written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    "version": __version__}) + "\n")
    return path


# --------------------------------------------------------------------------
# config validation (published schemas; unknown keys rejected)

DOMAIN_SCHEMA = {
    "kind": (str, True),
    "ambient_dim": (int, False),
    "radius": ((int, float), False),
    "h1": ((int, float), False),
    "h2": ((int, float), False),
    "axis": (int, False),
    "a": ((int, float), False),
    "b": ((int, float), False),
    "rho": ((int, float), False),
    "sigma1": (dict, False),
    "sigma2": (dict, False),
    "radii": (list, False),
}

MODEL_SCHEMA = {
    "type": (str, True),
    "normal": (list, False),
    "m": (int, False),
    "k": (int, False),
}

SWEEP_SCHEMA = {
    "R": (list, True),
    "a": (list, True),
    "m": (list, True),
    "z": (list, True),
}

SEPARATION_SCHEMA = {
    "case": (str, True),
    "b": ((int, float), False),
    "poly_p": (list, False),
    "norms": (list, False),
}


def validate_config(obj, schema, what):
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be a JSON object")
    for key in obj:
        if key not in schema:
            raise ParameterError(f"{what}: unknown key {key!r}")
    for key, (types, required) in schema.items():
        if key in obj and not isinstance(obj[key], types):
            raise ParameterError(f"{what}: key {key!r} has the wrong type")
        if required and key not in obj:
            raise ParameterError(f"{what}: missing required key {key!r}")
    return obj


def _load_json(path, schema, what):
    with open(path) as fh:
        obj = json.load(fh)
    return validate_config(obj, schema, what)


def _model_from_args(args):
    obj = json.loads(args.model) if args.model.strip().startswith("{") \
        else _load_json(args.model, MODEL_SCHEMA, "model config")
    validate_config(obj, MODEL_SCHEMA, "model config")
    return geo.model_from_json(obj)


def _domain_from_args(args):
    obj = _load_json(args.domain, DOMAIN_SCHEMA, "domain config")
    return dm.domain_from_json(obj), obj


def _closed_form_for(domain):
    if domain.kind == "slab":
        return sv.solve_slab(domain.params["h1"], domain.params["h2"],
                             ambient_dim=domain.ambient_dim,
                             axis=domain.params.get("axis", -1)).profile
    if domain.kind == "annulus":
        return sv.solve_radial(domain.params["a"], domain.params["b"],
                               domain.ambient_dim).profile
    return None


# --------------------------------------------------------------------------
# subcommands


def cmd_verify_shrinker(args):
    model = _model_from_args(args)
    samples = geo.surface_samples(model, args.samples)
    worst = max(float(np.linalg.norm(geo.shrinker_residual(s))) for s in samples)
    report = {"model": geo.model_to_json(model), "samples": args.samples,
              "max_residual": worst, "tolerance": 1e-9}
    _write_report(args.output_dir, report)
    print(f"max |x_perp + H| over {args.samples} samples: {worst:.3e}")
    if worst >= 1e-9:
        raise ContractViolation(f"shrinker residual {worst:.3e} exceeds 1e-9")


def cmd_identities(args):
    model = _model_from_args(args)
    ks = [args.k] if args.k else list(range(1, model.ambient_dim - 1))
    worst_res, worst_slack = 0.0, 0.0
    for s in geo.surface_samples(model, args.samples, span=args.span):
        for k in ks:
            rep = geo.cylinder_identities(k, s)
            worst_res = max(worst_res, abs(rep.grad_id_residual), abs(rep.laplu_residual))
            if rep.sqrtu_slack is not None:
                worst_slack = min(worst_slack, rep.sqrtu_slack)
    report = {"model": geo.model_to_json(model), "k_values": ks,
              "max_residual": worst_res, "min_sqrt_slack": worst_slack}
    _write_report(args.output_dir, report)
    print(f"identity residuals: max {worst_res:.3e}, sqrt slack min {worst_slack:.3e}")
    if worst_res >= 1e-6 or worst_slack < -1e-8:
        raise ContractViolation("cylinder identity residuals exceed their bounds")


def cmd_volume_growth(args):
    model = _model_from_args(args)
    radii = [float(r) for r in args.radii.split(",")]
    res = geo.extrinsic_volume_growth(model, radii)  # raises ContractViolation itself
    _write(args.output_dir, "volume.csv", res.to_csv())
    report = {"model": geo.model_to_json(model), "radii": radii,
              "fitted_exponent": res.fitted_exponent,
              "bound": model.hypersurface_dim + 0.05}
    _write_report(args.output_dir, report)
    print(f"fitted exponent {res.fitted_exponent:.4f} "
          f"(bound {model.hypersurface_dim + 0.05})")


def cmd_solve(args):
    domain, domain_obj = _domain_from_args(args)
    sol = sv.solve_mixed_bvp(domain, h=args.h, tol=args.tol)
    report = {"domain": domain_obj, "solve": sol.report.to_json()}
    profile = _closed_form_for(domain)
    if profile is not None:
        err = sv.max_node_error(sol, profile, within_radius=args.compare_radius)
        report["max_error_vs_closed_form"] = err
        print(f"max error vs closed form: {err:.4e}")
    os.makedirs(args.output_dir, exist_ok=True)
    with open(os.path.join(args.output_dir, "solution.grid"), "wb") as fh:
        fh.write(sol.field.to_binary())
    _write_report(args.output_dir, report)
    print(f"solved {sol.report.details['unknowns']} unknowns, "
          f"weighted residual {sol.report.linear_residual:.2e}")


def cmd_energy(args):
    domain, domain_obj = _domain_from_args(args)
    sol = sv.solve_mixed_bvp(domain, h=args.h, tol=args.tol)
    radii = [float(r) for r in args.radii.split(",")]
    rep = en.energy_report(sol, domain, radii)
    _write(args.output_dir, "growth.csv", rep.growth_csv())
    _write_report(args.output_dir, {"domain": domain_obj, "energy": rep.to_json()})
    print(f"total energy {rep.total_energy:.6f}; Caccioppoli lhs/rhs = "
          f"{rep.caccioppoli_lhs / rep.caccioppoli_rhs:.3f}")
    if rep.caccioppoli_lhs > rep.caccioppoli_rhs * 1.05:
        raise ContractViolation("Caccioppoli inequality violated beyond 5% slack")


_TEST_FIELDS = {
    "x1": ScalarField(lambda x: x[0], batch_evaluator=lambda P: P[:, 0]),
    "constant": ScalarField(lambda x: 1.0,
                            batch_evaluator=lambda P: np.ones(P.shape[0])),
    "x1sq": ScalarField(lambda x: x[0] ** 2, batch_evaluator=lambda P: P[:, 0] ** 2),
}


def cmd_reilly(args):
    domain, domain_obj = _domain_from_args(args)
    u = _TEST_FIELDS[args.field]
    phi = rl.CutoffFamily(args.cutoff_radius) if args.cutoff_radius else None
    rep = rl.reilly_residual(u, phi, domain, mesh_h=args.mesh_h)
    _write_report(args.output_dir, {"domain": domain_obj, "field": args.field,
                                    "cutoff_radius": args.cutoff_radius,
                                    "reilly": rep.to_json()})
    print(f"volume side {rep.volume_side:.8f}, boundary side {rep.boundary_side:.8f}, "
          f"residual {rep.residual:.3e} at mesh_h {rep.mesh_h}")


def cmd_barrier(args):
    if args.sweep:
        sweep = _load_json(args.sweep, SWEEP_SCHEMA, "sweep config")
        rows = ["R,a,m,z,psi_prime_0,rough_bound"]
        for R in sweep["R"]:
            for a in sweep["a"]:
                for m in sweep["m"]:
                    for z in sweep["z"]:
                        res = br.build_psi(br.BarrierParams(R=float(R), a=float(a),
                                                            m=int(m), z_norm=float(z)))
                        rows.append(f"{R!r},{a!r},{m},{z!r},"
                                    f"{res.psi_prime_0!r},{res.rough_bound!r}")
        _write(args.output_dir, "sweep.csv", "\n".join(rows) + "\n")
        print(f"swept {len(rows) - 1} parameter tuples")
        return
    params = br.BarrierParams(R=args.R, a=args.a, m=args.m, z_norm=args.z)
    res = br.build_psi(params)
    violation = br.supersolution_check(params, args.samples, profile=args.profile)
    report = {"params": {"R": args.R, "a": args.a, "m": args.m, "z": args.z},
              "psi_prime_0": res.psi_prime_0, "rough_bound": res.rough_bound,
              "gradient_estimate": res.gradient_estimate,
              "supersolution_max_violation": violation,
              "profile": args.profile}
    _write_report(args.output_dir, report)
    print(f"psi'(0) = {res.psi_prime_0:.8f} <= rough bound {res.rough_bound:.8f}; "
          f"supersolution violation {violation:.3e}")
    if violation > 1e-6:
        raise ContractViolation(
            f"supersolution violation {violation:.3e} exceeds 1e-6")


_SEP_CASES = {
    "plane-cylinder": lambda b, p: (br.SeparationHypothesis(b=b, poly_p=p),
                                    br.PlaneSurface(normal=(0, 0, 1.0)),
                                    br.CylinderSurface(k=1, m=2)),
    "parallel-planes": lambda b, p: (br.SeparationHypothesis(b=b, poly_p=p),
                                     br.PlaneSurface(normal=(0, 0, 1.0)),
                                     br.PlaneSurface(normal=(0, 0, 1.0), offset=1.0)),
    "gaussian-graph": lambda b, p: (br.SeparationHypothesis(b=b, poly_p=p),
                                    br.PlaneSurface(normal=(0, 0, 1.0)),
                                    br.GraphSurface(
                                        height=lambda r: float(np.exp(-r * r)),
                                        ambient_dim=3)),
}


def cmd_separation(args):
    if args.config:
        cfg = _load_json(args.config, SEPARATION_SCHEMA, "separation config")
        case = cfg["case"]
        b = float(cfg.get("b", 0.0))
        poly = tuple(cfg.get("poly_p", [1.0]))
        norms = cfg.get("norms", [2, 3, 4, 5, 6, 8])
    else:
        case, b, poly, norms = args.case, args.b, (1.0,), [2, 3, 4, 5, 6, 8]
    if case not in _SEP_CASES:
        raise ParameterError(f"unknown separation case {case!r}")
    hyp, s1, s2 = _SEP_CASES[case](b, poly)
    rep = br.separation_check(hyp, s1, s2, norms)
    _write(args.output_dir, "separation.csv", rep.to_csv())
    _write_report(args.output_dir, {"case": case, "b": b,
                                    "ratios": [[z, r] for z, r in rep.ratios],
                                    "passes": rep.passes, "truncated": rep.truncated})
    print(f"separation check {'passes' if rep.passes else 'fails'} "
          f"(finite-sample heuristic)")


def cmd_mc(args):
    domain, domain_obj = _domain_from_args(args)
    x0 = np.array([float(v) for v in args.x0.split(",")])
    cfg = mc.McConfig(n_paths=args.n_paths, dt=args.dt, seed=args.seed)
    trace = [] if args.trace else None
    est = mc.ou_hitting_probability(x0, domain, cfg, trace=trace)
    report = {"domain": domain_obj, "x0": list(map(float, x0)),
              "config": {"n_paths": cfg.n_paths, "dt": cfg.dt, "seed": cfg.seed,
                         "max_time": cfg.max_time},
              "estimate": est.to_json()}
    profile = _closed_form_for(domain)
    if profile is not None:
        report["closed_form"] = profile(x0)
        report["gap_in_stderr"] = (abs(est.p_hat - profile(x0)) / est.stderr
                                   if est.stderr > 0 else 0.0)
    if trace is not None:
        lines = ["path,exit_time,exit_label"]
        lines += [f"{i},{t!r},{lab}" for i, t, lab in trace]
        _write(args.output_dir, "trace.csv", "\n".join(lines) + "\n")
    _write_report(args.output_dir, report)
    print(f"p_hat = {est.p_hat:.5f} +- {est.stderr:.5f} "
          f"({est.hits_sigma2}/{est.hits_sigma1 + est.hits_sigma2} hits, "
          f"{est.truncated} truncated)")


def cmd_acceptance(args):
    indices = [int(i) for i in args.criteria.split(",")] if args.criteria else None
    results = run_acceptance(indices=indices, echo=True)
    _write_report(args.output_dir, {
        "criteria": [{"index": r.index, "name": r.name, "passed": r.passed,
                      "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results)})
    print(format_table(results).splitlines()[-1])
    if not all(r.passed for r in results):
        raise ContractViolation("acceptance criteria failed")


# --------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shrinkerlab",
        description="verification workflows for the weighted-Laplacian laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **defaults):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--output-dir",
                       default=os.environ.get("SHRINKERLAB_OUTPUT_DIR",
                                              os.path.join("runs", name)))
        return p

    p = add("verify-shrinker", cmd_verify_shrinker)
    p.add_argument("--model", required=True,
                   help="inline JSON or path to a model config file")
    p.add_argument("--samples", type=int, default=1000)

    p = add("identities", cmd_identities)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--span", type=float, default=3.0)

    p = add("volume-growth", cmd_volume_growth)
    p.add_argument("--model", required=True)
    p.add_argument("--radii", default="2,3,4,5,6,7,8,9,10")

    p = add("solve", cmd_solve)
    p.add_argument("--domain", required=True, help="path to a domain config file")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--compare-radius", type=float, default=None)

    p = add("energy", cmd_energy)
    p.add_argument("--domain", required=True)
    p.add_argument("--h", type=float, default=1 / 32)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--radii", default="1,2,4")

    p = add("reilly", cmd_reilly)
    p.add_argument("--domain", required=True)
    p.add_argument("--mesh-h", type=float, default=1 / 32)
    p.add_argument("--field", choices=sorted(_TEST_FIELDS), default="x1")
    p.add_argument("--cutoff-radius", type=float, default=None)

    p = add("barrier", cmd_barrier)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--profile", choices=("ode", "linear"), default="ode")
    p.add_argument("--sweep", default=None, help="JSON sweep file over R/a/m/z")

    p = add("separation", cmd_separation)
    p.add_argument("--case", choices=sorted(_SEP_CASES), default="plane-cylinder")
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--config", default=None)

    p = add("mc", cmd_mc)
    p.add_argument("--domain", required=True)
    p.add_argument("--x0", required=True, help="comma-separated coordinates")
    p.add_argument("--n-paths", type=int, default=10000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--trace", action="store_true",
                   help="dump per-path exit data to trace.csv")

    p = add("acceptance", cmd_acceptance)
    p.add_argument("--criteria", default=None, help="comma-separated subset, e.g. 1,3,9")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except (ContractViolation, SolverConvergenceError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, SingularSystemError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
