"""Batch verification front end.

`COMMANDS` maps each subcommand to its function and the argparse keywords
of its flags.  `main` loads `--model` and `--domain`, runs the command and
writes what it returns into the output directory: its artifacts (CSV tables,
the binary solution grid) and a deterministic report.json (all floats at 17
significant digits, so regression constants can be frozen byte-for-byte).
Timestamps and wall seconds live in a separate run_meta.json, so reruns
with identical configuration reproduce report bytes exactly.

Exit codes: 0 success; 1 usage/parameter error, including a problem with no
Dirichlet data; 2 contract violation (a module invariant failed or a linear
solve did not converge).
"""

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import time
from typing import NamedTuple

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
                     SolverConvergenceError, check_config)
from .fields import ScalarField

# --------------------------------------------------------------------------
# deterministic serialization


def dumps17(obj, indent=0):
    """JSON text with every float rendered at 17 significant digits; whole
    floats keep a decimal point (1.0, -0.0), so they load back as floats, and
    non-finite ones are the tokens NaN, Infinity and -Infinity that
    json.dumps writes and json.loads reads back as floats.  A dataclass is
    written as `dataclasses.asdict` gives it, fields in declaration order."""
    pad = "  " * indent
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dumps17(dataclasses.asdict(obj), indent)
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


class Outcome(NamedTuple):
    """What a command hands to the writer in `main`."""

    report: object          # report.json content; None writes no report
    artifacts: dict         # file name -> text or bytes
    line: str               # printed to stdout
    violation: str = None   # a failed contract: printed to stderr, exit 2
    meta: dict = None       # wall-clock entries added to run_meta.json


def _write_outcome(outdir, out):
    os.makedirs(outdir, exist_ok=True)
    files = dict(out.artifacts)
    if out.report is not None:
        files["report.json"] = dumps17(out.report) + "\n"
        files["run_meta.json"] = dumps17({
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "version": __version__, **(out.meta or {})}) + "\n"
    for name, data in files.items():
        with open(os.path.join(outdir, name), "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)


def _csv(header, rows):
    return "\n".join([header, *rows]) + "\n"


# --------------------------------------------------------------------------
# config files (unknown keys rejected; the model and domain formats live
# with their parsers in `geometry` and `domain`)

SWEEP_SCHEMA = {"R": ([float], True), "a": ([float], True), "m": ([int], True),
                "z": ([float], True)}
SEPARATION_SCHEMA = {"case": (str, True), "b": (float, False), "poly_p": ([float], False),
                     "norms": ([float], False)}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _comma_list(kind):
    """argparse type of a comma-separated list of `kind` values."""
    def comma_separated(text):
        return [kind(v) for v in text.split(",")]
    return comma_separated


# --------------------------------------------------------------------------
# subcommands


def cmd_verify_shrinker(args):
    samples = geo.surface_samples(args.model, args.samples)
    worst = max(float(np.linalg.norm(geo.shrinker_residual(s))) for s in samples)
    report = {"model": args.model.to_json(), "samples": args.samples,
              "max_residual": worst, "tolerance": 1e-9}
    return Outcome(report, {}, f"max |x_perp + H| over {args.samples} samples: {worst:.3e}",
                   f"shrinker residual {worst:.3e} exceeds 1e-9" if worst >= 1e-9 else None)


def cmd_identities(args):
    ks = [args.k] if args.k is not None else list(range(1, args.model.ambient_dim - 1))
    worst_res, worst_slack = 0.0, 0.0
    for s in geo.surface_samples(args.model, args.samples, span=args.span):
        for k in ks:
            rep = geo.cylinder_identities(k, s)
            # np.max and np.min keep a NaN, which Python's max and min may drop
            worst_res = float(np.max([worst_res, abs(rep.grad_id_residual),
                                      abs(rep.laplu_residual)]))
            if rep.sqrtu_slack is not None:
                worst_slack = float(np.min([worst_slack, rep.sqrtu_slack]))
    report = {"model": args.model.to_json(), "k_values": ks,
              "max_residual": worst_res, "min_sqrt_slack": worst_slack}
    # a non-finite residual or slack fails both comparisons
    failed = not (worst_res < 1e-6 and worst_slack >= -1e-8)
    return Outcome(report, {}, f"identity residuals: max {worst_res:.3e}, "
                               f"sqrt slack min {worst_slack:.3e}",
                   "cylinder identity residuals exceed their bounds" if failed else None)


def cmd_volume_growth(args):
    res = geo.extrinsic_volume_growth(args.model, args.radii)  # raises ContractViolation itself
    bound = args.model.hypersurface_dim + 0.05
    report = {"model": args.model.to_json(), "radii": args.radii,
              "fitted_exponent": res.fitted_exponent, "bound": bound}
    return Outcome(report, {"volume.csv": res.to_csv()},
                   f"fitted exponent {res.fitted_exponent:.4f} (bound {bound})")


def cmd_solve(args):
    sol = sv.solve_mixed_bvp(args.domain, h=args.h, tol=args.tol)
    report = {"domain": args.domain_obj, "solve": sol.report}
    line = (f"solved {sol.report.details['unknowns']} unknowns, "
            f"weighted residual {sol.report.linear_residual:.2e}")
    profile = args.domain.closed_form
    if profile is not None:
        err = sv.max_node_error(sol, profile, within_radius=args.compare_radius)
        report["max_error_vs_closed_form"] = err
        line = f"max error vs closed form: {err:.4e}\n{line}"
    return Outcome(report, {"solution.grid": sol.field.to_binary()}, line)


def cmd_energy(args):
    sol = sv.solve_mixed_bvp(args.domain, h=args.h, tol=args.tol)
    rep = en.energy_report(sol, args.domain, args.radii)
    violated = rep.caccioppoli_lhs > rep.caccioppoli_rhs * en.CACCIOPPOLI_SLACK
    return Outcome({"domain": args.domain_obj, "energy": rep},
                   {"growth.csv": rep.growth_csv()},
                   f"total energy {rep.total_energy:.6f}; Caccioppoli lhs/rhs = "
                   f"{rep.caccioppoli_lhs / rep.caccioppoli_rhs:.3f}",
                   "Caccioppoli inequality violated beyond 5% slack" if violated else None)


_TEST_FIELDS = {
    "x1": ScalarField(lambda x: x[0], batch_evaluator=lambda P: P[:, 0]),
    "constant": ScalarField(lambda x: 1.0,
                            batch_evaluator=lambda P: np.ones(P.shape[0])),
    "x1sq": ScalarField(lambda x: x[0] ** 2, batch_evaluator=lambda P: P[:, 0] ** 2),
}


def cmd_reilly(args):
    phi = rl.CutoffFamily(args.cutoff_radius) if args.cutoff_radius is not None else None
    rep = rl.reilly_residual(_TEST_FIELDS[args.field], phi, args.domain, mesh_h=args.mesh_h)
    return Outcome({"domain": args.domain_obj, "field": args.field,
                    "cutoff_radius": args.cutoff_radius, "reilly": rep}, {},
                   f"volume side {rep.volume_side:.8f}, boundary side "
                   f"{rep.boundary_side:.8f}, residual {rep.residual:.3e} at mesh_h {rep.mesh_h}")


def cmd_barrier(args):
    if args.sweep is not None:
        sweep = check_config(_load_json(args.sweep), SWEEP_SCHEMA, "sweep config")
        rows = []
        for R, a, m, z in itertools.product(*(sweep[key] for key in "Ramz")):
            res = br.build_psi(br.BarrierParams(R=float(R), a=float(a), m=m, z_norm=float(z)))
            rows.append(f"{R!r},{a!r},{m},{z!r},{res.psi_prime_0!r},{res.rough_bound!r}")
        return Outcome(None, {"sweep.csv": _csv("R,a,m,z,psi_prime_0,rough_bound", rows)},
                       f"swept {len(rows)} parameter tuples")
    params = br.BarrierParams(R=args.R, a=args.a, m=args.m, z_norm=args.z)
    res = br.build_psi(params)
    violation = br.supersolution_check(params, args.samples, profile=args.profile)
    report = {"params": {"R": args.R, "a": args.a, "m": args.m, "z": args.z},
              "psi_prime_0": res.psi_prime_0, "rough_bound": res.rough_bound,
              "gradient_estimate": res.gradient_estimate,
              "supersolution_max_violation": violation,
              "profile": args.profile}
    return Outcome(report, {}, f"psi'(0) = {res.psi_prime_0:.8f} <= rough bound "
                               f"{res.rough_bound:.8f}; supersolution violation {violation:.3e}",
                   f"supersolution violation {violation:.3e} exceeds 1e-6"
                   if violation > 1e-6 else None)


# the surface each case checks against the plane x_3 = 0
_SEP_CASES = {
    "plane-cylinder": lambda: geo.Cylinder(k=1, m=2),
    "parallel-planes": lambda: geo.Hyperplane(normal=(0, 0, 1.0), offset=1.0),
    "gaussian-graph": lambda: br.GraphSurface(height=lambda r: float(np.exp(-r * r)),
                                              ambient_dim=3),
}


def cmd_separation(args):
    cfg = (check_config(_load_json(args.config), SEPARATION_SCHEMA, "separation config")
           if args.config is not None else {"case": args.case, "b": args.b})
    case, b = cfg["case"], cfg.get("b", 0.0)
    poly, norms = tuple(cfg.get("poly_p", [1.0])), cfg.get("norms", [2, 3, 4, 5, 6, 8])
    if case not in _SEP_CASES:
        raise ParameterError(f"unknown separation case {case!r}")
    rep = br.separation_check(br.SeparationHypothesis(b=b, poly_p=poly),
                              geo.Hyperplane(normal=(0, 0, 1.0)), _SEP_CASES[case](), norms)
    return Outcome({"case": case, "b": b, "ratios": [[z, r] for z, r in rep.ratios],
                    "passes": rep.passes, "truncated": rep.truncated},
                   {"separation.csv": rep.to_csv()},
                   f"separation check {'passes' if rep.passes else 'fails'} "
                   f"(finite-sample heuristic)")


def cmd_mc(args):
    x0 = np.array(args.x0)
    cfg = mc.McConfig(n_paths=args.n_paths, dt=args.dt, seed=args.seed)
    trace = [] if args.trace else None
    est = mc.ou_hitting_probability(x0, args.domain, cfg, trace=trace)
    report = {"domain": args.domain_obj, "x0": args.x0,
              "config": {"n_paths": cfg.n_paths, "dt": cfg.dt, "seed": cfg.seed,
                         "max_time": cfg.max_time},
              "estimate": est}
    profile = args.domain.closed_form
    if profile is not None:
        report["closed_form"] = profile(x0)
        report["gap_in_stderr"] = (abs(est.p_hat - profile(x0)) / est.stderr
                                   if est.stderr > 0 else 0.0)
    artifacts = {} if trace is None else {"trace.csv": _csv(
        "path,exit_time,exit_label", [f"{i},{t!r},{lab}" for i, t, lab in trace])}
    return Outcome(report, artifacts,
                   f"p_hat = {est.p_hat:.5f} +- {est.stderr:.5f} "
                   f"({est.hits_sigma2}/{est.hits_sigma1 + est.hits_sigma2} hits, "
                   f"{est.truncated} truncated)")


def cmd_acceptance(args):
    results = run_acceptance(indices=args.criteria, echo=True)
    passed = all(r.passed for r in results)
    return Outcome({"criteria": [{"index": r.index, "name": r.name, "passed": r.passed,
                                  "detail": r.detail} for r in results],
                    "all_passed": passed}, {},
                   format_table(results).splitlines()[-1],
                   None if passed else "acceptance criteria failed",
                   {"criterion_wall_s": {r.index: r.runtime for r in results}})


# --------------------------------------------------------------------------
# the command table and the runner

_MODEL = {"required": True, "help": "inline JSON or path to a model config file"}
_DOMAIN = {"required": True, "help": "path to a domain config file"}
_FLOATS, _TOL = _comma_list(float), {"type": float, "default": 1e-10}

COMMANDS = {
    "verify-shrinker": (cmd_verify_shrinker, {
        "--model": _MODEL, "--samples": {"type": int, "default": 1000}}),
    "identities": (cmd_identities, {
        "--model": _MODEL, "--k": {"type": int}, "--samples": {"type": int, "default": 200},
        "--span": {"type": float, "default": 3.0}}),
    "volume-growth": (cmd_volume_growth, {
        "--model": _MODEL, "--radii": {"type": _FLOATS, "default": "2,3,4,5,6,7,8,9,10"}}),
    "solve": (cmd_solve, {
        "--domain": _DOMAIN, "--h": {"type": float, "required": True},
        "--tol": _TOL, "--compare-radius": {"type": float}}),
    "energy": (cmd_energy, {
        "--domain": _DOMAIN, "--h": {"type": float, "default": 1 / 32},
        "--tol": _TOL, "--radii": {"type": _FLOATS, "default": "1,2,4"}}),
    "reilly": (cmd_reilly, {
        "--domain": _DOMAIN, "--mesh-h": {"type": float, "default": 1 / 32},
        "--field": {"choices": sorted(_TEST_FIELDS), "default": "x1"},
        "--cutoff-radius": {"type": float}}),
    "barrier": (cmd_barrier, {
        "--R": {"type": float, "default": 1.0}, "--a": {"type": float, "default": 1.0},
        "--m": {"type": int, "default": 2}, "--z": {"type": float, "default": 0.0},
        "--samples": {"type": int, "default": 1000},
        "--profile": {"choices": ("ode", "linear"), "default": "ode"},
        "--sweep": {"help": "JSON sweep file over R/a/m/z"}}),
    "separation": (cmd_separation, {
        "--case": {"choices": sorted(_SEP_CASES), "default": "plane-cylinder"},
        "--b": {"type": float, "default": 0.0}, "--config": {}}),
    "mc": (cmd_mc, {
        "--domain": _DOMAIN,
        "--x0": {"type": _FLOATS, "required": True, "help": "comma-separated coordinates"},
        "--n-paths": {"type": int, "default": 10000}, "--dt": {"type": float, "default": 1e-3},
        "--seed": {"type": int, "default": 20240801},
        "--trace": {"action": "store_true", "help": "dump per-path exit data to trace.csv"}}),
    "acceptance": (cmd_acceptance, {
        "--criteria": {"type": _comma_list(int), "help": "comma-separated subset, e.g. 1,3,9"}}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shrinkerlab",
        description="verification workflows for the weighted-Laplacian laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--output-dir",
                       default=os.environ.get("SHRINKERLAB_OUTPUT_DIR",
                                              os.path.join("runs", name)))
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "model", None) is not None:
            text = args.model
            args.model = geo.model_from_json(json.loads(text) if text.strip().startswith("{")
                                             else _load_json(text))
        if getattr(args, "domain", None) is not None:
            args.domain_obj = _load_json(args.domain)
            args.domain = dm.domain_from_json(args.domain_obj)
        out = args.func(args)
        _write_outcome(args.output_dir, out)
        print(out.line)
        if out.violation is not None:
            raise ContractViolation(out.violation)
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
