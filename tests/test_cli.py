import json
import os

import pytest

from shrinkerlab import solver
from shrinkerlab.cli import dumps17, main, validate_config, DOMAIN_SCHEMA
from shrinkerlab.errors import ParameterError, QuadratureError


@pytest.fixture()
def slab_config(tmp_path):
    path = tmp_path / "slab.json"
    path.write_text(json.dumps({"kind": "slab", "h1": -1, "h2": 1,
                                "ambient_dim": 2, "radius": 4.0}))
    return str(path)


@pytest.fixture()
def ball_config(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"kind": "ball", "rho": 1.0, "ambient_dim": 3}))
    return str(path)


def _out(tmp_path, name):
    return str(tmp_path / name)


def test_dumps17_is_round_trip_exact():
    payload = {"a": 0.1 + 0.2, "b": [1.0 / 3.0, 2], "c": {"d": True, "e": None}}
    text = dumps17(payload)
    back = json.loads(text)
    assert back["a"] == 0.1 + 0.2
    assert back["b"][0] == 1.0 / 3.0
    assert "30000000000000004" in text  # all 17 digits present


def test_schema_rejects_unknown_keys():
    with pytest.raises(ParameterError, match="unknown key"):
        validate_config({"kind": "slab", "bogus": 1}, DOMAIN_SCHEMA, "domain")
    with pytest.raises(ParameterError, match="missing"):
        validate_config({}, DOMAIN_SCHEMA, "domain")


def test_verify_shrinker(tmp_path):
    out = _out(tmp_path, "vs")
    code = main(["verify-shrinker", "--model", '{"type":"sphere","m":2}',
                 "--samples", "200", "--output-dir", out])
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["max_residual"] < 1e-9
    assert os.path.exists(os.path.join(out, "run_meta.json"))


def test_identities_and_volume(tmp_path):
    out = _out(tmp_path, "ids")
    assert main(["identities", "--model", '{"type":"cylinder","m":2,"k":1}',
                 "--samples", "50", "--output-dir", out]) == 0
    out2 = _out(tmp_path, "vol")
    assert main(["volume-growth", "--model", '{"type":"sphere","m":2}',
                 "--radii", "2,3,4,5,6", "--output-dir", out2]) == 0
    assert open(os.path.join(out2, "volume.csv")).readline().strip() == "R,area"


def test_solve_writes_grid_and_report(tmp_path, slab_config):
    out = _out(tmp_path, "solve")
    code = main(["solve", "--domain", slab_config, "--h", "0.125",
                 "--compare-radius", "2", "--output-dir", out])
    assert code == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["max_error_vs_closed_form"] < 1e-3
    from shrinkerlab.fields import GridField
    blob = open(os.path.join(out, "solution.grid"), "rb").read()
    gf = GridField.from_binary(blob)
    assert gf.ndim == 2


def test_solve_rerun_is_byte_identical(tmp_path, slab_config):
    a, b = _out(tmp_path, "a"), _out(tmp_path, "b")
    for out in (a, b):
        assert main(["solve", "--domain", slab_config, "--h", "0.25",
                     "--output-dir", out]) == 0
    ra = open(os.path.join(a, "report.json"), "rb").read()
    rb = open(os.path.join(b, "report.json"), "rb").read()
    assert ra == rb


def test_energy_and_reilly(tmp_path, slab_config, ball_config):
    out = _out(tmp_path, "energy")
    assert main(["energy", "--domain", slab_config, "--h", "0.0625",
                 "--radii", "1,2,4", "--output-dir", out]) == 0
    assert open(os.path.join(out, "growth.csv")).readline().strip() == "R,value"
    out2 = _out(tmp_path, "reilly")
    assert main(["reilly", "--domain", ball_config, "--mesh-h", "0.125",
                 "--output-dir", out2]) == 0
    rep = json.loads(open(os.path.join(out2, "report.json")).read())
    assert rep["reilly"]["residual"] < 1e-2


def test_mc_with_trace(tmp_path, slab_config):
    out = _out(tmp_path, "mc")
    code = main(["mc", "--domain", slab_config, "--x0", "0,0",
                 "--n-paths", "300", "--trace", "--output-dir", out])
    assert code == 0
    lines = open(os.path.join(out, "trace.csv")).read().splitlines()
    assert lines[0] == "path,exit_time,exit_label"
    assert len(lines) == 301


def test_barrier_and_sweep(tmp_path):
    out = _out(tmp_path, "barrier")
    assert main(["barrier", "--R", "1", "--a", "1", "--m", "2", "--z", "0",
                 "--samples", "60", "--output-dir", out]) == 0
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"R": [0.5, 1], "a": [1], "m": [2], "z": [0, 1]}))
    out2 = _out(tmp_path, "sweep")
    assert main(["barrier", "--sweep", str(sweep), "--output-dir", out2]) == 0
    lines = open(os.path.join(out2, "sweep.csv")).read().splitlines()
    assert lines[0].startswith("R,a,m,z")
    assert len(lines) == 5


def test_exit_codes(tmp_path, slab_config):
    # contract violation: the linear profile is not a supersolution
    assert main(["barrier", "--profile", "linear", "--samples", "60",
                 "--output-dir", _out(tmp_path, "bad")]) == 2
    # usage error: missing file
    assert main(["solve", "--domain", str(tmp_path / "nope.json"),
                 "--h", "0.1"]) == 1
    # usage error: unknown schema key
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "slab", "h1": -1, "h2": 1, "weird": 3}))
    assert main(["solve", "--domain", str(bad), "--h", "0.1"]) == 1



def _raise_quadrature_error(*args, **kwargs):
    raise QuadratureError("adaptive Simpson missed its tolerance", achieved_tol=1e-3)


_SLAB = {"kind": "slab", "h1": -1, "h2": 1, "ambient_dim": 2, "radius": 4.0}


@pytest.mark.parametrize("domain, flags, failing_solve, expected", [
    # SolverConvergenceError: no Krylov solve reaches a 1e-30 residual
    (_SLAB, ["--h", "0.0625", "--tol", "1e-30"], None, 2),
    # QuadratureError raised by the solve
    (_SLAB, ["--h", "0.0625"], _raise_quadrature_error, 2),
    # SingularSystemError: the ball's sphere lies outside the exhaustion ball
    ({"kind": "ball", "rho": 5.0, "ambient_dim": 2, "radius": 2.0}, ["--h", "0.125"], None, 1),
], ids=["no-convergence", "quadrature", "singular"])
def test_library_errors_map_to_exit_codes(tmp_path, monkeypatch, capsys, domain, flags,
                                          failing_solve, expected):
    if failing_solve is not None:
        monkeypatch.setattr(solver, "solve_mixed_bvp", failing_solve)
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(domain))
    assert main(["solve", "--domain", str(path), *flags,
                 "--output-dir", _out(tmp_path, "err")]) == expected
    assert "Traceback" not in capsys.readouterr().err

def test_separation_cases(tmp_path):
    out = _out(tmp_path, "sep")
    assert main(["separation", "--case", "plane-cylinder", "--output-dir", out]) == 0
    rep = json.loads(open(os.path.join(out, "report.json")).read())
    assert rep["passes"] is True
    out2 = _out(tmp_path, "sep2")
    assert main(["separation", "--case", "gaussian-graph", "--b", "0.4",
                 "--output-dir", out2]) == 0
    rep2 = json.loads(open(os.path.join(out2, "report.json")).read())
    assert rep2["passes"] is False


def test_acceptance_subset(tmp_path):
    out = _out(tmp_path, "acc")
    assert main(["acceptance", "--criteria", "3,12", "--output-dir", out]) == 0
    rep = json.loads(open(os.path.join(out, "report.json")).read())
    assert rep["all_passed"] is True
    assert [c["index"] for c in rep["criteria"]] == [3, 12]
