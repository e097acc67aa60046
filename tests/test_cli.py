import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from shrinkerlab.cli import dumps17, main
from shrinkerlab.domain import domain_from_json
from shrinkerlab.errors import ParameterError


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


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                1e308, -1.7976931348623157e308, 2.0 ** 53, 1e16, 1e17])
_FLOATS = st.one_of(_EDGE_FLOATS, st.integers(-10 ** 18, 10 ** 18).map(float),
                    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]))


def _same_floats(a, b):
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same_floats(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same_floats, a, b))
    if a != a:
        return type(b) is float and b != b
    return type(b) is float and b == a and math.copysign(1.0, b) == math.copysign(1.0, a)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_FLOATS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=5), inner, max_size=4), max_leaves=20))
def test_dumps17_round_trips_floats(payload):
    # whole values and -0.0 load back as floats of the same sign, NaN and
    # +-inf as floats
    assert _same_floats(payload, json.loads(dumps17(payload)))


def test_schema_rejects_unknown_keys():
    with pytest.raises(ParameterError, match="unknown key"):
        domain_from_json({"kind": "slab", "h1": -1, "h2": 1, "bogus": 1})
    with pytest.raises(ParameterError, match="missing"):
        domain_from_json({"kind": "slab", "h1": -1})
    with pytest.raises(ParameterError, match="unknown kind"):
        domain_from_json({})


_SLAB = {"kind": "slab", "h1": -1, "h2": 1, "ambient_dim": 2, "radius": 4.0}
_PLANE = {"type": "plane", "normal": [0, 1], "offset": -2.0, "side": 1}
_SPHERE = {"type": "sphere", "radius": 1.0, "side": 1}
_GENERIC = {"kind": "generic", "ambient_dim": 2, "radius": 4.0,
            "sigma1": _PLANE, "sigma2": _SPHERE}


@pytest.mark.parametrize("config, key", [
    ({**_SLAB, "rho": 1.0}, "rho"),
    ({**_SLAB, "radii": [1, 2]}, "radii"),
    ({k: v for k, v in _GENERIC.items() if k != "radius"}, "radius"),
    ({**_GENERIC, "sigma1": {k: v for k, v in _PLANE.items() if k != "offset"}}, "offset"),
    ({**_GENERIC, "sigma2": {**_SPHERE, "bogus": 1}}, "bogus"),
    ({**_SLAB, "h1": "low"}, "h1"),
    ({**_SLAB, "h2": True}, "h2"),
], ids=["other-kind-key", "no-kind-key", "generic-radius", "piece-offset", "piece-bogus",
        "wrong-type", "boolean"])
def test_domain_config_errors_name_the_key(tmp_path, capsys, config, key):
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--domain", str(path), "--h", "0.25",
                 "--output-dir", _out(tmp_path, "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and repr(key) in err


@pytest.mark.parametrize("model, key", [
    ('{"type": "sphere"}', "m"),
    ('{"type": "sphere", "m": 2, "k": 1}', "k"),
    ('{"type": "cylinder", "m": 2}', "k"),
])
def test_model_config_errors_name_the_key(tmp_path, capsys, model, key):
    assert main(["verify-shrinker", "--model", model, "--samples", "10",
                 "--output-dir", _out(tmp_path, "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and repr(key) in err


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
    report = json.load(open(os.path.join(out, "report.json")))
    assert {"exit_time_q50", "exit_time_q90", "exit_time_q99"} <= set(report["estimate"])
    assert "boundary_snap" not in report["config"]


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



@pytest.mark.parametrize("domain, flags, expected", [
    # SolverConvergenceError: no Krylov solve reaches a 1e-30 residual
    (_SLAB, ["--h", "0.0625", "--tol", "1e-30"], 2),
    # SingularSystemError: the ball's sphere lies outside the exhaustion ball
    ({"kind": "ball", "rho": 5.0, "ambient_dim": 2, "radius": 2.0}, ["--h", "0.125"], 1),
], ids=["no-convergence", "singular"])
def test_library_errors_map_to_exit_codes(tmp_path, capsys, domain, flags, expected):
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(domain))
    assert main(["solve", "--domain", str(path), *flags,
                 "--output-dir", _out(tmp_path, "err")]) == expected
    assert "Traceback" not in capsys.readouterr().err

def test_solve_with_an_empty_compare_set_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({"kind": "annulus", "a": 0.5, "b": 2.0, "ambient_dim": 2}))
    assert main(["solve", "--domain", str(path), "--h", "0.125", "--compare-radius", "0.3",
                 "--output-dir", _out(tmp_path, "empty")]) == 1
    err = capsys.readouterr().err
    assert "usage error: no solved node lies within_radius=0.3" in err


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
