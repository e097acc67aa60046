import dataclasses
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shrinkerlab import acceptance as acc
from shrinkerlab import barrier as br
from shrinkerlab import geometry as geo
from shrinkerlab.cli import COMMANDS, dumps, main
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


def test_dumps_is_round_trip_exact():
    payload = {"a": 0.1 + 0.2, "b": [1.0 / 3.0, 2], "c": {"d": True, "e": None}}
    text = dumps(payload)
    back = json.loads(text)
    assert back["a"] == 0.1 + 0.2
    assert back["b"][0] == 1.0 / 3.0
    assert "0.30000000000000004" in text  # the 17 digits this double needs


def test_dumps_writes_the_shortest_repr():
    # 17 significant digits would write 0.10000000000000001
    assert dumps({"a": 0.1, "b": [1.0, -0.0]}).splitlines() == [
        '{', '  "a": 0.1,', '  "b": [', '    1.0,', '    -0.0', '  ]', '}']


@dataclasses.dataclass
class _Inner:
    count: object
    value: float


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    rows: list


def test_dumps_writes_numpy_scalars_and_nested_dataclasses():
    payload = _Outer(_Inner(np.int64(3), np.float32(0.5)), [np.int64(-1), np.bool_(True)])
    assert json.loads(dumps(payload)) == {"inner": {"count": 3, "value": 0.5},
                                          "rows": [-1, True]}
    assert json.loads(dumps({"n": np.int64(2 ** 62)}))["n"] == 2 ** 62


@pytest.mark.parametrize("obj", [object(), np.zeros(2), {1, 2}, _Inner])
def test_dumps_rejects_unknown_objects(obj):
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps({"x": obj})


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
def test_dumps_round_trips_floats(payload):
    # whole values and -0.0 load back as floats of the same sign, NaN and
    # +-inf as floats
    assert _same_floats(payload, json.loads(dumps(payload)))


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
    ('{"type": "hyperplane", "normal": [0, 0, true]}', "normal"),
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


def test_model_file_reads_as_the_inline_model(tmp_path):
    # a --model value not starting with "{" is the path of a JSON file
    model = '{"type":"cylinder","m":2,"k":1}'
    path = tmp_path / "cylinder.json"
    path.write_text(model)
    reports = []
    for name, value in (("inline", model), ("file", str(path))):
        out = _out(tmp_path, name)
        assert main(["verify-shrinker", "--model", value, "--samples", "50",
                     "--output-dir", out]) == 0
        reports.append(open(os.path.join(out, "report.json"), "rb").read())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command, count", [
    ("verify-shrinker", "0"), ("verify-shrinker", "-2"), ("identities", "0"),
    ("barrier", "0"), ("barrier", "-3")])
def test_sample_counts_below_one_are_usage_errors(tmp_path, capsys, command, count):
    # barrier used to print a passing "supersolution violation 0.000e+00"
    out = _out(tmp_path, "none")
    model = [] if command == "barrier" else ["--model", '{"type":"sphere","m":2}']
    assert main([command, *model, "--samples", count, "--output-dir", out]) == 1
    assert f"usage error: sample count must be at least 1, got {count}" in \
        capsys.readouterr().err
    assert not os.path.exists(out)


def test_identities_in_the_plane_are_a_usage_error(tmp_path, capsys):
    # ambient dimension 2 has no k in 1..n-2; this wrote k_values [] and exited 0
    out = _out(tmp_path, "circle")
    assert main(["identities", "--model", '{"type":"sphere","m":1}', "--output-dir", out]) == 1
    assert capsys.readouterr().err == "usage error: no identity to check: 200 samples, " \
                                      "k values []\n"
    assert not os.path.exists(out)


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
    for out in (a, b):
        # the command's getrusage deltas go to run_meta.json, never to the report
        meta = json.load(open(os.path.join(out, "run_meta.json")))
        assert all(meta[key] >= 0 for key in ("minor_faults", "user_s", "system_s"))
        assert isinstance(meta["minor_faults"], int)
    assert b"minor_faults" not in ra and b"user_s" not in ra and b"system_s" not in ra


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


_REILLY_DOMAINS = {
    "ball": {"kind": "ball", "rho": 1.0, "ambient_dim": 3},
    "annulus2d": {"kind": "annulus", "a": 0.5, "b": 2.0, "ambient_dim": 2},
    "annulus3d": {"kind": "annulus", "a": 0.5, "b": 2.0, "ambient_dim": 3},
    "slab3d": {"kind": "slab", "h1": -1.0, "h2": 1.0, "ambient_dim": 3},
}
# the line `shrinkerlab reilly --mesh-h 0.0625` prints, keyed by domain,
# --field and --cutoff-radius: sides to 8 decimals, the residual to 3 digits
_REILLY_LINES = {
    ("ball", "x1", None):
        "volume side 2.54060711, boundary side 2.54062969, "
        "residual 2.258e-05 at mesh_h 0.0625",
    ("ball", "x1", "0.5"):
        "volume side -0.00007743, boundary side 0.00000000, "
        "residual 7.743e-05 at mesh_h 0.0625",
    ("ball", "x1sq", None):
        "volume side 6.10731672, boundary side 6.09751125, "
        "residual 9.805e-03 at mesh_h 0.0625",
    ("ball", "x1sq", "0.5"):
        "volume side -0.00006267, boundary side 0.00000000, "
        "residual 6.267e-05 at mesh_h 0.0625",
    ("annulus2d", "x1", None):
        "volume side 1.00688945, boundary side 1.00756188, "
        "residual 6.724e-04 at mesh_h 0.0625",
    ("annulus2d", "x1", "0.5"):
        "volume side -0.69365805, boundary side -0.69311145, "
        "residual 5.466e-04 at mesh_h 0.0625",
    ("annulus2d", "x1sq", None):
        "volume side 19.87961337, boundary side 19.88824633, "
        "residual 8.633e-03 at mesh_h 0.0625",
    ("annulus2d", "x1sq", "0.5"):
        "volume side -0.52270905, boundary side -0.51983358, "
        "residual 2.875e-03 at mesh_h 0.0625",
    ("annulus3d", "x1", None):
        "volume side 4.07060998, boundary side 4.07305457, "
        "residual 2.445e-03 at mesh_h 0.0625",
    ("annulus3d", "x1", "0.5"):
        "volume side -0.46320492, boundary side -0.46207430, "
        "residual 1.131e-03 at mesh_h 0.0625",
    ("annulus3d", "x1sq", None):
        "volume side 43.24269785, boundary side 43.25999258, "
        "residual 1.729e-02 at mesh_h 0.0625",
    ("annulus3d", "x1sq", "0.5"):
        "volume side -0.28028067, boundary side -0.27724458, "
        "residual 3.036e-03 at mesh_h 0.0625",
    ("slab3d", "x1", None):
        "volume side 0.01148791, boundary side 0.00000000, "
        "residual 1.149e-02 at mesh_h 0.0625",
    ("slab3d", "x1", "0.5"):
        "volume side -0.00007904, boundary side 0.00000000, "
        "residual 7.904e-05 at mesh_h 0.0625",
    ("slab3d", "x1sq", None):
        "volume side 0.73565977, boundary side 0.00000000, "
        "residual 7.357e-01 at mesh_h 0.0625",
    ("slab3d", "x1sq", "0.5"):
        "volume side -0.00006621, boundary side 0.00000000, "
        "residual 6.621e-05 at mesh_h 0.0625",
}


@pytest.mark.parametrize("domain, field, cutoff", list(_REILLY_LINES))
def test_reilly_prints_the_pinned_line(tmp_path, capsys, domain, field, cutoff):
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(_REILLY_DOMAINS[domain]))
    flags = [] if cutoff is None else ["--cutoff-radius", cutoff]
    assert main(["reilly", "--domain", str(path), "--mesh-h", "0.0625", "--field", field,
                 *flags, "--output-dir", _out(tmp_path, "reilly")]) == 0
    assert capsys.readouterr().out.strip() == _REILLY_LINES[domain, field, cutoff]


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


@pytest.mark.parametrize("domain, flags, key", [
    ({"kind": "annulus", "a": 0.5, "b": 2.0}, ["--x0", "1,0,0"], "x0"),
    ({**_GENERIC, "ambient_dim": 3}, ["--x0", "0,0,2"], "'normal'"),
    (_SLAB, ["--x0", "0,0", "--seed", "-1"], "seed"),
], ids=["x0-dimension", "normal-length", "negative-seed"])
def test_mc_usage_errors_name_the_key(tmp_path, capsys, domain, flags, key):
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(domain))
    assert main(["mc", "--domain", str(path), *flags, "--n-paths", "200",
                 "--output-dir", _out(tmp_path, "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and key in err


@pytest.mark.parametrize("command, flag, config, key", [
    ("barrier", "--sweep", {"R": [True], "a": [1], "m": [2], "z": [0]}, "R"),
    ("barrier", "--sweep", {"R": [1], "a": [1], "m": [2.5], "z": [0]}, "m"),
    ("separation", "--config", {"case": "plane-cylinder", "norms": [True, 3, 4]}, "norms"),
    ("separation", "--config", {"case": "plane-cylinder", "poly_p": []}, "poly_p"),
], ids=["boolean-R", "fractional-m", "boolean-norm", "empty-poly"])
def test_config_list_elements_are_checked(tmp_path, capsys, command, flag, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = _out(tmp_path, "bad")
    assert main([command, flag, str(path), "--output-dir", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and repr(key) in err
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--h", "0.25"]),
    ("mc", ["--x0", "0,0", "--n-paths", "10"]),
    ("reilly", ["--mesh-h", "0.25"]),
])
@pytest.mark.parametrize("text, message", [
    (json.dumps({**_GENERIC, "sigma2": {**_SPHERE, "radius": math.inf}}),
     "sphere radius must be positive and finite, got inf"),
    (json.dumps({**_GENERIC, "sigma2": {**_SPHERE, "radius": math.nan}}),
     "sphere radius must be positive and finite, got nan"),
    (json.dumps({**_GENERIC, "sigma1": {**_PLANE, "offset": math.inf}}),
     "hyperplane offset must be finite, got inf"),
    (json.dumps({**_GENERIC, "sigma1": {**_PLANE, "offset": math.nan}}),
     "hyperplane offset must be finite, got nan"),
    ('{"kind": "slab", "h1": -1, "h2": 1e400}',
     "profile interval [-1.0, inf] must be finite and non-empty"),
    ('{"kind": "annulus", "a": 0.5, "b": Infinity}',
     "sphere radius must be positive and finite, got inf"),
    ('{"kind": "ball", "rho": -1}', "sphere radius must be positive and finite, got -1.0"),
    ('{"kind": "slab", "h1": -1, "h2": 1, "ambient_dim": 0}',
     "ambient dimension must be at least 2, got 0"),
], ids=["inf-sphere", "nan-sphere", "inf-plane", "nan-plane", "overflowing-slab",
        "inf-annulus", "negative-ball", "zero-dim-slab"])
def test_non_finite_or_empty_geometry_is_a_usage_error(tmp_path, capsys, command, flags,
                                                       text, message):
    # the piece or closed form rejects it when the domain is built
    path = tmp_path / "domain.json"
    path.write_text(text)
    out = _out(tmp_path, command)
    assert main([command, "--domain", str(path), *flags, "--output-dir", out]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("radius, h", [(0.5, "0.25"), (0.6, "0.2")])
def test_a_slab_outside_the_exhaustion_ball_is_singular(tmp_path, capsys, radius, h):
    # the ghost band holds Dirichlet nodes, but every leg leaving a solved
    # node is mirrored at the sphere: no row sees Dirichlet data
    path = tmp_path / "domain.json"
    path.write_text(json.dumps({**_SLAB, "radius": radius}))
    assert main(["solve", "--domain", str(path), "--h", h,
                 "--output-dir", _out(tmp_path, "singular")]) == 1
    assert capsys.readouterr().err.startswith(
        "usage error: no stencil leg reaches Dirichlet data: the pure-Neumann")


@pytest.mark.parametrize("command, domain, flags, message", [
    ("reilly", "ball", ["--mesh-h", "-0.1"], "mesh_h must be positive and finite, got -0.1"),
    ("reilly", "ball", ["--mesh-h", "0"], "mesh_h must be positive and finite, got 0.0"),
    ("reilly", "ball", ["--cutoff-radius", "nan"], "cutoff radius must be positive and finite, "
                                                    "got nan"),
    ("barrier", None, ["--R", "nan"], "barrier radius R must be positive and finite, got nan"),
    ("barrier", None, ["--a", "inf"], "shell width a must be positive and finite, got inf"),
    ("barrier", None, ["--z", "nan"], "|z| must be nonnegative and finite, got nan"),
    ("solve", "slab", ["--h", "0.25", "--tol", "nan"], "tol must be positive and finite, got nan"),
    ("solve", "slab", ["--h", "0.25", "--tol", "-1"], "tol must be positive and finite, got -1.0"),
    ("solve", "slab", ["--h", "-0.1"], "grid spacing h must be positive and finite, got -0.1"),
    ("mc", "slab", ["--x0", "nan,0"], "x0 must be finite, got [nan, 0.0]"),
    ("energy", "slab", ["--h", "0.25", "--radii", "0,1"],
     "energy growth radii must be positive and finite, got 0.0"),
    ("energy", "slab", ["--h", "0.25", "--radii=-1,1"],
     "energy growth radii must be positive and finite, got -1.0"),
    ("energy", "slab", ["--h", "0.25", "--radii=nan"],
     "energy growth radii must be positive and finite, got nan"),
    ("volume-growth", None, ["--model", '{"type":"hyperplane","normal":[0,0,1]}',
                             "--radii=nan,2,3"],
     "volume-growth radii must be positive and finite, got nan"),
    ("identities", None, ["--model", '{"type":"cylinder","m":2,"k":1}', "--samples", "5",
                          "--span", "nan"], "span must be positive and finite, got nan"),
    ("identities", None, ["--model", '{"type":"cylinder","m":2,"k":1}', "--samples", "5",
                          "--span", "inf"], "span must be positive and finite, got inf"),
], ids=["negative-mesh", "zero-mesh", "nan-cutoff", "nan-R", "inf-a", "nan-z", "nan-tol",
        "negative-tol", "negative-h", "nan-x0", "zero-radius", "negative-radius", "nan-radius",
        "nan-volume-radius", "nan-span", "inf-span"])
def test_out_of_range_scalars_are_usage_errors(tmp_path, capsys, slab_config, ball_config,
                                                command, domain, flags, message):
    configs = {"slab": ["--domain", slab_config], "ball": ["--domain", ball_config], None: []}
    out = _out(tmp_path, "bad")
    assert main([command, *configs[domain], *flags, "--output-dir", out]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: {message}\n"
    assert not os.path.exists(out)


def test_identities_count_a_non_finite_residual_as_a_failure(tmp_path, capsys, monkeypatch):
    # Python's max(0.0, nan) keeps 0.0, so a NaN residual used to pass
    nan_report = geo.CylinderIdentityReport(u=1.0, grad_id_residual=math.nan,
                                            laplu_residual=0.0, sqrtu_slack=None)
    monkeypatch.setattr(geo, "cylinder_identities", lambda k, sample: nan_report)
    out = _out(tmp_path, "nan")
    assert main(["identities", "--model", '{"type":"cylinder","m":2,"k":1}', "--samples", "5",
                 "--output-dir", out]) == 2
    assert "cylinder identity residuals exceed their bounds" in capsys.readouterr().err
    assert math.isnan(json.loads(open(os.path.join(out, "report.json")).read())["max_residual"])


def test_verify_shrinker_counts_a_nan_residual_as_a_failure(tmp_path, capsys, monkeypatch):
    # Python's max(0.0, nan) keeps 0.0, so one NaN residual used to exit 0
    real, calls = geo.shrinker_residual, itertools.count()
    monkeypatch.setattr(geo, "shrinker_residual",
                        lambda s: real(s) * (math.nan if next(calls) == 2 else 1.0))
    out = _out(tmp_path, "nan")
    assert main(["verify-shrinker", "--model", '{"type":"sphere","m":2}', "--samples", "5",
                 "--output-dir", out]) == 2
    assert "shrinker residual nan exceeds 1e-9" in capsys.readouterr().err
    assert math.isnan(json.loads(open(os.path.join(out, "report.json")).read())["max_residual"])


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
    # the graph has no point at |z| = 0.5: that norm is skipped and flagged
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"case": "gaussian-graph", "b": 0.4,
                                "norms": [0.5, 2, 3, 4, 5, 6, 8]}))
    out3 = _out(tmp_path, "sep3")
    assert main(["separation", "--config", str(path), "--output-dir", out3]) == 0
    rep3 = json.loads(open(os.path.join(out3, "report.json")).read())
    assert rep3["truncated"] is True and rep2["truncated"] is False
    assert rep3["ratios"] == rep2["ratios"] and rep3["passes"] is False


_CSV_CASES = {
    "volume": (["volume-growth", "--model", '{"type":"sphere","m":2}', "--radii", "2,3,4,5,6"],
               "volume.csv", "R,area",
               lambda rep: [[r, geo.Sphere(m=2).clipped_area(r)] for r in rep["radii"]]),
    "energy": (["energy", "--domain", "SLAB", "--h", "0.0625", "--radii", "1,2,4"],
               "growth.csv", "R,value",
               lambda rep: [[e["R"], e["value"]] for e in rep["energy"]["growth_profile"]]),
    **{case: (["separation", "--case", case, "--b", repr(b)], "separation.csv", "z_norm,ratio",
              lambda rep: rep["ratios"]) for case, (_, b, _) in br.SEPARATION_CASES.items()},
}


@pytest.mark.parametrize("case", list(_CSV_CASES))
def test_csv_rows_read_back_to_the_report(tmp_path, slab_config, case):
    # the CSV is written by the CLI from the report's own fields, bit for bit
    argv, name, header, expected = _CSV_CASES[case]
    out = _out(tmp_path, case)
    assert main([slab_config if a == "SLAB" else a for a in argv] + ["--output-dir", out]) == 0
    lines = open(os.path.join(out, name)).read().splitlines()
    rows = [[float(v).hex() for v in line.split(",")] for line in lines[1:]]
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert lines[0] == header and len(rows) > 0
    assert rows == [[float(v).hex() for v in row] for row in expected(report)]


def test_separation_cases_are_one_table(monkeypatch):
    assert COMMANDS["separation"][1]["--case"]["choices"] == sorted(br.SEPARATION_CASES)
    ran = []
    for case, (sigma2, b, expected) in list(br.SEPARATION_CASES.items()):
        monkeypatch.setitem(br.SEPARATION_CASES, case, (
            lambda case=case, sigma2=sigma2: ran.append(case) or sigma2(), b, expected))
    passed, _ = acc.criterion_12_separation()
    assert passed and ran == list(br.SEPARATION_CASES)


def test_acceptance_subset(tmp_path):
    out = _out(tmp_path, "acc")
    assert main(["acceptance", "--criteria", "3,12", "--output-dir", out]) == 0
    rep = json.loads(open(os.path.join(out, "report.json")).read())
    assert rep["all_passed"] is True
    assert [c["index"] for c in rep["criteria"]] == [3, 12]
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert sorted(meta["criterion_wall_s"]) == ["12", "3"]
    assert all(t >= 0.0 for t in meta["criterion_wall_s"].values())
    assert "runtime" not in open(os.path.join(out, "report.json")).read()


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--h", "0.25"]),
    ("mc", ["--x0", "0,0", "--n-paths", "10"]),
    ("reilly", ["--mesh-h", "0.25"]),
])
@pytest.mark.parametrize("radius", ["NaN", "Infinity"])
def test_non_finite_exhaustion_radius_is_a_usage_error(tmp_path, capsys, command, flags, radius):
    # JSON as Python writes and reads it: NaN and Infinity are numbers
    path = tmp_path / "domain.json"
    path.write_text(f'{{"kind": "slab", "h1": -1, "h2": 1, "radius": {radius}}}')
    out = _out(tmp_path, command)
    assert main([command, "--domain", str(path), *flags, "--output-dir", out]) == 1
    assert capsys.readouterr().err == ("usage error: exhaustion radius must be positive and "
                                       f"finite, got {float(radius)!r}\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("criteria", ["13", "0", "3,13"])
def test_unknown_acceptance_criterion_is_a_usage_error(tmp_path, capsys, criteria):
    out = _out(tmp_path, "acc")
    assert main(["acceptance", "--criteria", criteria, "--output-dir", out]) == 1
    bad = criteria.split(",")[-1]
    assert f"usage error: unknown acceptance criterion {bad}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_zero_flags_reach_the_library_checks(tmp_path, capsys, ball_config):
    # 0 is a value, not an absent flag: it must not select every k or phi = 1
    assert main(["identities", "--model", '{"type":"cylinder","m":2,"k":1}', "--k", "0",
                 "--samples", "5", "--output-dir", _out(tmp_path, "k0")]) == 1
    assert "usage error: need 1 <= k" in capsys.readouterr().err
    assert main(["reilly", "--domain", ball_config, "--mesh-h", "0.25", "--cutoff-radius", "0",
                 "--output-dir", _out(tmp_path, "cut0")]) == 1
    assert "usage error: cutoff radius must be positive" in capsys.readouterr().err
