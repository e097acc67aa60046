import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest

from shrinkerlab import domain as dm
from shrinkerlab import mc
from shrinkerlab.errors import ParameterError
from shrinkerlab.quadrature import gauss_legendre

N_FAST = 4000


def test_config_validation():
    with pytest.raises(ParameterError):
        mc.McConfig(n_paths=50)
    with pytest.raises(ParameterError):
        mc.McConfig(n_paths=500, dt=0.1)
    with pytest.raises(ParameterError):
        mc.McConfig(n_paths=500, max_time=0.0)
    for seed in (-1, 2.0, True, "7"):
        with pytest.raises(ParameterError, match="seed"):
            mc.McConfig(n_paths=500, seed=seed)


@pytest.mark.parametrize("max_time", [math.nan, math.inf, -1.0])
def test_max_time_must_be_positive_and_finite(max_time):
    # NaN used to fail later, inside a worker, in math.ceil(max_time / dt)
    with pytest.raises(ParameterError,
                       match=re.escape(f"max_time must be positive and finite, got {max_time}")):
        mc.McConfig(n_paths=500, max_time=max_time)


def test_symmetric_slab_start(slab_dom):
    cfg = mc.McConfig(n_paths=N_FAST, dt=1e-3, seed=11)
    est = mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom, cfg)
    assert abs(est.p_hat - 0.5) <= 3.0 * est.stderr
    assert est.hits_sigma1 + est.hits_sigma2 + est.truncated == cfg.n_paths


def test_matches_slab_closed_form(slab_dom, slab_profile):
    cfg = mc.McConfig(n_paths=N_FAST, dt=1e-3, seed=12)
    x0 = np.array([0.0, 0.5])
    est = mc.ou_hitting_probability(x0, slab_dom, cfg)
    assert abs(est.p_hat - slab_profile.profile(x0)) <= 3.0 * est.stderr


def test_matches_radial_closed_form(annulus_dom, radial_profile):
    cfg = mc.McConfig(n_paths=N_FAST, dt=1e-3, seed=13)
    x0 = np.array([1.0, 0.0])
    est = mc.ou_hitting_probability(x0, annulus_dom, cfg)
    assert abs(est.p_hat - radial_profile.profile(x0)) <= 3.0 * est.stderr


def test_bit_identical_reruns(slab_dom):
    cfg = mc.McConfig(n_paths=600, dt=2e-3, seed=99)
    a = mc.ou_hitting_probability(np.array([0.0, 0.2]), slab_dom, cfg)
    b = mc.ou_hitting_probability(np.array([0.0, 0.2]), slab_dom, cfg)
    assert (a.hits_sigma1, a.hits_sigma2, a.truncated) == \
           (b.hits_sigma1, b.hits_sigma2, b.truncated)
    assert a.mean_exit_time == b.mean_exit_time


def test_start_point_must_be_interior(slab_dom):
    cfg = mc.McConfig(n_paths=200, dt=1e-3)
    with pytest.raises(ParameterError):
        mc.ou_hitting_probability(np.array([0.0, 1.5]), slab_dom, cfg)
    with pytest.raises(ParameterError):
        mc.ou_hitting_probability(np.array([0.0, 1.0]), slab_dom, cfg)


def test_start_point_must_match_the_domain_dimension(slab_dom, annulus_dom):
    # on the slab the depth reads one column, so a 3D start point would
    # otherwise run a walk in the wrong space without complaint
    cfg = mc.McConfig(n_paths=200, dt=1e-3)
    for dom in (slab_dom, annulus_dom):
        with pytest.raises(ParameterError, match="x0"):
            mc.ou_hitting_probability(np.array([1.0, 0.0, 0.0]), dom, cfg)


@pytest.mark.parametrize("domain, x0, counts, quantiles", [
    ("slab", (0.0, 0.3), (237, 363, 0), (0.3595, 1.0872000000000004, 2.403389999999999)),
    ("annulus", (1.0, 0.0), (423, 177, 0), (0.2095, 0.5935000000000001, 1.1873299999999998)),
])
def test_pinned_small_estimates(domain, x0, counts, quantiles, slab_dom, annulus_dom):
    # the block streams and the chunk arithmetic fix these numbers, so a
    # kernel change cannot alter the streams unnoticed
    dom = {"slab": slab_dom, "annulus": annulus_dom}[domain]
    est = mc.ou_hitting_probability(np.array(x0), dom,
                                    mc.McConfig(n_paths=600, dt=1e-3, seed=20240801))
    assert (est.hits_sigma1, est.hits_sigma2, est.truncated) == counts
    assert (est.exit_time_q50, est.exit_time_q90, est.exit_time_q99) == quantiles


def test_truncation_warning(slab_dom):
    cfg = mc.McConfig(n_paths=200, dt=1e-3, seed=5, max_time=0.25)
    with pytest.warns(RuntimeWarning, match="truncated"):
        est = mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom, cfg)
    assert est.truncation_warning
    assert est.truncated > 0
    # fully truncated runs are a hard error, not a silent zero
    dead = mc.McConfig(n_paths=200, dt=1e-3, seed=5, max_time=0.02)
    with pytest.raises(ParameterError, match="truncated"):
        mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom, dead)


def test_few_truncations_raise_no_warning(slab_dom):
    # 8 of 200 paths run past max_time: some truncation, under the 10% flag
    cfg = mc.McConfig(n_paths=200, dt=1e-3, seed=5, max_time=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom, cfg)
    assert 0 < est.truncated <= 0.1 * cfg.n_paths
    assert not est.truncation_warning


def test_mean_exit_decreases_toward_boundary(slab_dom):
    cfg = mc.McConfig(n_paths=N_FAST, dt=1e-3, seed=21)
    center = mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom, cfg)
    near = mc.ou_hitting_probability(np.array([0.0, 0.85]), slab_dom, cfg)
    assert near.mean_exit_time < center.mean_exit_time
    assert math.isfinite(center.mean_exit_time)


def test_trace_capture(slab_dom):
    cfg = mc.McConfig(n_paths=150, dt=2e-3, seed=3)
    trace = []
    mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom, cfg, trace=trace)
    assert len(trace) == 150
    assert [i for i, _, _ in trace] == list(range(150))
    assert {label for _, _, label in trace} <= {"sigma1", "sigma2", "truncated"}


def test_full_block_ignores_later_blocks(slab_dom):
    # a full block of 4,096 paths draws from its own keyed stream, so adding
    # a second, partial block leaves its paths untouched
    x0 = np.array([0.0, 0.3])
    full, longer = [], []
    mc.ou_hitting_probability(x0, slab_dom, mc.McConfig(n_paths=4096, dt=1e-2, seed=4),
                              trace=full)
    mc.ou_hitting_probability(x0, slab_dom, mc.McConfig(n_paths=4133, dt=1e-2, seed=4),
                              trace=longer)
    assert len(longer) == 4133
    assert longer[:4096] == full


def test_estimate_does_not_depend_on_the_worker_count(slab_dom, monkeypatch):
    # three keyed blocks, run in turn on one thread, on two, and on more
    # threads than blocks switching as often as possible
    cfg = mc.McConfig(n_paths=2 * 4096 + 300, dt=1e-2, seed=8)
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            monkeypatch.setattr("shrinkerlab.fields._WORKERS", workers)
            runs.append(mc.ou_hitting_probability(np.array([0.0, 0.3]), slab_dom, cfg))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].hits_sigma1 + runs[0].hits_sigma2 + runs[0].truncated == cfg.n_paths


@pytest.mark.parametrize("domain, x0", [("slab", (0.0, 0.5)), ("annulus", (1.0, 0.0))])
def test_bridge_removes_coarse_step_bias(domain, x0, slab_dom, annulus_dom,
                                         slab_profile, radial_profile):
    # a plain sign test at dt = 1e-2 misses crossings inside steps and is
    # off by about 5 sigma at 20,000 paths; the bridge test is not
    dom, profile = {"slab": (slab_dom, slab_profile),
                    "annulus": (annulus_dom, radial_profile)}[domain]
    x0 = np.array(x0)
    est = mc.ou_hitting_probability(x0, dom, mc.McConfig(n_paths=20_000, dt=1e-2))
    assert abs(est.p_hat - profile.profile(x0)) <= 3.0 * est.stderr


def test_bridge_splits_a_step_near_both_pieces():
    # one step of dt = 1e-2 from the middle of a slab of width 0.3: a path
    # that ends inside crosses sigma1 with probability p1 = exp(-d0 d1 / dt)
    # and sigma2 with probability p2, both from one uniform, so sigma2 takes
    # min(p2, 1 - p1)
    dom = dm.slab_domain(-0.15, 0.15, ambient_dim=2, radius=3.0)
    pieces = (dom.sigma1, dom.sigma2)
    dt, n = 1e-2, 20_000
    decay = math.exp(-dt)
    d0 = np.full((2, n), 0.15)
    retired, _, label, _, d1 = mc._chunk(
        np.zeros((n, 2)), d0, pieces, np.array([math.sqrt(-math.expm1(-2.0 * dt)) / decay]),
        np.array([decay]), dt, np.random.Generator(np.random.SFC64(7)))
    inside = np.all(d1 > 0.0, axis=0)
    p1, p2 = np.exp(-d0 * d1 / dt)[:, inside]
    for hits, q in ((retired[label == 1], p1), (retired[label == 2], np.minimum(p2, 1.0 - p1))):
        observed = np.count_nonzero(inside[hits])
        assert abs(observed - q.sum()) <= 3.0 * math.sqrt(np.sum(q * (1.0 - q)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_thin_slab_matches_its_closed_form_at_a_coarse_step(seed):
    # every step near one piece lies near the other too; a sigma2 share of
    # (1 - p1) p2 a step read up to 4.5 sigma low here
    dom = dm.slab_domain(-0.15, 0.15, ambient_dim=2)
    cfg = mc.McConfig(n_paths=20_000, dt=1e-2, seed=seed)
    for x0 in (np.array([0.0, 0.0]), np.array([0.0, 0.05])):
        est = mc.ou_hitting_probability(x0, dom, cfg)
        assert abs(est.p_hat - dom.closed_form(x0)) <= 3.0 * est.stderr


def test_exit_time_quantiles(slab_dom):
    cfg = mc.McConfig(n_paths=500, dt=1e-3, seed=6)
    trace = []
    est = mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom, cfg, trace=trace)
    times = [t for _, t, label in trace if label != "truncated"]
    assert (est.exit_time_q50, est.exit_time_q90, est.exit_time_q99) == \
        tuple(np.quantile(times, [0.5, 0.9, 0.99]))
    assert 0 < est.exit_time_q50 <= est.exit_time_q90 <= est.exit_time_q99
    assert {"exit_time_q50", "exit_time_q90", "exit_time_q99"} <= set(dataclasses.asdict(est))


def _slab_mean_exit_time(t):
    """Mean exit time of the OU process from the slab (-1, 1) at height t:
    T(t) = int_|t|^1 e^(s^2/2) int_0^s e^(-r^2/2) dr ds, the solution of
    T'' - t T' = -1 with T(+-1) = 0."""
    s, w = gauss_legendre(64, abs(t), 1.0)
    inner = math.sqrt(math.pi / 2.0) * np.array([math.erf(v / math.sqrt(2.0)) for v in s])
    return float(np.sum(w * np.exp(0.5 * s * s) * inner))


def _annulus_mean_exit_time(r, a=0.5, b=2.0):
    """Mean exit time of the 2D OU process from the annulus a < |x| < b at
    radius r: T(r) = int_a^r (C - W(s)) / w(s) ds with w(s) = s e^(-s^2/2),
    W(s) = e^(-a^2/2) - e^(-s^2/2) and C = int_a^b W/w / int_a^b 1/w, the
    solution of (w T')' = -w with T(a) = T(b) = 0."""
    def w(s):
        return s * np.exp(-0.5 * s * s)

    def big_w(s):
        return math.exp(-0.5 * a * a) - np.exp(-0.5 * s * s)

    s, q = gauss_legendre(64, a, b)
    c = np.sum(q * big_w(s) / w(s)) / np.sum(q / w(s))
    s, q = gauss_legendre(64, a, r)
    return float(np.sum(q * (c - big_w(s)) / w(s)))


@pytest.mark.parametrize("domain, x0", [
    ("slab", (0.0, 0.0)), ("slab", (0.0, 0.5)), ("slab", (0.0, -0.5)),
    ("annulus", (0.8, 0.0)), ("annulus", (1.0, 0.0)), ("annulus", (1.5, 0.0)),
], ids=["0.0", "0.5", "-0.5", "annulus-0.8", "annulus-1.0", "annulus-1.5"])
def test_mean_exit_time_matches_its_closed_form(slab_dom, annulus_dom, domain, x0):
    # within 3 sigma, sigma the standard error of the per-path exit times
    if domain == "slab":
        dom, closed_form = slab_dom, _slab_mean_exit_time(x0[1])
    else:
        dom, closed_form = annulus_dom, _annulus_mean_exit_time(x0[0])
    trace = []
    est = mc.ou_hitting_probability(np.array(x0), dom, mc.McConfig(n_paths=20_000, seed=3),
                                    trace=trace)
    times = np.array([t for _, t, label in trace if label != "truncated"])
    sigma = np.std(times, ddof=1) / math.sqrt(times.size)
    assert abs(est.mean_exit_time - closed_form) <= 3.0 * sigma


def test_bias_study_reports_gap_ladder(slab_dom, slab_profile):
    x0 = np.array([0.0, 0.5])
    ref = slab_profile.profile(x0)
    rows = mc.bias_study(x0, slab_dom, ref, n_paths=2000, dts=[4e-3, 1e-3], seed=8)
    assert [r["dt"] for r in rows] == [4e-3, 1e-3]
    for r in rows:
        # documented allowance: 3 sigma plus an O(sqrt(dt)) detector bias
        assert r["gap"] <= 3.0 * r["stderr"] + 1.0 * math.sqrt(r["dt"])


def test_bias_study_is_flat_in_dt(slab_dom, slab_profile):
    # the bridge-corrected scheme has an O(dt) bias (Gobet, SPA 2000); over
    # this ladder it must stay inside 2 sigma of the closed form at every rung
    x0 = np.array([0.0, 0.5])
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    rows = mc.bias_study(x0, slab_dom, slab_profile.profile(x0), n_paths=20_000, dts=dts,
                         seed=20240801)
    assert [r["dt"] for r in rows] == dts
    assert all(r["gap_in_sigmas"] <= 2.0 for r in rows), rows


def test_path_count_must_be_an_integer():
    # 1000.5 paths raised numpy's TypeError inside a worker
    for n_paths in (1000.5, 1000.0, True):
        with pytest.raises(ParameterError, match=f"n_paths must be an integer, got {n_paths}"):
            mc.McConfig(n_paths=n_paths)


def test_start_point_must_be_finite(slab_dom):
    # the slab's depths read only x2, so NaN in x1 gave p_hat = 0.5
    with pytest.raises(ParameterError, match=re.escape("x0 must be finite, got [nan, 0.0]")):
        mc.ou_hitting_probability(np.array([math.nan, 0.0]), slab_dom, mc.McConfig(n_paths=200))
