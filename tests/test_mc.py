import math
import sys

import numpy as np
import pytest

from shrinkerlab import mc
from shrinkerlab.errors import ParameterError

N_FAST = 4000


def test_config_validation():
    with pytest.raises(ParameterError):
        mc.McConfig(n_paths=50)
    with pytest.raises(ParameterError):
        mc.McConfig(n_paths=500, dt=0.1)
    with pytest.raises(ParameterError):
        mc.McConfig(n_paths=500, max_time=0.0)


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


def test_exit_time_quantiles(slab_dom):
    cfg = mc.McConfig(n_paths=500, dt=1e-3, seed=6)
    trace = []
    est = mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom, cfg, trace=trace)
    times = [t for _, t, label in trace if label != "truncated"]
    assert (est.exit_time_q50, est.exit_time_q90, est.exit_time_q99) == \
        tuple(np.quantile(times, [0.5, 0.9, 0.99]))
    assert 0 < est.exit_time_q50 <= est.exit_time_q90 <= est.exit_time_q99
    assert {"exit_time_q50", "exit_time_q90", "exit_time_q99"} <= set(est.to_json())


def test_bias_study_reports_gap_ladder(slab_dom, slab_profile):
    x0 = np.array([0.0, 0.5])
    ref = slab_profile.profile(x0)
    rows = mc.bias_study(x0, slab_dom, ref, n_paths=2000, dts=[4e-3, 1e-3], seed=8)
    assert [r["dt"] for r in rows] == [4e-3, 1e-3]
    for r in rows:
        # documented allowance: 3 sigma plus an O(sqrt(dt)) detector bias
        assert r["gap"] <= 3.0 * r["stderr"] + 1.0 * math.sqrt(r["dt"])
