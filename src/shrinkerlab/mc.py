"""Hitting probabilities of the Ornstein-Uhlenbeck diffusion.

The process dX = -X dt + sqrt(2) dW has the weighted Laplacian as generator,
so the probability of reaching the sigma2 boundary before sigma1 solves the
0/1 Dirichlet problem; this module estimates it by Euler-Maruyama paths and
cross-validates the PDE solver.

Reproducibility: path i draws from a Philox counter-based stream keyed by
(seed, i), so results are bit-identical regardless of execution order, and
the hit-count reduction is plain integer addition.

First-crossing detection is the per-step sign test with a snap band of
width 0.5826 sqrt(2 dt) (Broadie-Glasserman-Kou), which corrects the
O(sqrt(dt)) discrete-monitoring bias to leading order; `bias_study`
quantifies what remains.  There is no Brownian-bridge crossing test.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["McConfig", "McEstimate", "ou_hitting_probability", "bias_study"]

_CHUNK = 1024

# discrete-monitoring constant -zeta(1/2)/sqrt(2 pi): per-step crossings are
# only observed at step ends, which shifts the effective boundary outward by
# BETA * (step noise std); a snap band of the same width cancels the shift
# to leading order in sqrt(dt)
_BETA_MONITORING = 0.5825971579390107


def _chunk_powers(alpha, steps, cache={}):
    key = (alpha, steps)
    if key not in cache:
        cache[key] = (alpha ** -np.arange(1, steps + 1),
                      alpha ** np.arange(1, steps + 1))
    return cache[key]


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    dt: float = 1e-3
    seed: int = 20240801
    max_time: float = 50.0
    boundary_snap: float = None

    def __post_init__(self):
        if self.n_paths < 100:
            raise ParameterError("need at least 100 paths for a meaningful estimate")
        if not 0 < self.dt <= 1e-2:
            raise ParameterError("dt must be positive and at most 1e-2")
        if self.max_time <= 0:
            raise ParameterError("max_time must be positive")
        snap = self.boundary_snap
        if snap is None:
            snap = _BETA_MONITORING * math.sqrt(2.0 * self.dt)
            object.__setattr__(self, "boundary_snap", snap)
        if snap < 0.1 * math.sqrt(self.dt):
            raise ParameterError(
                "boundary_snap below 0.1 sqrt(dt): crossings would slip through "
                "entire steps; widen the band or shrink dt")


@dataclass
class McEstimate:
    p_hat: float
    stderr: float
    hits_sigma1: int
    hits_sigma2: int
    truncated: int
    mean_exit_time: float
    truncation_warning: bool = False

    def to_json(self):
        return {"p_hat": self.p_hat, "stderr": self.stderr,
                "hits_sigma1": self.hits_sigma1, "hits_sigma2": self.hits_sigma2,
                "truncated": self.truncated, "mean_exit_time": self.mean_exit_time,
                "truncation_warning": self.truncation_warning}


def _run_path(x0, depth1, depth2, cfg, rng):
    """Simulate one path; returns (label, exit_time) with label in {1, 2, 0}."""
    dt = cfg.dt
    alpha = 1.0 - dt
    sigma = math.sqrt(2.0 * dt)
    snap = cfg.boundary_snap
    n = x0.size
    max_steps = int(math.ceil(cfg.max_time / dt))
    x = x0
    done = 0
    while done < max_steps:
        steps = min(_CHUNK, max_steps - done)
        xi = rng.standard_normal((steps, n))
        # X_j = alpha^j (x + sigma * sum_{l<=j} alpha^-l xi_l), computed stably
        inv_pows, pows = _chunk_powers(alpha, steps)
        prefix = np.cumsum(xi * inv_pows[:, None], axis=0)
        positions = pows[:, None] * (x[None, :] + sigma * prefix)

        d1 = depth1(positions)
        d2 = depth2(positions)
        hit1 = d1 <= snap
        hit2 = d2 <= snap
        any_hit = hit1 | hit2
        if np.any(any_hit):
            j = int(np.argmax(any_hit))
            t_exit = (done + j + 1) * dt
            if hit1[j] and hit2[j]:
                label = 1 if d1[j] <= d2[j] else 2
            else:
                label = 1 if hit1[j] else 2
            return label, t_exit
        x = positions[-1]
        done += steps
    return 0, cfg.max_time


def ou_hitting_probability(x0, domain, cfg, trace=None):
    """Fraction of OU paths from x0 reaching sigma2 before sigma1.

    Paths exceeding max_time count as truncated and are excluded from the
    effective sample; a truncation fraction above 10% sets a warning flag.
    `trace`, if a list, receives (path_index, exit_time, exit_label) tuples.
    """
    x0 = np.asarray(x0, dtype=float)
    if domain.sigma2 is None:
        raise ParameterError("hitting probabilities need both boundary pieces")
    ob1, ob2 = domain.sigma1, domain.sigma2
    if not (ob1.depth(x0) > cfg.boundary_snap and ob2.depth(x0) > cfg.boundary_snap):
        raise ParameterError("start point must lie strictly inside the domain")

    def depth1(P):
        return np.asarray(ob1.depth(P), dtype=float)

    def depth2(P):
        return np.asarray(ob2.depth(P), dtype=float)

    hits1 = hits2 = truncated = 0
    exit_time_sum = 0.0
    for i in range(cfg.n_paths):
        rng = np.random.Generator(np.random.Philox(key=np.array(
            [cfg.seed, i], dtype=np.uint64)))
        label, t_exit = _run_path(x0, depth1, depth2, cfg, rng)
        if label == 1:
            hits1 += 1
            exit_time_sum += t_exit
        elif label == 2:
            hits2 += 1
            exit_time_sum += t_exit
        else:
            truncated += 1
        if trace is not None:
            trace.append((i, t_exit, {0: "truncated", 1: "sigma1", 2: "sigma2"}[label]))

    n_eff = hits1 + hits2
    if n_eff == 0:
        raise ParameterError("every path truncated; enlarge max_time")
    p_hat = hits2 / n_eff
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n_eff)
    frac_trunc = truncated / cfg.n_paths
    if frac_trunc > 0.10:
        warnings.warn(f"{100 * frac_trunc:.1f}% of paths truncated at max_time",
                      RuntimeWarning, stacklevel=2)
    return McEstimate(p_hat=p_hat, stderr=stderr, hits_sigma1=hits1,
                      hits_sigma2=hits2, truncated=truncated,
                      mean_exit_time=exit_time_sum / n_eff,
                      truncation_warning=frac_trunc > 0.10)


def bias_study(x0, domain, reference_value, n_paths, dts, seed=20240801):
    """|p_hat - reference| across a dt ladder; quantifies the crossing bias.

    The naive detector exits early by O(sqrt(dt)); entries report the
    discrepancy and its sigma multiple so the trend is visible.
    """
    rows = []
    for dt in dts:
        cfg = McConfig(n_paths=n_paths, dt=dt, seed=seed)
        est = ou_hitting_probability(x0, domain, cfg)
        gap = abs(est.p_hat - reference_value)
        rows.append({"dt": dt, "p_hat": est.p_hat, "gap": gap,
                     "stderr": est.stderr,
                     "gap_in_sigmas": gap / est.stderr if est.stderr > 0 else math.inf})
    return rows
