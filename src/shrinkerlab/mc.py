"""Hitting probabilities of the Ornstein-Uhlenbeck diffusion.

The process dX = -X dt + sqrt(2) dW has the weighted Laplacian as generator,
so the probability of reaching the sigma2 boundary before sigma1 solves the
0/1 Dirichlet problem; this module estimates it by simulated paths and
cross-validates the PDE solver.

Paths advance together in blocks of 4,096 with the exact OU transition
X' = e^-dt X + sqrt(1 - e^-2dt) Z, in chunks of 64 steps; normals are drawn
only for live paths, and a path retires at its first hit.

Reproducibility: block b draws from its own SFC64 stream, seeded by
`SeedSequence((seed, b))`, so a path's result depends only on its block.
SFC64 is chosen for speed: numpy draws normals from it faster than from
Philox or PCG64.  The blocks run through `fields.ordered_map` on
os.cpu_count() threads and are reduced in block order, so reruns are
bit-identical for any worker count.

First-crossing detection is the Brownian-bridge test (Gobet, SPA 2000): a
step whose end lies outside a piece has hit it, and a step that starts and
ends at depths d0, d1 > 0 has crossed it in between with probability
exp(-d0 d1 / dt), decided by a uniform from the block's stream wherever that
probability is not negligible.  A step near both pieces draws one uniform
u: sigma1 is crossed when u < p1, sigma2 when p1 <= u < p1 + p2.  This
removes the O(sqrt(dt)) discrete-monitoring bias of a plain sign test;
`bias_study` quantifies what remains.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_positive
from .fields import ordered_map

__all__ = ["McConfig", "McEstimate", "ou_hitting_probability", "bias_study"]

_BLOCK = 4096           # paths per keyed stream
_CHUNK = 64             # steps per vectorised advance
_WIDE = 512             # row width from which the prefix sum goes row by row
_NEGLIGIBLE = 40.0      # d0 d1 / dt beyond which exp(-d0 d1 / dt) < 5e-18
_LABELS = {0: "truncated", 1: "sigma1", 2: "sigma2"}


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    dt: float = 1e-3
    seed: int = 20240801
    max_time: float = 50.0

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        if isinstance(self.n_paths, bool) or not isinstance(self.n_paths, (int, np.integer)):
            raise ParameterError(f"n_paths must be an integer, got {self.n_paths!r}")
        if self.n_paths < 100:
            raise ParameterError("need at least 100 paths for a meaningful estimate")
        if not 0 < self.dt <= 1e-2:
            raise ParameterError("dt must be positive and at most 1e-2")
        require_positive("max_time", self.max_time)


@dataclass
class McEstimate:
    p_hat: float
    stderr: float
    hits_sigma1: int
    hits_sigma2: int
    truncated: int
    mean_exit_time: float
    exit_time_q50: float
    exit_time_q90: float
    exit_time_q99: float
    truncation_warning: bool = False


def _chunk(x, d_prev, pieces, grow, shrink, dt, rng):
    """Advance live paths x (depths d_prev) by len(grow) steps.

    grow[j] = noise decay^-(j+1) and shrink[j] = decay^(j+1) are the step
    scales.  Returns (retired, j, label, x_end, d_end): the live indices that
    hit a piece, the 0-based step of each first hit and the piece it hit,
    and the end positions and depths of all live paths.  Its arrays die on
    return, so consecutive chunks never hold two sets at once.
    """
    steps = grow.size
    n, dim = x.shape
    # X_j = decay^j (x + sum_{l<=j} noise decay^-l xi_l), built in place
    pos = rng.standard_normal((steps, n, dim))
    pos *= grow[:, None, None]
    pos[0] += x
    if n * dim < _WIDE:
        np.cumsum(pos, axis=0, out=pos)
    else:                       # the same sums; np.cumsum strides badly here
        for s in range(1, steps):
            pos[s] += pos[s - 1]
    pos *= shrink[:, None, None]
    d = np.empty((2, steps, n))
    for i, piece in enumerate(pieces):
        piece.depth(pos.reshape(-1, dim), out=d[i].reshape(-1))
    x_end = pos[-1].copy()
    del pos                 # free it before the bridge arrays are built

    # a step from depth d0 to d1 is a candidate when d0 d1 < 40 dt for
    # either piece; that holds for every step ending outside, since d0 > 0
    # before a path's first exit
    product = np.empty_like(d)
    np.multiply(d_prev, d[:, 0], out=product[:, 0])
    np.multiply(d[:, :-1], d[:, 1:], out=product[:, 1:])
    product, d = product.reshape(2, -1), d.reshape(2, -1)
    near = product < _NEGLIGIBLE * dt
    cand = np.flatnonzero(near[0] | near[1])        # step-major order
    si, pi = np.divmod(cand, n)
    # each path's first event, coded 2 * step + (piece - 1); a step ending
    # outside takes the piece it ends deeper beyond
    first = np.full(n, 2 * steps)
    d0, d1 = d[:, cand]
    out = (d0 <= 0.0) | (d1 <= 0.0)
    np.minimum.at(first, pi[out], 2 * si[out] + (d0[out] > d1[out]))

    # bridge test on the candidate steps before a path's first end outside:
    # one uniform per step, crossing sigma1 with probability p1 and sigma2
    # with probability min(p2, 1 - p1), since a bridge near both pieces
    # rarely crosses both
    before = si < first[pi] // 2
    cand, si, pi = cand[before], si[before], pi[before]
    p1, p2 = np.exp(-product[:, cand] / dt)
    u = rng.random(cand.size)
    crossed = u < p1 + p2
    np.minimum.at(first, pi[crossed], 2 * si[crossed] + (u[crossed] >= p1[crossed]))

    retired = np.flatnonzero(first < 2 * steps)
    j, piece = np.divmod(first[retired], 2)
    return retired, j, piece + 1, x_end, d[:, -n:]


def _run_block(x0, start_depths, pieces, cfg, rng, n):
    """Walk n paths from x0; returns (labels, exit steps) with labels in {1, 2, 0}.

    A truncated path has label 0 and exit step max_steps.
    """
    max_steps = int(math.ceil(cfg.max_time / cfg.dt))
    decay = math.exp(-cfg.dt)
    k = np.arange(1, _CHUNK + 1)
    grow = math.sqrt(-math.expm1(-2.0 * cfg.dt)) * decay ** -k
    shrink = decay ** k
    labels = np.zeros(n, dtype=np.int8)
    exit_steps = np.full(n, max_steps, dtype=np.int64)
    live = np.arange(n)
    x = np.repeat(x0[None, :], n, axis=0)
    d = np.repeat(start_depths[:, None], n, axis=1)
    done = 0
    while done < max_steps and live.size:
        steps = min(_CHUNK, max_steps - done)
        retired, j, label, x, d = _chunk(x, d, pieces, grow[:steps], shrink[:steps],
                                         cfg.dt, rng)
        labels[live[retired]] = label
        exit_steps[live[retired]] = done + j + 1
        keep = np.ones(live.size, dtype=bool)
        keep[retired] = False
        live = np.compress(keep, live)
        x, d = np.compress(keep, x, axis=0), np.compress(keep, d, axis=1)
        done += steps
    return labels, exit_steps


def ou_hitting_probability(x0, domain, cfg, trace=None):
    """Fraction of OU paths from x0 reaching sigma2 before sigma1.

    Paths exceeding max_time count as truncated and are excluded from the
    effective sample; a truncation fraction above 10% sets a warning flag.
    `trace`, if a list, receives (path_index, exit_time, exit_label) tuples
    in path order; path j of block b has index b * 4096 + j.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (domain.ambient_dim,):
        raise ParameterError(f"x0 must be a point in R^{domain.ambient_dim}, "
                             f"got {x0.size} coordinates")
    if not np.all(np.isfinite(x0)):
        raise ParameterError(f"x0 must be finite, got {x0.tolist()}")
    if domain.sigma2 is None:
        raise ParameterError("hitting probabilities need both boundary pieces")
    pieces = (domain.sigma1, domain.sigma2)
    start_depths = np.array([float(p.depth(x0)) for p in pieces])
    if not np.all(start_depths > 0.0):
        raise ParameterError("start point must lie strictly inside the domain")

    def run(block):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence((cfg.seed, block))))
        return _run_block(x0, start_depths, pieces, cfg, rng,
                          min(_BLOCK, cfg.n_paths - block * _BLOCK))

    blocks = ordered_map(run, range(math.ceil(cfg.n_paths / _BLOCK)))
    labels = np.concatenate([lab for lab, _ in blocks])
    exit_steps = np.concatenate([steps for _, steps in blocks])
    hits1, hits2, truncated = (int(np.count_nonzero(labels == lab)) for lab in (1, 2, 0))
    exit_times = np.where(labels == 0, cfg.max_time, exit_steps * cfg.dt)
    if trace is not None:
        trace.extend(zip(range(cfg.n_paths), exit_times.tolist(),
                         [_LABELS[lab] for lab in labels.tolist()]))

    n_eff = hits1 + hits2
    if n_eff == 0:
        raise ParameterError("every path truncated; enlarge max_time")
    p_hat = hits2 / n_eff
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n_eff)
    frac_trunc = truncated / cfg.n_paths
    if frac_trunc > 0.10:
        warnings.warn(f"{100 * frac_trunc:.1f}% of paths truncated at max_time",
                      RuntimeWarning, stacklevel=2)
    hit = labels != 0
    q50, q90, q99 = (float(q) for q in np.quantile(exit_times[hit], [0.5, 0.9, 0.99]))
    return McEstimate(p_hat=p_hat, stderr=stderr, hits_sigma1=hits1,
                      hits_sigma2=hits2, truncated=truncated,
                      mean_exit_time=int(np.sum(exit_steps[hit])) * cfg.dt / n_eff,
                      exit_time_q50=q50, exit_time_q90=q90, exit_time_q99=q99,
                      truncation_warning=frac_trunc > 0.10)


def bias_study(x0, domain, reference_value, n_paths, dts, seed=20240801):
    """|p_hat - reference| across a dt ladder; quantifies the crossing bias.

    With exact OU steps and the Brownian-bridge crossing test, what remains
    is the O(dt) error of treating each step as a Brownian bridge between
    locally flat pieces; entries report the discrepancy and its sigma
    multiple so any trend in dt is visible.
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
