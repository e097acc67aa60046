"""Monte Carlo cross-validation: OU hitting probabilities vs the PDE solver.

The diffusion dX = -X dt + sqrt(2) dW has the weighted Laplacian as its
generator, so the chance of touching the data-1 boundary before the data-0
one equals the Dirichlet solution.  Paths advance in blocks of 4,096 with
exact OU steps, and each block draws from its own counter-based stream
(Philox keyed by (seed, block)), so every estimate is reproducible bit for
bit.  A Brownian-bridge test catches crossings inside a step, so coarse
steps leave no visible bias.
"""

import numpy as np

from shrinkerlab import domain as dm
from shrinkerlab import mc
from shrinkerlab import solver as sv

slab_dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=6.0)
slab = sv.solve_slab(-1, 1)
cfg = mc.McConfig(n_paths=20000, dt=1e-3, seed=20240801)

print("== slab benchmark, 20k paths")
for s in (-0.5, 0.0, 0.5):
    x0 = np.array([0.0, s])
    est = mc.ou_hitting_probability(x0, slab_dom, cfg)
    ref = slab.profile(x0)
    print(f"  start height {s:+.1f}: p_hat = {est.p_hat:.4f} +- {est.stderr:.4f}   "
          f"closed form {ref:.4f}   gap = {abs(est.p_hat - ref) / est.stderr:.2f} sigma")

print("\n== annulus benchmark")
ann_dom = dm.annulus_domain(0.5, 2.0, ambient_dim=2)
rad = sv.solve_radial(0.5, 2.0, 2)
for r in (0.8, 1.0, 1.5):
    x0 = np.array([r, 0.0])
    est = mc.ou_hitting_probability(x0, ann_dom, cfg)
    ref = rad.profile(x0)
    print(f"  start radius {r:.1f}: p_hat = {est.p_hat:.4f} +- {est.stderr:.4f}   "
          f"closed form {ref:.4f}   gap = {abs(est.p_hat - ref) / est.stderr:.2f} sigma")

print("\n== determinism: same config, same counts")
a = mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom,
                              mc.McConfig(n_paths=2000, dt=1e-3, seed=1))
b = mc.ou_hitting_probability(np.array([0.0, 0.0]), slab_dom,
                              mc.McConfig(n_paths=2000, dt=1e-3, seed=1))
print(f"  hits: {a.hits_sigma1}/{a.hits_sigma2} twice -> "
      f"{(a.hits_sigma1, a.hits_sigma2) == (b.hits_sigma1, b.hits_sigma2)}")

print("\n== time-step ladder: with the bridge test the gap shows no trend in dt")
rows = mc.bias_study(np.array([0.0, 0.5]), slab_dom, slab.profile(np.array([0.0, 0.5])),
                     n_paths=4000, dts=[1e-2, 4e-3, 2e-3, 1e-3])
for r in rows:
    print(f"  dt = {r['dt']:.0e}: p_hat = {r['p_hat']:.4f}  "
          f"gap = {r['gap']:.4f} ({r['gap_in_sigmas']:.2f} sigma)")

print("\n== mean exit times shrink toward the boundary")
for s in (0.0, 0.6, 0.85):
    est = mc.ou_hitting_probability(np.array([0.0, s]), slab_dom,
                                    mc.McConfig(n_paths=4000, dt=1e-3, seed=2))
    print(f"  start height {s:.2f}: mean exit time {est.mean_exit_time:.3f}, "
          f"quantiles 0.5 / 0.9 / 0.99: {est.exit_time_q50:.3f} / "
          f"{est.exit_time_q90:.3f} / {est.exit_time_q99:.3f}")
