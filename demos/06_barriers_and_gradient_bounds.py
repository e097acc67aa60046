"""Exterior-sphere barriers, the boundary gradient bound, and separation checks.

The barrier profile psi runs from 0 to 1 across a shell of width a outside a
tangent ball of radius R; composed with the distance to the ball it is
weighted-superharmonic, which pins the boundary gradient of any 0/1 solution
under (R+1)^m/R^m * e^|z| / dist.  The clamped distance quotients provide
Lipschitz competitors whose energy dominates the minimizer's, and the
separation heuristic classifies how fast two surfaces may approach at
infinity.
"""

import math

import numpy as np

from shrinkerlab import barrier as br
from shrinkerlab import domain as dm
from shrinkerlab import energy as en
from shrinkerlab import geometry as geo
from shrinkerlab import solver as sv

print("== barrier profile at (R, a, m, |z|) = (1, 1, 2, 0)")
params = br.BarrierParams(R=1.0, a=1.0, m=2, z_norm=0.0)
res = br.build_psi(params)
print(f"  psi(0) = {res.psi(0.0)}, psi(a) = {res.psi(1.0)}")
print(f"  psi'(0) = {res.psi_prime_0:.9f} <= rough bound {res.rough_bound}")
print(f"  supersolution max violation over 500 shell points: "
      f"{br.supersolution_check(params, 500):+.2e}")
print(f"  control (linear profile, must violate): "
      f"{br.supersolution_check(params, 500, profile='linear'):+.2e}")

print("\n== gradient bound vs the annulus solution")
ann = dm.annulus_domain(0.5, 2.0, ambient_dim=2)
sol = sv.solve_mixed_bvp(ann, h=1 / 32, tol=1e-11)
mids, _, _ = en.interface_segments(sol, "sigma2")
_, dudnu = en.normal_derivative(sol, ann, "sigma2", mids)
grad_max = float(np.max(np.abs(dudnu)))
bound = br.estimate_gradient(2.0, R=2.0, dist_to_sigma1=1.5, m=1)
print(f"  measured max |grad u| on the outer circle: {grad_max:.4f}")
print(f"  barrier bound (tangency norm 2, R = 2):    {bound:.4f}")

print("\n== Lipschitz competitors dominate the minimizer")
psi_proj = br.lipschitz_barrier("projection", ann)
e_u = en.dirichlet_energy(sv.solve_radial(0.5, 2.0, 2))
e_psi = en.energy_of_field(psi_proj, ann, resolution=1 / 128)
print(f"  annulus: E(minimizer) = {e_u:.6f} <= E(Psi) = {e_psi:.6f}")
print(f"  measured Lipschitz constant of Psi: "
      f"{br.measured_lipschitz(psi_proj, ann):.4f}")

print("\n== separation heuristic (finite-sample, not a liminf)")
plane = geo.Hyperplane(normal=(0, 0, 1.0))
cases = [
    ("plane vs cylinder, b = 0", br.SeparationHypothesis(b=0.0),
     geo.Cylinder(k=1, m=2)),
    ("parallel planes, b = 0.3", br.SeparationHypothesis(b=0.3),
     geo.Hyperplane(normal=(0, 0, 1.0), offset=1.0)),
    ("Gaussian graph, b = 0.4", br.SeparationHypothesis(b=0.4),
     br.GraphSurface(height=lambda r: math.exp(-r * r), ambient_dim=3)),
]
for label, hyp, sigma2 in cases:
    rep = br.separation_check(hyp, plane, sigma2, [2, 3, 4, 5, 6, 8])
    tail = ", ".join(f"{r:.2e}" for _, r in rep.ratios[-2:])
    print(f"  {label:28s} -> {'passes' if rep.passes else 'fails'} "
          f"(tail ratios {tail})")
