"""Weighted Dirichlet energy, its growth in balls, and the Caccioppoli bound.

For a solution with boundary data 0/1 the weighted energy is controlled by
twice the weighted boundary flux through the data-1 piece; exact 1D solutions
saturate exactly half of that bound.  Finite-energy solutions also have
energy-growth profiles (1/R^2) * energy-in-B_R that decay to zero.
"""

from shrinkerlab import domain as dm
from shrinkerlab import energy as en
from shrinkerlab import solver as sv

slab = sv.solve_slab(-1, 1, ambient_dim=2)
rad = sv.solve_radial(0.5, 2.0, 2)

print("== profile energies (closed forms c / F(hi), exact tangential mass)")
print(f"  slab(-1,1):    E = {en.dirichlet_energy(slab):.12f}")
print(f"  annulus(.5,2): E = {en.dirichlet_energy(rad):.12f}")

print("\n== growth profiles (1/R^2) int_{B_R} |grad u|^2 dv_f")
for name, sol in (("slab", slab), ("annulus", rad)):
    entries = en.energy_growth_profile(sol, [2, 4, 8])
    row = "  ".join(f"R={e.R}: {e.value:.5f}" for e in entries)
    print(f"  {name:8s} {row}")

print("\n== Caccioppoli inequality: energy <= 2 x boundary flux")
for name, sol in (("slab profile", slab), ("annulus profile", rad)):
    rep = en.caccioppoli_check(sol, None)
    print(f"  {name:16s} lhs = {rep.lhs:.6f}  rhs = {rep.rhs:.6f}  "
          f"lhs/rhs = {rep.lhs / rep.rhs:.4f}  satisfied = {rep.satisfied}")

print("\n== the same bookkeeping on grid solutions")
slab_dom = dm.slab_domain(-1, 1, ambient_dim=2, radius=5.0)
ann_dom = dm.annulus_domain(0.5, 2.0, ambient_dim=2)
for name, dom in (("slab", slab_dom), ("annulus", ann_dom)):
    sol = sv.solve_mixed_bvp(dom, h=1 / 32, tol=1e-11)
    rep = en.energy_report(sol, dom, [1, 2, 4])
    print(f"  {name:8s} E = {rep.total_energy:.6f}  "
          f"flux = {rep.boundary_flux:.6f}  "
          f"Caccioppoli lhs/rhs = {rep.caccioppoli_lhs / rep.caccioppoli_rhs:.4f}  "
          f"tail sup estimate = {rep.tail_sup_estimate:.5f}")
