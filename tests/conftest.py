import numpy as np
import pytest

from shrinkerlab import domain as dm
from shrinkerlab import solver as sv
from shrinkerlab.fields import GridField


@pytest.fixture(scope="session")
def slab_profile():
    return sv.solve_slab(-1, 1, ambient_dim=2)


@pytest.fixture(scope="session")
def radial_profile():
    return sv.solve_radial(0.5, 2, 2)


@pytest.fixture(scope="session")
def slab_dom():
    return dm.slab_domain(-1, 1, ambient_dim=2, radius=5.0)


@pytest.fixture(scope="session")
def annulus_dom():
    return dm.annulus_domain(0.5, 2.0, ambient_dim=2)


@pytest.fixture(scope="session")
def slab_grid_solution(slab_dom):
    return sv.solve_mixed_bvp(slab_dom, h=1 / 32, tol=1e-11)


@pytest.fixture(scope="session")
def annulus_grid_solution(annulus_dom):
    return sv.solve_mixed_bvp(annulus_dom, h=1 / 32, tol=1e-11)


@pytest.fixture(scope="session")
def constant_solution():
    """Builds the grid solution u == value on the classified 1/16 grid of a
    domain, with no solve (the solver's data are 0 on sigma1, 1 on sigma2)."""
    def build(domain, value):
        grid = sv.Grid(domain, 1 / 16)
        field = GridField(origin=[ax[0] for ax in grid.axes], spacing=grid.h,
                          values=np.full(grid.shape, float(value)))
        return sv.Solution(field=field, report=sv.SolveReport(), grid=grid)
    return build


@pytest.fixture(scope="session")
def quasi_points():
    """Deterministic off-axis evaluation points in R^2 and R^3."""
    rng = np.random.default_rng(20240801)
    return {2: rng.uniform(-2, 2, size=(40, 2)),
            3: rng.uniform(-2, 2, size=(40, 3))}
