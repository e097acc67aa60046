import numpy as np
import pytest
from hypothesis import settings

# every run draws the same examples, and no saved example changes what it tests
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

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
    """Builds the grid solution u == value at every node of the 1/16 grid of
    a domain, with no solve (the solver's data are 0 on sigma1, 1 on sigma2)."""
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


# grids checked against the grid's former node classes: (domain config, h)
_CLASSIFIED_GRIDS = {
    f"{name}-h{round(1 / h)}": (config, h)
    for name, config, hs in [
        ("slab", {"kind": "slab", "h1": -1, "h2": 1, "radius": 5.0}, (1 / 16, 1 / 32)),
        ("annulus", {"kind": "annulus", "a": 0.5, "b": 2.0}, (1 / 16, 1 / 32)),
        ("plane-sphere", {"kind": "generic", "ambient_dim": 2, "radius": 4.0,
                          "sigma1": {"type": "plane", "normal": [0, 1], "offset": -2.0,
                                     "side": 1},
                          "sigma2": {"type": "sphere", "radius": 1.0, "side": 1}},
         (1 / 16, 1 / 32)),
        ("slab3d", {"kind": "slab", "h1": -1, "h2": 1, "ambient_dim": 3}, (1 / 8,)),
    ]
    for h in hs
}


@pytest.fixture(scope="session", params=list(_CLASSIFIED_GRIDS.values()),
                ids=list(_CLASSIFIED_GRIDS))
def classified_solution(request):
    """(domain config, grid solution, former node classes) on the 2D slab,
    annulus and plane-sphere pair at h = 1/16 and 1/32 and the 3D slab at
    1/8.  The classes are the (solved, neumann, dirichlet) node masks of the
    box by the grid's former classification: a solved node is Neumann when
    a full-box roll of the beyond-the-ball mask puts an axis neighbor beyond
    the sphere, and a Dirichlet node lies in a piece's ghost band, [-1.5 h,
    snap] in its depth, and inside every other piece."""
    config, h = request.param
    sol = sv.solve_mixed_bvp(dm.domain_from_json(config), h=h)
    grid = sol.grid
    solved = grid.solved_mask.reshape(grid.shape)
    beyond = (grid.r > grid.radius).reshape(grid.shape)
    neumann = np.zeros(grid.shape, dtype=bool)
    for ax in range(grid.ndim):
        for shift in (1, -1):
            neumann |= solved & np.roll(beyond, -shift, axis=ax)
    dirichlet = np.zeros(grid.r.size, dtype=bool)
    for label, d in grid.depths.items():
        band = (d <= grid.snap) & (d >= -sv._DIRICHLET_BAND * grid.h)
        for other, d_other in grid.depths.items():
            if other != label:
                band &= d_other > grid.snap
        dirichlet |= band
    return config, sol, (solved, neumann, dirichlet.reshape(grid.shape))
