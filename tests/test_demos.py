"""The quick demo scripts run to completion and print exactly their pinned
output, `demo_output/<name>.txt`, byte for byte.

Demo 03 (Dirichlet problems at fine meshes) takes half a minute and
exercises the same code as acceptance criterion 4, so it is not run here.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
PINNED = pathlib.Path(__file__).resolve().parent / "demo_output"
QUICK = ["01_model_shrinkers", "02_weighted_operators", "04_energy_and_caccioppoli",
         "05_reilly_identity", "06_barriers_and_gradient_bounds",
         "07_hitting_probabilities"]


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.encode() == (PINNED / f"{name}.txt").read_bytes()
