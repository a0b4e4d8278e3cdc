"""The names the benchmark's tracer binds must exist in the package.

``perfbench/tracer.py`` wraps each layer's entry point by (module,
attribute) and computes ``lp.tableau_cells`` from ``LinearProgram``'s
fields, so renaming or deleting one breaks the benchmark.  This reads the
tracer as it is and fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from alarmpatrol import RowGame, games
from alarmpatrol.lp import lp_solve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_the_package():
    layers = _tracer().LAYERS
    assert layers
    for name, (module, attr) in layers.items():
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_traced_tableau_cells_match_the_solved_tableau(monkeypatch):
    tracer = _tracer()
    sizes = []

    def record(prog):
        sol = lp_solve(prog)
        sizes.append((tracer.tableau_cells(prog), sol.tableau.T.size))
        return sol

    monkeypatch.setattr(games, "lp_solve", record)
    RowGame(np.array([[1.0, 0.0, 0.4], [0.0, 1.0, 0.6]])).solve()
    ((traced, built),) = sizes
    # Rows: 3 columns of U and sum x = 1.  Columns: 2 rows of U, the value,
    # 4 starting basic columns and the rhs.
    assert traced == built == 4 * 8
