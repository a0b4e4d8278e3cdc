"""The names the benchmark binds must exist in the package.

``perfbench/tracer.py`` wraps each layer's entry point by (module,
attribute) and computes ``lp.tableau_cells`` from ``LinearProgram``'s
fields, and ``perfbench/run.py`` recomputes FC's value from its joint
strategy, so renaming or deleting one breaks the benchmark.  This reads
the benchmark's files as they are and fails here first.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from alarmpatrol import (
    GeneratorParams,
    RowGame,
    all_pairs_distances,
    enumerate_placements,
    fc_sro,
    games,
    generate_instance,
    min_cover,
)
from alarmpatrol.lp import lp_solve
from helpers import routes_for

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """Module ``perfbench/<name>.py``, leaving ``sys.modules`` and the
    environment as they were."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    environ = dict(os.environ)
    # Its dataclasses look their module up while it runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        for key in set(os.environ) - set(environ):
            del os.environ[key]
        os.environ.update(environ)
    return module


def test_every_traced_layer_resolves_in_the_package():
    layers = _load("tracer").LAYERS
    assert layers
    for name, (module, attr) in layers.items():
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_traced_tableau_cells_match_the_solved_tableau(monkeypatch):
    tracer = _load("tracer")
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


def test_benchmark_recomputes_fc_value_from_the_joint_strategy():
    # perfbench/run.py checks each FC value against its joint strategy,
    # read as ``result.joint.probs`` over records with ``covered``.
    run = _load("run")
    setting, alarm = generate_instance(GeneratorParams(n_targets=40, seed=7))
    dist = all_pairs_distances(setting)
    cover = min_cover(setting, dist).placement
    placement = next(enumerate_placements(setting, dist, len(cover.positions), initial=cover))
    (signal,) = alarm.signals
    sets = routes_for(setting, dist, placement.positions, alarm.signal_support(signal))
    result = fc_sro(sets, setting)
    inst = SimpleNamespace(setting=setting, alarm=alarm)
    assert abs(run.fc_value_from_joint(inst, signal, result) - result.value) <= 1e-9
