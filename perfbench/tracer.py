"""Spans around the public entry points of each layer, recorded from outside.

``Tracer.install`` rebinds every module attribute of the package that refers
to a traced function, so callers that look the name up at call time (as
``resolve`` does for ``respond``, ``oracles`` for ``lp_solve``, and so on)
reach the wrapper.  Spans are kept in memory as (name, start, end, parent)
and aggregated when the pass ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# Layer name -> (defining module, attribute).  Every module is a layer; these
# are the entry points the layers above call.
LAYERS = {
    "pipeline.resolve": ("alarmpatrol.pipeline", "resolve"),
    "pipeline.enumerate_placements": ("alarmpatrol.pipeline", "enumerate_placements"),
    "model.all_pairs_distances": ("alarmpatrol.model", "all_pairs_distances"),
    "mincover.min_cover": ("alarmpatrol.mincover", "min_cover"),
    "mincover.overlap_metrics": ("alarmpatrol.mincover", "overlap_metrics"),
    "oracles.respond": ("alarmpatrol.oracles", "respond"),
    "routes.covering_routes": ("alarmpatrol.routes", "covering_routes"),
    "oracles.nc_sro": ("alarmpatrol.oracles", "nc_sro"),
    "oracles.pc_sro": ("alarmpatrol.oracles", "pc_sro"),
    "oracles.fc_sro": ("alarmpatrol.oracles", "fc_sro"),
    "oracles.best_response_ilp": ("alarmpatrol.oracles", "best_response_ilp"),
    "oracles.aggregate_value": ("alarmpatrol.oracles", "aggregate_value"),
    "games.solve_zero_sum": ("alarmpatrol.games", "solve_zero_sum"),
    "lp.lp_solve": ("alarmpatrol.lp", "lp_solve"),
    "fileio.report_payload": ("alarmpatrol.fileio", "report_payload"),
    "fileio.dumps": ("alarmpatrol.fileio", "dumps"),
}


def tableau_cells(lp) -> int:
    """Cells of the dense two-phase tableau ``lp_solve`` builds for ``lp``.

    Computed from the argument's shapes: rows m1 + m2, columns n structural +
    m1 slacks + one artificial per equality or negative-rhs row + the rhs.
    """
    n = len(lp.c)
    m1 = 0 if lp.A_ub is None else len(lp.A_ub)
    m2 = 0 if lp.A_eq is None else len(lp.A_eq)
    negative = 0 if lp.b_ub is None else int((lp.b_ub < 0).sum())
    return (m1 + m2) * (n + m1 + m2 + negative + 1)


def _count(counts, name, args, result) -> None:
    """Deterministic work counts taken at the layer boundary."""
    if name == "lp.lp_solve":
        counts["lp.tableau_cells"] += tableau_cells(args[0])
    elif name == "games.solve_zero_sum":
        counts["games.cells"] += int(args[0].payoff.size)
    elif name == "routes.covering_routes":
        counts["routes.routes"] += len(result.routes)
        counts["routes.incomplete"] += not result.complete
    elif name == "oracles.respond":
        alarm, positions = args[2], args[3]
        counts["routes.lookups"] += len(alarm.signals) * len(positions)
        counts["oracles.evaluations"] += len(alarm.signals)
    elif name == "oracles.fc_sro":
        counts["oracles.fc.rounds"] += result.diagnostics.iterations
        counts["oracles.fc.rows"] += result.diagnostics.routes_generated
    elif name == "oracles.pc_sro":
        counts["oracles.pc.iterations"] += result.diagnostics.iterations
    elif name == "mincover.min_cover":
        counts["mincover.m"] += len(result.placement)


SPAN_COST_CALLS = 20_000
SPAN_COST_REPEATS = 7


def span_cost() -> float:
    """Seconds one traced call adds, calibrated on a no-op in this process.

    Median over repeats of (wrapped loop - bare loop) / calls.  Times the
    span bookkeeping only, not what the wrapper does to caches.
    """

    def noop():
        return None

    costs = []
    for _ in range(SPAN_COST_REPEATS):
        wrapped = Tracer().wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            wrapped()
        mid = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        costs.append(((mid - start) - (time.perf_counter() - mid)) / SPAN_COST_CALLS)
    return statistics.median(costs)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, start, end, self.stack[-1] if self.stack else -1)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            _count(self.counts, name, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Spans cover the time inside each ``next()``; one count per item."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx, name, start)
                self.counts["pipeline.placements"] += 1
                yield item

        return traced

    def install(self) -> None:
        for name, (mod_name, attr) in LAYERS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrap = self.wrap_generator if name == "pipeline.enumerate_placements" else self.wrap
            wrapper = wrap(name, original)
            for mod_key, mod in list(sys.modules.items()):
                if mod_key.split(".")[0] == "alarmpatrol" and getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per layer: summed self time (span minus child-span cover) and calls."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self_s[name] += (end - start) - covered
            calls[name] += 1
        return dict(self_s), dict(calls)
