"""Anytime resolution flow and the random instance generator.

With no false alarms the defender's best pre-signal policy is to park the
resources on a covering placement and respond to signals from there, so the
pipeline (1) computes the minimum number of resources, (2) enumerates
covering placements of exactly that size, swap moves first, and (3) runs
the selected signal-response oracles on each placement.  The evaluated
placements are the report's record; its per-oracle incumbents, trace and
counts derive from them.  Interrupting at any point leaves a valid report.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .mincover import (
    CoveringPlacement,
    MinCoverResult,
    covers,
    greedy_cover,
    local_search_improve,
    min_cover,
    overlap_metrics,
    OverlapMetrics,
    SetCoverInstance,
    to_set_cover,
)
from .model import AlarmSystem, PatrollingSetting, all_pairs_distances, build_alarm, build_setting
from .oracles import SignalResponse, respond
from .seeding import stream


class BudgetTooSmall(RuntimeError):
    """The time budget expired before the placement step could finish."""


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the random urban-style instance generator.

    All vertices are targets, edges are unit cost and mean degree is steered
    toward ``avg_degree`` by adding random edges on top of a random spanning
    tree.  Deadlines default to the size schedule 3 / 4 / 5 for up to 40 / 80 /
    more targets; values are uniform in (0, 1].  One signal covers every
    target, the computational worst case.
    """

    n_targets: int
    seed: int = 0
    avg_degree: float = 3.0
    deadline: int | None = None


def deadline_for(n_targets: int) -> int:
    if n_targets <= 40:
        return 3
    if n_targets <= 80:
        return 4
    return 5


def generate_instance(params: GeneratorParams) -> tuple[PatrollingSetting, AlarmSystem]:
    """Deterministic instance for a seed: connected graph, all vertices targets."""
    n = params.n_targets
    if n < 1:
        raise ValueError("n_targets must be positive")
    if not (math.isfinite(params.avg_degree) and params.avg_degree >= 0):
        raise ValueError(f"avg_degree must be finite and >= 0, got {params.avg_degree}")
    rng = stream(params.seed, "gen", n)
    ids = [f"v{i}" for i in range(n)]

    edges: set[tuple[int, int]] = set()
    for k in range(1, n):
        edges.add((rng.randrange(k), k))
    wanted = min(max(n - 1, math.ceil(params.avg_degree * n / 2)), n * (n - 1) // 2)
    while len(edges) < wanted:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))

    d = params.deadline if params.deadline is not None else deadline_for(n)
    targets = [(ids[i], 1.0 - rng.random(), d) for i in range(n)]
    setting = build_setting(ids, [(ids[u], ids[v]) for u, v in sorted(edges)], targets)
    alarm = build_alarm(setting, [("s0", {vid: 1.0 for vid in ids})])
    return setting, alarm


def enumerate_placements(
    setting: PatrollingSetting,
    dist: np.ndarray,
    m: int,
    *,
    initial: CoveringPlacement | None = None,
    instance: SetCoverInstance | None = None,
    deadline: float | None = None,
) -> Iterator[CoveringPlacement]:
    """Yield every covering placement of exactly ``m`` positions once.

    Sweeps the swap neighborhood (exchange one placed vertex for an unplaced
    one) breadth-first from ``initial`` (else the greedy + local-search cover),
    padded with the lowest unplaced vertices; when it dries up, ``covers``
    gives the next unseen cover (raising TimeoutError past ``deadline``) and
    the sweep resumes from it.  ``instance``, if given, is ``to_set_cover(setting, dist)``.
    """
    n = setting.n
    if not 0 < m <= n:
        raise ValueError(f"cannot place {m} distinct resources on {n} vertices")
    if instance is None:
        instance = to_set_cover(setting, dist)
    if initial is None:
        initial = local_search_improve(greedy_cover(instance), instance)
    if len(initial) > m:
        raise ValueError("initial placement larger than requested size")
    pad = [v for v in range(n) if v not in initial.positions][: m - len(initial)]
    first = tuple(sorted(initial.positions + tuple(pad)))
    if instance.covered(first) != instance.full:
        raise ValueError("no covering placement of the requested size found")

    visited: set[tuple[int, ...]] = set()
    for seed in itertools.chain([first], covers(instance, n, m, deadline)):
        if seed in visited:
            continue
        visited.add(seed)
        queue = [seed]
        yield CoveringPlacement(seed)
        while queue:  # the swap neighborhood, breadth first
            base = queue.pop(0)
            inside = set(base)
            for p in base:
                for q in range(n):
                    if q in inside:
                        continue
                    cand = tuple(sorted(inside - {p} | {q}))
                    if cand in visited or instance.covered(cand) != instance.full:
                        continue
                    visited.add(cand)
                    queue.append(cand)
                    yield CoveringPlacement(cand)


@dataclass(frozen=True)
class ResolutionConfig:
    """Run parameters for the full resolution flow."""

    time_budget: float = 3600.0
    oracles: tuple[str, ...] = ("FC", "PC", "NC")
    seed: int = 0
    max_placements: int | None = None
    pc_restarts: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time_budget) and self.time_budget > 0):
            raise ValueError(f"time budget must be positive and finite, got {self.time_budget}")
        if not self.oracles:
            raise ValueError("select at least one oracle")
        upper = tuple(s.upper() for s in self.oracles)
        for i, (s, u) in enumerate(zip(self.oracles, upper)):
            if u not in ("FC", "PC", "NC"):
                raise ValueError(f"unknown oracle {s!r}")
            if u in upper[:i]:
                raise ValueError(f"oracle {s!r} is selected more than once")
        object.__setattr__(self, "oracles", upper)
        if self.pc_restarts < 0:
            raise ValueError(f"pc_restarts must be >= 0, got {self.pc_restarts}")
        if self.max_placements is not None and self.max_placements < 1:
            raise ValueError(f"max_placements must be >= 1, got {self.max_placements}")


@dataclass(frozen=True)
class TraceEntry:
    elapsed: float
    seq: int
    placement_index: int
    oracle: str
    value: float


@dataclass(frozen=True)
class PlacementEval:
    """Oracle values in ``config.oracles`` order; ``elapsed`` is stamped after the last.

    ``failed`` maps each oracle that raised ``ArithmeticError`` here to its message.
    """

    positions: tuple[int, ...]
    metrics: OverlapMetrics
    values: dict[str, float]
    elapsed: float
    failed: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class BestEntry:
    placement_index: int
    positions: tuple[int, ...]
    value: float


@dataclass
class ResolutionReport:
    """One anytime run; ``placements`` is its record, in evaluation order.

    ``m``, ``placements_evaluated``, ``best`` and ``trace`` are derived from
    it and from ``mincover``.
    """

    mincover: MinCoverResult
    placements: list[PlacementEval] = field(default_factory=list)
    exhausted: bool = False
    timed_out_oracles: int = 0

    @property
    def m(self) -> int:
        return len(self.mincover.placement)

    @property
    def placements_evaluated(self) -> int:
        return len(self.placements)

    @property
    def best(self) -> dict[str, BestEntry]:
        """Per oracle, the first placement reaching its highest value."""
        best: dict[str, BestEntry] = {}
        for idx, pe in enumerate(self.placements):
            for scheme, value in pe.values.items():
                if scheme not in best or value > best[scheme].value:
                    best[scheme] = BestEntry(idx, pe.positions, value)
        return best

    @property
    def trace(self) -> list[TraceEntry]:
        """Every oracle value in evaluation order, stamped with its placement's ``elapsed``."""
        evals = [(i, pe, s, v) for i, pe in enumerate(self.placements) for s, v in pe.values.items()]
        return [TraceEntry(pe.elapsed, seq, i, s, v) for seq, (i, pe, s, v) in enumerate(evals)]

    @property
    def timed_out(self) -> bool:
        """Whether an exact computation ran out of time: an oracle or the exact min cover."""
        return self.mincover.timed_out or self.timed_out_oracles > 0


def resolve(
    setting: PatrollingSetting, alarm: AlarmSystem, config: ResolutionConfig
) -> ResolutionReport:
    """Run the full anytime flow under a wall-clock budget.

    An oracle's numerical failure is kept on its placement, and the run goes on.

    Each placement's FC starts from the FC response of the earliest evaluated
    placement sharing all but one of its positions, when one succeeded: for
    a swap placement, the placement it was swapped from.  Successful FC
    responses are filed under each (m - 1)-subset of their positions, first
    one kept, so finding that response takes m lookups.
    """
    t0 = time.monotonic()
    deadline = t0 + config.time_budget
    dist = all_pairs_distances(setting)
    mc = min_cover(setting, dist, "auto", time_budget=min(config.time_budget / 4.0, 30.0))
    if time.monotonic() >= deadline:
        raise BudgetTooSmall("time budget exhausted during the placement step")

    report = ResolutionReport(mincover=mc)
    route_cache: dict = {}
    # (m - 1)-subset of positions -> (placement index, FC response).
    fc_done: dict[tuple[int, ...], tuple[int, SignalResponse]] = {}
    placements = enumerate(enumerate_placements(setting, dist, report.m, initial=mc.placement,
                                                instance=mc.instance, deadline=deadline))
    while True:
        try:
            idx, placement = next(placements)
        except (StopIteration, TimeoutError) as end:  # TimeoutError: the cover search's deadline
            report.exhausted = isinstance(end, StopIteration)
            break
        if time.monotonic() >= deadline or idx == config.max_placements:
            break
        metrics = overlap_metrics(placement, setting, dist)
        values: dict[str, float] = {}
        failed: dict[str, str] = {}
        keys = list(itertools.combinations(placement.positions, report.m - 1))
        for scheme in config.oracles:
            if time.monotonic() >= deadline:
                break
            fc_start = None
            if scheme == "FC":
                earlier = [fc_done[k] for k in keys if k in fc_done]
                fc_start = min(earlier, key=lambda e: e[0])[1] if earlier else None
            try:
                resp = respond(setting, dist, alarm, placement.positions, scheme,
                               route_cache=route_cache, pc_restarts=config.pc_restarts,
                               seed=config.seed, deadline=deadline, fc_start=fc_start)
            except ArithmeticError as exc:
                failed[scheme] = str(exc)
                continue
            if scheme == "FC":
                for k in keys:
                    fc_done.setdefault(k, (idx, resp))
            values[scheme] = resp.value
            report.timed_out_oracles += sum(
                res.diagnostics.timed_out for res in resp.per_signal.values()
            )
        pe = PlacementEval(placement.positions, metrics, values, time.monotonic() - t0, failed)
        report.placements.append(pe)
        if len(values) + len(failed) < len(config.oracles):  # the deadline hit
            break
    return report
