"""Patrolling environment: graph, targets, alarm system and reachability.

Vertices carry opaque string ids in the file format and are mapped to dense
integer indices internally; all structures keep the id list so results can be
reported in the original vocabulary.  Every type here is immutable after
construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

PROB_TOL = 1e-9


class ModelError(ValueError):
    """Base class for invalid patrolling instances."""


class BadVertex(ModelError):
    pass


class BadEdge(ModelError):
    pass


class DanglingEdge(ModelError):
    pass


class BadValue(ModelError):
    pass


class BadDeadline(ModelError):
    pass


class DisconnectedGraph(ModelError):
    pass


class BadProbability(ModelError):
    pass


class UnknownVertex(ModelError):
    pass


class UnknownSignal(ModelError):
    pass


class UnknownTarget(ModelError):
    pass


@dataclass(frozen=True)
class PatrollingSetting:
    """Connected unit-cost graph with valued, deadline-bearing targets.

    Attributes:
        ids: vertex ids, in declaration order; index ``v`` refers to ``ids[v]``.
        edges: canonical ``(u, v)`` pairs with ``u < v``.
        adj: adjacency lists (sorted) per vertex index.
        targets: sorted vertex indices that are targets.
        value: target index -> value in (0, 1].
        deadline: target index -> penetration time (>= 1 time units).
    """

    ids: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]
    targets: tuple[int, ...]
    value: dict[int, float]
    deadline: dict[int, int]
    index: dict[str, int] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.ids)

    def is_target(self, v: int) -> bool:
        return v in self.value

    def index_of(self, vid: str) -> int:
        try:
            return self.index[vid]
        except KeyError:
            raise UnknownVertex(f"unknown vertex id {vid!r}") from None

    def ids_of(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.ids[v] for v in indices)


@dataclass(frozen=True)
class AlarmSystem:
    """Signal set with the conditional table p(signal | attacked target).

    Probabilities are only defined for real signals and real targets: the
    model has no false positives and no missed detections, so each target's
    row sums to one and every target triggers at least one signal.
    """

    signals: tuple[str, ...]
    prob: dict[str, dict[int, float]]

    def signal_support(self, s: str) -> tuple[int, ...]:
        """Targets that may have triggered ``s`` (positive probability)."""
        if s not in self.prob:
            raise UnknownSignal(f"unknown signal id {s!r}")
        return tuple(sorted(t for t, p in self.prob[s].items() if p > 0.0))

    def target_support(self, t: int) -> tuple[str, ...]:
        """Signals that target ``t`` may trigger."""
        found = tuple(s for s in self.signals if self.prob[s].get(t, 0.0) > 0.0)
        if not found:
            raise UnknownTarget(f"vertex index {t} is not a known target")
        return found


def build_setting(
    vertices: Sequence[str],
    edges: Iterable[Sequence[str]],
    targets: Iterable[tuple[str, float, int]],
) -> PatrollingSetting:
    """Validate raw vertex/edge/target data and assemble a setting.

    Raises:
        BadVertex: duplicate vertex ids.
        BadEdge: self-loops, duplicate edges or malformed pairs.
        DanglingEdge: edge endpoint not among the declared vertices.
        BadValue: target value outside (0, 1].
        BadDeadline: non-positive or non-integer deadline.
        DisconnectedGraph: the graph is not connected.
    """
    ids = tuple(str(v) for v in vertices)
    index: dict[str, int] = {}
    for i, vid in enumerate(ids):
        if vid in index:
            raise BadVertex(f"duplicate vertex id {vid!r}")
        index[vid] = i

    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2:
            raise BadEdge(f"edge {pair!r} must be a pair of vertex ids")
        a, b = (str(pair[0]), str(pair[1]))
        if a not in index or b not in index:
            raise DanglingEdge(f"edge ({a!r}, {b!r}) references an undeclared vertex")
        u, v = index[a], index[b]
        if u == v:
            raise BadEdge(f"self-loop on vertex {a!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise BadEdge(f"duplicate edge ({a!r}, {b!r})")
        seen.add(key)
        canon.append(key)
    canon.sort()

    value: dict[int, float] = {}
    deadline: dict[int, int] = {}
    for tid, val, dl in targets:
        tid = str(tid)
        if tid not in index:
            raise DanglingEdge(f"target {tid!r} is not a declared vertex")
        t = index[tid]
        if t in value:
            raise BadVertex(f"duplicate target {tid!r}")
        val = float(val)
        if not 0.0 < val <= 1.0:
            raise BadValue(f"target {tid!r} has value {val}, expected (0, 1]")
        if int(dl) != dl or int(dl) < 1:
            raise BadDeadline(f"target {tid!r} has deadline {dl}, expected integer >= 1")
        value[t] = val
        deadline[t] = int(dl)

    adj_sets: list[set[int]] = [set() for _ in ids]
    for u, v in canon:
        adj_sets[u].add(v)
        adj_sets[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in adj_sets)

    if ids and not _connected(adj):
        raise DisconnectedGraph("graph is not connected")

    return PatrollingSetting(
        ids=ids,
        edges=tuple(canon),
        adj=adj,
        targets=tuple(sorted(value)),
        value=value,
        deadline=deadline,
        index=index,
    )


def build_alarm(
    setting: PatrollingSetting,
    signals: Iterable[tuple[str, Mapping[str, float]]],
) -> AlarmSystem:
    """Validate a signal table against a setting.

    Each target's probabilities over its signals must sum to 1 within
    ``PROB_TOL`` (an attack triggers exactly one signal) and probabilities may
    only be attached to real targets.
    """
    prob: dict[str, dict[int, float]] = {}
    order: list[str] = []
    for sid, row in signals:
        sid = str(sid)
        if sid in prob:
            raise BadVertex(f"duplicate signal id {sid!r}")
        entries: dict[int, float] = {}
        for tid, p in row.items():
            t = setting.index.get(str(tid))
            if t is None or not setting.is_target(t):
                raise UnknownTarget(f"signal {sid!r} references non-target {tid!r}")
            p = float(p)
            if not 0.0 <= p <= 1.0:
                raise BadProbability(f"p({sid!r}|{tid!r}) = {p} outside [0, 1]")
            if p > 0.0:
                entries[t] = p
        prob[sid] = entries
        order.append(sid)

    for t in setting.targets:
        total = sum(prob[s].get(t, 0.0) for s in order)
        if abs(total - 1.0) > PROB_TOL:
            raise BadProbability(
                f"probabilities for target {setting.ids[t]!r} sum to {total}, expected 1"
            )

    return AlarmSystem(signals=tuple(order), prob=prob)


def _connected(adj: Sequence[Sequence[int]]) -> bool:
    n = len(adj)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def all_pairs_distances(setting: PatrollingSetting) -> np.ndarray:
    """Hop-count distance matrix via one BFS per vertex.

    Edges are unit cost by construction, so BFS levels are exact shortest
    traveling costs.
    """
    n = setting.n
    dist = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        row = dist[src]
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = row[u]
            for v in setting.adj[u]:
                if row[v] < 0:
                    row[v] = du + 1
                    queue.append(v)
    return dist


def coverage_set(setting: PatrollingSetting, dist: np.ndarray, v: int) -> tuple[int, ...]:
    """Targets a resource placed on ``v`` can reach within their deadlines."""
    if not 0 <= v < setting.n:
        raise UnknownVertex(f"vertex index {v} out of range")
    row = dist[v]
    return tuple(t for t in setting.targets if row[t] <= setting.deadline[t])

