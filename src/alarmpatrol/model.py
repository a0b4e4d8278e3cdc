"""Patrolling environment: graph, targets, alarm system and reachability.

Vertices carry opaque string ids in the file format and are mapped to dense
integer indices internally; all structures keep the id list so results can be
reported in the original vocabulary.  Every type here is immutable after
construction.

Distances come from one BFS run a level at a time over all sources, and
``reach`` turns them into the one coverage predicate: vertex ``v`` reaches
target ``t`` within ``t``'s deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

PROB_TOL = 1e-9
_VISITS = 1 << 20  # neighbour visits per source block in _hops


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

    if ids and (_hops(len(ids), canon, [0]) < 0).any():
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


def _hops(n: int, edges: Sequence[tuple[int, int]], sources: Sequence[int]) -> np.ndarray:
    """Hop counts from each source (rows) to every vertex, -1 where unreachable.

    One level-synchronous BFS for all sources at once.  The frontier is a
    list of (source, vertex) pairs; each pair enters it once and is expanded
    along its vertex's slice of the CSR neighbour array, so the search costs
    O(sources x (n + edges)) whatever the graph's diameter.  Sources go in
    blocks of at most ``_VISITS`` neighbour visits to bound the temporaries.
    """
    e = np.array(edges, dtype=np.intp).reshape(-1, 2)
    tail, head = np.concatenate([e, e[:, ::-1]]).T
    nbr = head[np.argsort(tail)]
    deg = np.bincount(tail, minlength=n)
    first = np.cumsum(deg) - deg
    sources = np.asarray(sources, dtype=np.intp)
    dist = np.full((len(sources), n), -1, dtype=np.int64)
    block = max(1, _VISITS // max(1, len(nbr)))
    for lo in range(0, len(sources), block):
        rows, v = dist[lo : lo + block], sources[lo : lo + block]
        src, level = np.arange(len(v)), 0
        while len(v):
            rows[src, v] = level
            level += 1
            k = deg[v]
            src = np.repeat(src, k)  # each pair's neighbours, laid end to end
            v = nbr[np.repeat(first[v] - np.cumsum(k) + k, k) + np.arange(len(src))]
            new = rows[src, v] < 0
            src, v = src[new], v[new]
            # One copy per repeated pair: the copy whose tag (below -1) stays.
            tag = -2 - np.arange(len(v))
            rows[src, v] = tag
            won = rows[src, v] == tag
            src, v = src[won], v[won]
    return dist


def all_pairs_distances(setting: PatrollingSetting) -> np.ndarray:
    """Hop-count distance matrix, one BFS level at a time over all sources.

    Edges are unit cost by construction, so BFS levels are exact shortest
    traveling costs.
    """
    return _hops(setting.n, setting.edges, range(setting.n))


def reach(setting: PatrollingSetting, dist: np.ndarray) -> np.ndarray:
    """Boolean vertex x target matrix: ``v`` reaches ``setting.targets[j]`` by its deadline.

    The one coverage predicate of the placement layer.  Rows follow the rows
    of ``dist``, so a subset of its rows gives those vertices' rows.
    """
    targets = list(setting.targets)
    return dist[:, targets] <= np.array([setting.deadline[t] for t in targets], dtype=np.int64)


def row_masks(matrix: np.ndarray) -> list[int]:
    """One integer per row of a boolean matrix: bit j of row i is ``matrix[i, j]``."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
