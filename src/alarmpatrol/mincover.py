"""Minimum covering placements.

The general problem maps directly onto SET-COVER: the targets are the
universe and every vertex contributes its row of ``model.reach``.  This
module provides the greedy approximation with a local-search cleanup, one
search that yields every cover of a given size (the exact minimum cover and
placement enumeration both use it), the linear-time-ish dynamic program for
trees (with a cycle reduction on top of it), and the overlap indicators.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .games import RowGame
from .model import PatrollingSetting, reach, row_masks

INF = math.inf


class Infeasible(ValueError):
    """The candidate sets cannot cover the universe."""


class NotATree(ValueError):
    pass


class NotACycle(ValueError):
    pass


@dataclass(frozen=True)
class SetCoverInstance:
    """One candidate set per vertex that covers a target, as a bitmask.

    Bit j of ``masks[v]`` (keys ascending) stands for ``setting.targets[j]``;
    ``full`` has every target's bit.
    """

    masks: dict[int, int]
    full: int

    def covered(self, positions: Iterable[int]) -> int:
        """The targets the positions cover, as a bitmask."""
        got = 0
        for p in positions:
            got |= self.masks.get(p, 0)
        return got


@dataclass(frozen=True)
class CoveringPlacement:
    """Distinct vertices placing every target within its deadline of a resource."""

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("placement positions must be distinct")
        object.__setattr__(self, "positions", tuple(sorted(self.positions)))

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class MinCoverResult:
    """A covering placement and how it was found.

    ``lower_bound`` is a proven bound on the minimum size (None for the greedy
    methods).  ``instance`` is the set-cover instance the method searched
    (None for the tree and cycle methods), so a caller can reuse it.
    """

    placement: CoveringPlacement
    optimal: bool
    method: str
    lower_bound: int | None = None
    instance: SetCoverInstance | None = field(default=None, compare=False, repr=False)

    @property
    def timed_out(self) -> bool:
        """Whether the exact search ran out of time and returned its incumbent."""
        return self.method == "exact" and not self.optimal


def to_set_cover(setting: PatrollingSetting, dist: np.ndarray) -> SetCoverInstance:
    """SET-COVER instance whose candidate sets are the rows of ``reach``.

    Each row is packed into an integer (``row_masks``); vertices that reach
    no target are left out.
    """
    cover = reach(setting, dist)
    rows = np.flatnonzero(cover.any(axis=1)).tolist()
    masks = dict(zip(rows, row_masks(cover[rows])))
    return SetCoverInstance(masks, (1 << len(setting.targets)) - 1)


def is_covering(
    positions: Sequence[int], setting: PatrollingSetting, dist: np.ndarray
) -> bool:
    """Definition check: every target within deadline of some position."""
    pos = list(positions)
    return all(
        any(dist[p][t] <= setting.deadline[t] for p in pos) for t in setting.targets
    )


def greedy_cover(instance: SetCoverInstance) -> CoveringPlacement:
    """Chvatal's rule: repeatedly take the set covering most uncovered targets.

    Ties break on the lowest vertex index for reproducibility.  The result is
    within H(|universe|) of the optimum.
    """
    masks, full = instance.masks, instance.full
    order = sorted(masks)
    chosen: list[int] = []
    uncovered = full
    while uncovered:
        best_v, best_gain = -1, 0
        for v in order:
            gain = (masks[v] & uncovered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_v < 0:
            raise Infeasible("candidate sets do not cover the universe")
        chosen.append(best_v)
        uncovered &= ~masks[best_v]
    return CoveringPlacement(tuple(chosen))


def local_search_improve(
    placement: CoveringPlacement, instance: SetCoverInstance
) -> CoveringPlacement:
    """Shrink a covering placement to a fixed point of two moves.

    Move (a) drops a position whose targets are all covered by the others;
    move (b) replaces a pair of positions by a single vertex whose coverage
    set contains everything only that pair was contributing.
    """
    masks, full = instance.masks, instance.full
    pos = sorted(set(placement.positions))
    candidates = sorted(masks)

    def swap() -> list[int] | None:
        for i, p in enumerate(pos):
            for q in pos[i + 1 :]:
                exclusive = full & ~instance.covered(x for x in pos if x not in (p, q))
                for v in candidates:
                    if (v not in pos or v in (p, q)) and masks[v] & exclusive == exclusive:
                        return sorted(set(pos) - {p, q} | {v})
        return None

    while True:
        drop = next((p for p in pos if instance.covered(x for x in pos if x != p) == full), None)
        if drop is not None:
            pos.remove(drop)
        elif (better := swap()) is not None:
            pos = better
        else:
            return CoveringPlacement(tuple(pos))


def covers(
    instance: SetCoverInstance, n: int, size: int, deadline: float | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every covering set of ``size`` vertices of ``range(n)`` once, sorted.

    Depth first, branching as Knuth's Algorithm X on the uncovered target with
    the fewest candidates left: one child per candidate, most newly covered
    targets first (lowest index on ties), each excluding the earlier ones.  A
    cover of fewer picks is padded in every way from the vertices neither
    picked nor excluded.  The counting bound cuts nodes.  Raises TimeoutError
    once ``deadline`` (``time.monotonic``) has passed, checked every 512 nodes.
    """
    masks = instance.masks
    col = row_masks(_rows(instance).T)  # bit v of col[t]: vertex v covers target t
    heaviest = sorted(((m.bit_count(), v) for v, m in masks.items()), reverse=True)
    stack = [((), instance.full, 0)]  # (picks, uncovered targets, excluded vertices' bits)
    nodes = 0
    while stack:
        if deadline is not None and nodes % 512 == 0 and time.monotonic() > deadline:
            raise TimeoutError("cover search ran out of time")
        nodes += 1
        picks, uncovered, excluded = stack.pop()
        if not uncovered:
            free = [v for v in range(n) if v not in picks and not excluded >> v & 1]
            for pad in itertools.combinations(free, size - len(picks)):
                yield tuple(sorted(picks + pad))
            continue
        # Counting bound: ``left`` more picks cover the ``need`` uncovered
        # targets only if some vertex not excluded covers need / left of them.
        # Scanned heaviest first, it stops at the first vertex too small even
        # whole: no vertex after it covers enough.
        need, left = uncovered.bit_count(), size - len(picks)
        fits = False
        for whole, v in heaviest:
            if left * whole < need:
                break
            if not excluded >> v & 1 and left * (masks[v] & uncovered).bit_count() >= need:
                fits = True
                break
        if not fits:
            continue
        targets = (t for t in range(uncovered.bit_length()) if uncovered >> t & 1)
        rest = min((col[t] & ~excluded for t in targets), key=int.bit_count)
        order = [v for v in range(rest.bit_length()) if rest >> v & 1]
        order.sort(key=lambda v: -(masks[v] & uncovered).bit_count())
        for i in reversed(range(len(order))):
            below = sum(1 << v for v in order[:i])
            stack.append((picks + (order[i],), uncovered & ~masks[order[i]], excluded | below))


def _rows(instance: SetCoverInstance) -> np.ndarray:
    """The masks unpacked: row v holds vertex v's targets (zero when v is not a key)."""
    masks, n_targets = instance.masks, instance.full.bit_length()
    width = (n_targets + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks.values()), np.uint8)
    R = np.zeros((max(masks, default=-1) + 1, n_targets), dtype=bool)
    R[list(masks)] = np.unpackbits(packed.reshape(len(masks), width), axis=1, count=n_targets,
                                   bitorder="little")
    return R


def _root_bound(instance: SetCoverInstance, incumbent: int) -> int:
    """Counting bound; if below ``incumbent`` and the game of vertices (rows R)
    against targets solves, also Lovasz's fractional bound: for its attacker y,
    each cover C has sum_{v in C} (R y)_v >= 1, so |C| >= 1 / max_v (R y)_v."""
    masks = instance.masks
    bound = -(-instance.full.bit_count() // max((m.bit_count() for m in masks.values()), default=1))
    if bound >= incumbent:
        return bound
    R = _rows(instance)[list(masks)]
    try:
        _, y, _ = RowGame(R.astype(float)).solve()
    except ArithmeticError:
        return bound
    return max(bound, math.ceil(1.0 / float((R @ y).max()) - 1e-9))


def exact_cover(
    instance: SetCoverInstance, time_budget: float | None = None
) -> MinCoverResult:
    """Minimum-cardinality cover: from the greedy + local-search incumbent,
    asks ``covers`` for a cover one position smaller until the root bound is
    met or none exists.  On budget expiry returns the incumbent, not optimal."""
    best = local_search_improve(greedy_cover(instance), instance).positions
    deadline = None if time_budget is None else time.monotonic() + float(time_budget)
    timed_out = deadline is not None and time.monotonic() > deadline
    bound = _root_bound(instance, 0 if timed_out else len(best))  # no game when out of time
    n = max(instance.masks, default=-1) + 1
    try:
        while not timed_out and len(best) > bound and (
            found := next(covers(instance, n, len(best) - 1, deadline), None)
        ):
            best = found
    except TimeoutError:
        timed_out = True
    return MinCoverResult(CoveringPlacement(best), not timed_out, "exact", bound, instance)


def _tree_cover(
    adj: Sequence[Sequence[int]], root: int, dl: Sequence[float]
) -> list[int]:
    """Bottom-up coverage-profile recursion over a tree.

    ``dl[v]`` is the deadline for target vertices and infinity otherwise.
    Returns the placed vertices; the caller owns validation.  Profiles are
    relative to each vertex's parent: a covered subtree reports the distance
    to its closest resource, an uncovered one reports how close to the parent
    a resource must be placed.  When the root itself still reports a finite
    demand there is no parent left to absorb it, so a resource goes on the
    root.
    """
    n = len(adj)
    parent = [-2] * n
    order = [root]
    parent[root] = -1
    for u in order:
        for v in adj[u]:
            if parent[v] == -2:
                parent[v] = u
                order.append(v)

    cov = [INF] * n
    unc = [INF] * n
    placed: list[int] = []
    for v in reversed(order):
        min_cov = INF
        min_unc = INF
        for u in adj[v]:
            if parent[u] == v:
                min_cov = min(min_cov, cov[u])
                min_unc = min(min_unc, unc[u])
        bound = min(min_unc, dl[v])
        if bound >= min_cov:
            cov[v], unc[v] = min_cov + 1, INF
        elif bound - 1 >= 0:
            cov[v], unc[v] = INF, bound - 1
        else:
            placed.append(v)
            cov[v], unc[v] = 1, INF
    if unc[root] != INF:
        placed.append(root)
    return placed


def _deadline_vector(setting: PatrollingSetting) -> list[float]:
    return [setting.deadline.get(v, INF) for v in range(setting.n)]


def tree_min_cover(setting: PatrollingSetting, root: int = 0) -> CoveringPlacement:
    """Minimum covering placement on a tree; the size is root-independent."""
    if not _is_tree(setting):
        raise NotATree("graph is not a tree")
    placed = _tree_cover(setting.adj, root, _deadline_vector(setting))
    return CoveringPlacement(tuple(placed))


def cycle_min_cover(setting: PatrollingSetting) -> CoveringPlacement:
    """Minimum covering placement on a simple cycle.

    Deleting any edge yields a path whose distances dominate the cycle's, so
    each of the n path solutions stays feasible on the cycle; the smallest one
    over all deletions is optimal.
    """
    n = setting.n
    if not _is_cycle(setting):
        raise NotACycle("graph is not a simple cycle")
    dl = _deadline_vector(setting)
    best: list[int] | None = None
    for u, v in setting.edges:
        adj = [tuple(x for x in setting.adj[w] if not {w, x} == {u, v}) for w in range(n)]
        placed = _tree_cover(adj, u, dl)
        if best is None or len(placed) < len(best):
            best = placed
    assert best is not None
    return CoveringPlacement(tuple(best))


def _is_tree(setting: PatrollingSetting) -> bool:
    return len(setting.edges) == setting.n - 1


def _is_cycle(setting: PatrollingSetting) -> bool:
    return (
        setting.n >= 3
        and len(setting.edges) == setting.n
        and all(len(a) == 2 for a in setting.adj)
    )


def min_cover(
    setting: PatrollingSetting,
    dist: np.ndarray,
    method: str = "auto",
    time_budget: float | None = None,
) -> MinCoverResult:
    """Dispatch over the covering-placement methods.

    ``auto`` uses the polynomial algorithms when the topology allows and falls
    back to the exact cover search under the time budget (whose timeout
    incumbent is already at least as good as greedy + local search).
    """
    if method == "auto":
        method = "tree" if _is_tree(setting) else "cycle" if _is_cycle(setting) else "exact"
    if method in ("tree", "cycle"):
        placement = tree_min_cover(setting) if method == "tree" else cycle_min_cover(setting)
        return MinCoverResult(placement, True, method, len(placement))
    if method == "exact":
        return exact_cover(to_set_cover(setting, dist), time_budget)
    if method in ("greedy", "greedy+ls"):
        instance = to_set_cover(setting, dist)
        placement = greedy_cover(instance)
        if method == "greedy+ls":
            placement = local_search_improve(placement, instance)
        return MinCoverResult(placement, False, method, instance=instance)
    raise ValueError(f"unknown mincover method {method!r}")


@dataclass(frozen=True)
class OverlapMetrics:
    """Extra-covering count and its per-target / normalized forms."""

    eta: int
    tau: float
    tau_hat: float


def overlap_metrics(
    placement: CoveringPlacement, setting: PatrollingSetting, dist: np.ndarray
) -> OverlapMetrics:
    """Count coverings beyond one per target for a placement.

    eta sums the ``reach`` rows of the positions minus |T|; tau divides by |T|;
    tau_hat normalizes by (|T|-m)(m-1) and is 0 by convention when m <= 1 or
    m = |T| (degenerate denominator).
    """
    n_targets = len(setting.targets)
    m = len(placement)
    eta = int(reach(setting, dist[list(placement.positions)]).sum()) - n_targets
    tau = eta / n_targets if n_targets else 0.0
    if m <= 1 or n_targets == m:
        tau_hat = 0.0
    else:
        tau_hat = eta / ((n_targets - m) * (m - 1))
    return OverlapMetrics(eta=eta, tau=tau, tau_hat=tau_hat)
