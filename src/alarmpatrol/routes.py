"""Covering routes: what one resource can still protect after a signal.

A covering route visits targets of the active signal's support, each by its
deadline, starting from the resource's placement vertex.  Only the set of
visited targets matters to the response games, so route generation keeps one
best representative (minimal completion time) per maximal covered set.

The routes come from a dynamic program over (covered set, last target)
states, run one level at a time on numpy arrays: level s holds every state
that covers s targets, with its covered set as s ascending local target
indices.  Ordering sets by their largest index first is, for sets of one
size, the numeric order of their bitmasks, whatever the number of reachable
targets, so each level is sorted and its ties resolved as a bitmask DP
would.  A set is maximal when it is no set of the next level minus one
target, which one sort merging the two finds.

Every route set carries its coverage once, built with the set: as a
read-only boolean matrix with one row per route and one column per support
target, from which the oracles derive their payoff matrices, LP
coefficients and unprotected probabilities, and as one integer bitmask per
route for the FC best response's bit search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .model import PatrollingSetting, row_masks

# Up to this many reachable support targets the DP is exact; beyond it the
# per-level state set is truncated to BEAM_WIDTH states.
EXACT_LIMIT = 20
BEAM_WIDTH = 100_000


@dataclass(frozen=True)
class CoveringRoute:
    """Ordered target visits with arrival times respecting deadlines.

    Empty ``visits`` encodes staying at the start vertex and protecting
    nothing; it is kept in every route set so a resource always has at least
    one action.
    """

    start: int
    visits: tuple[int, ...]
    arrivals: tuple[int, ...]


@dataclass(frozen=True)
class JointRoute:
    """One of FC's joint routes: a route-set row per resource.

    ``rows`` is index-aligned with the placement, and ``covered`` holds the
    support targets those rows cover.  The record stays, with ``covered``,
    only because the benchmark reads FC's strategy through it; the benchmark
    change that reads rows deletes it (ROADMAP, "One joint-strategy
    representation").
    """

    rows: tuple[int, ...]
    covered: frozenset[int]


@dataclass(frozen=True)
class RouteSet:
    """Routes available to one resource under one signal.

    ``complete`` is False when the beam-limited search had to drop states and
    the set may be missing maximal routes.  ``targets`` is the sorted signal
    support and ``cover[i, j]`` says whether ``routes[i]`` covers
    ``targets[j]``; bit j of ``masks[i]`` says the same.  Both are built
    here, and the matrix is read-only.  ``_nc`` is the oracles' memo of this
    resource's NC game, so it lives exactly as long as the set.
    """

    routes: tuple[CoveringRoute, ...]
    start: int
    complete: bool
    targets: tuple[int, ...] = field(compare=False)
    cover: np.ndarray = field(init=False, compare=False, repr=False)
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _nc: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        visits = [t for r in self.routes for t in r.visits]
        rows = np.repeat(np.arange(len(self.routes)), [len(r.visits) for r in self.routes])
        cover = np.zeros((len(self.routes), len(self.targets)), dtype=bool)
        cover[rows, np.searchsorted(self.targets, visits)] = True
        cover.flags.writeable = False
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "masks", tuple(row_masks(cover)))


def covering_routes(
    setting: PatrollingSetting,
    dist: np.ndarray,
    start: int,
    support: Iterable[int],
) -> RouteSet:
    """All maximal non-dominated covering routes from ``start``.

    Dynamic program over (covered set, last target) states keeping the minimal
    completion time per state; a state expands to any unvisited support target
    reachable by its deadline.  Arrival times include the initial leg from the
    start vertex, otherwise a "covered" target could be unreachable by its
    deadline.  Routes whose covered set is contained in another's are dropped;
    the stay-at-start route is always present in addition (as the singleton
    visit when the start is itself a support target).

    The DP runs one level at a time on arrays.  Level s holds every state
    covering s targets: its covered set as a column of s ascending local
    target indices, its last target, its completion time and its parent's
    position in level s - 1.  States are kept in (set, last) order, where
    sets compare by their largest elements first: for sets of one size that
    is the numeric order of their bitmasks, whatever the number of reachable
    targets.  When a child is reached from several parents the minimal time
    wins, and among equal times the parent earliest in that order.

    ``dist`` must be a shortest-path metric, as ``all_pairs_distances``
    returns: a route's time at a vertex is then at least the start's distance
    to it, and dropping a visit never delays a later arrival.  A state's
    successors are the targets it can still make in time; they are listed by
    decreasing slack, so one binary search per state finds them.  Since every
    subset of a coverable set is coverable, a complete DP decides maximality
    by one-target removal: a set of size s is maximal iff it is none of the
    one-target removals of the level s + 1 sets, found by merging the two in
    one sort.

    When more than ``EXACT_LIMIT`` support targets are reachable each level is
    truncated to the ``BEAM_WIDTH`` states of least (time, set, last), and
    the result is flagged incomplete if anything was actually dropped.  A
    truncated DP may lack subsets of the sets it holds, so there the
    survivors of the removal test are also tested pairwise for containment.
    """
    dl = setting.deadline
    support_set = set(support)
    targets = tuple(sorted(support_set))
    d_start = dist[start]
    reach = [t for t in targets if d_start[t] <= dl[t]]
    k = len(reach)

    if start in support_set:
        sentinel = CoveringRoute(start, (start,), (0,))
    else:
        sentinel = CoveringRoute(start, (), ())
    if k == 0:
        return RouteSet((sentinel,), start, True, targets)

    # Successor lists, one block per local source a, by decreasing slack: j
    # follows a when a route at a by time tm <= slack[a, j] reaches j by its
    # deadline.  A route is at a no earlier than the start's distance to it.
    reach_arr = np.array(reach)
    first_leg = d_start[reach_arr]
    step = dist[np.ix_(reach_arr, reach_arr)]
    slack = np.array([dl[t] for t in reach]) - step
    src, dst = np.nonzero(first_leg[:, None] <= slack)
    order = np.lexsort((-slack[src, dst], src))
    src, dst = src[order], dst[order]
    succ_slack, succ_step = slack[src, dst], step[src, dst]
    block = np.searchsorted(src, np.arange(k))
    # One sorted key for all blocks, so that a single searchsorted counts, for
    # every state, the successors whose slack is at least its time.
    lo, hi = int(succ_slack.min()), int(succ_slack.max())
    width = hi - lo + 2
    base = np.arange(k) * width
    succ_key = base[src] - succ_slack
    # Target indices and (as sort keys) times in the narrowest dtypes, where
    # numpy's stable sorts are radix sorts; no time exceeds its deadline.
    index = np.min_scalar_type(k)
    clock = np.min_scalar_type(max(dl[t] for t in reach))
    dst = dst.astype(index)

    sets = np.arange(k, dtype=index)[None, :]
    last = np.arange(k, dtype=index)
    tm = first_leg
    parent = np.full(k, -1)
    levels = []
    complete = True
    while len(last):
        levels.append((sets, last, tm, parent))
        begin = block[last]
        count = np.searchsorted(succ_key, base[last] - np.clip(tm, lo, hi + 1), "right") - begin
        row = np.repeat(np.arange(len(last)), count)
        edge = np.arange(len(row)) + np.repeat(begin - np.cumsum(count) + count, count)
        j = dst[edge]
        old = sets[:, row]
        fresh = (old != j).all(axis=0)
        row, edge, j, old = row[fresh], edge[fresh], j[fresh], old[:, fresh]
        nt = tm[row] + succ_step[edge]
        # Insert j into each set: below it the set's own indices, then j, then
        # the rest shifted up by one position.
        s = len(old)
        child = np.empty((s + 1, len(j)), dtype=index)
        child[0] = j
        child[1:] = np.maximum(old, j)
        child[:s] = np.where(old < j, old, child[:s])
        # Candidates come in parent row order and lexsort is stable, so the
        # first of each (set, last) group has the least time, then parent.
        order = np.lexsort((nt.astype(clock), j, *child))
        child, j, nt, row = child[:, order], j[order], nt[order], row[order]
        first = np.ones(len(j), dtype=bool)
        first[1:] = (j[1:] != j[:-1]) | (child[:, 1:] != child[:, :-1]).any(axis=0)
        sets, last, tm, parent = child[:, first], j[first], nt[first], row[first]
        if k > EXACT_LIMIT and len(last) > BEAM_WIDTH:
            keep = np.sort(np.argsort(tm, kind="stable")[:BEAM_WIDTH])
            sets, last, tm, parent = sets[:, keep], last[keep], tm[keep], parent[keep]
            complete = False

    # Best representative per covered set: least (time, last).
    reps = []
    for sets, last, tm, _ in levels:
        new = np.ones(len(last), dtype=bool)
        new[1:] = (sets[:, 1:] != sets[:, :-1]).any(axis=0)
        reps.append(np.lexsort((tm, np.cumsum(new)))[new])
    # A set is maximal in a complete DP iff it is no next-level set minus
    # one target.
    maximal = []
    for size, rep in enumerate(reps, 1):
        keep = np.ones(len(rep), dtype=bool)
        if size < len(levels):
            bigger = levels[size][0][:, reps[size]]
            removals = np.concatenate([np.delete(bigger, c, axis=0) for c in range(size + 1)], 1)
            keep[_columns_in(levels[size - 1][0][:, rep], removals)] = False
        maximal.append(rep[keep])
    if not complete:
        # A truncated DP may lack those subsets: test the survivors pairwise.
        found = sorted(
            (-size, sum(1 << c for c in col), size, r)
            for size, rep in enumerate(maximal, 1)
            for col, r in zip(levels[size - 1][0][:, rep].T.tolist(), rep.tolist())
        )
        kept = []
        maximal = [[] for _ in levels]
        for _, mask, size, r in found:
            if not any(mask & m == mask for m in kept):
                kept.append(mask)
                maximal[size - 1].append(r)

    routes = []
    for size, rows in enumerate(maximal, 1):
        hops, times = [], []
        rows = np.asarray(rows, dtype=np.intp)
        for _, last, tm, parent in reversed(levels[:size]):
            hops.append(last[rows])
            times.append(tm[rows])
            rows = parent[rows]
        visits = reach_arr[np.array(hops[::-1]).T].tolist()
        arrivals = np.array(times[::-1]).T.tolist()
        routes += [CoveringRoute(start, tuple(v), tuple(a)) for v, a in zip(visits, arrivals)]
    routes.sort(key=lambda r: r.visits)

    out = [sentinel] + [r for r in routes if r.visits != sentinel.visits]
    return RouteSet(tuple(out), start, complete, targets)


def _columns_in(sets: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Indices of the (distinct) columns of ``sets`` that occur in ``pool``."""
    n = sets.shape[1]
    # Stable: each column of ``sets`` sorts just before its copies in ``pool``.
    order = np.lexsort(np.concatenate((sets, pool), axis=1))
    at = np.flatnonzero(order[:-1] < n)
    mine, after = order[at], order[at + 1] - n
    mine, after = mine[after >= 0], after[after >= 0]
    return mine[(sets[:, mine] == pool[:, after]).all(axis=0)]
