"""Covering routes: what one resource can still protect after a signal.

A covering route visits targets of the active signal's support, each by its
deadline, starting from the resource's placement vertex.  Only the set of
visited targets matters to the response games, so route generation keeps one
best representative (minimal completion time) per maximal covered set.

Every route set carries its coverage once, built with the set: as a
read-only boolean matrix with one row per route and one column per support
target, from which the oracles derive their payoff matrices and LP
coefficients, and as one integer bitmask per route for the FC best response.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .model import PatrollingSetting

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
    covered: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "covered", frozenset(self.visits))


@dataclass(frozen=True)
class JointRoute:
    """One covering route per resource, index-aligned with the placement."""

    routes: tuple[CoveringRoute, ...]
    covered: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        cov: set[int] = set()
        for r in self.routes:
            cov |= r.covered
        object.__setattr__(self, "covered", frozenset(cov))


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
        col = {t: j for j, t in enumerate(self.targets)}
        cover = np.zeros((len(self.routes), len(self.targets)), dtype=bool)
        masks = []
        for i, r in enumerate(self.routes):
            cols = [col[t] for t in r.visits]
            cover[i, cols] = True
            masks.append(sum(1 << j for j in cols))
        cover.flags.writeable = False
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "masks", tuple(masks))


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

    ``dist`` must be a shortest-path metric, as ``all_pairs_distances``
    returns: a route's time at a vertex is then at least the start's distance
    to it, and dropping a visit never delays a later arrival.  Each state
    scans only its successors that can still be reached in time, by
    decreasing slack, and stops at the first it cannot make.  Since every
    subset of a coverable set is coverable, a complete DP decides maximality
    by one-target removal: a set is maximal iff it is no other set minus one
    of its targets.

    When more than ``EXACT_LIMIT`` support targets are reachable the per-level
    state set is truncated to ``BEAM_WIDTH`` entries and the result is flagged
    incomplete if anything was actually dropped.  A truncated DP may lack
    subsets of the sets it holds, so there the survivors of the removal test
    are also tested pairwise for containment.
    """
    D = dist.tolist()
    dl = setting.deadline
    support_set = set(support)
    targets = tuple(sorted(support_set))
    d_start = D[start]
    reach = sorted(t for t in support_set if d_start[t] <= dl[t])
    k = len(reach)

    if start in support_set:
        sentinel = CoveringRoute(start, (start,), (0,))
    else:
        sentinel = CoveringRoute(start, (), ())
    if k == 0:
        return RouteSet((sentinel,), start, True, targets)

    dl_local = [dl[t] for t in reach]
    # succ[i]: (slack, j, travel time) for each target j that a route ending
    # at reach[i] can still make in time, by decreasing slack.
    succ = []
    for a in reach:
        row = D[a]
        moves = []
        for j, t in enumerate(reach):
            if d_start[a] + row[t] <= dl_local[j]:
                moves.append((dl_local[j] - row[t], j, row[t]))
        moves.sort(reverse=True)
        succ.append(moves)

    # state (mask over reach, last local index) -> (completion time, parent state)
    best: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {}
    level: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {}
    for j, t in enumerate(reach):
        level[(1 << j, j)] = (int(d_start[t]), None)
    complete = True
    while level:
        best.update(level)
        nxt: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {}
        for key in sorted(level):
            mask, last = key
            tm = level[key][0]
            for slack, j, dt in succ[last]:
                if tm > slack:
                    break
                if mask >> j & 1:
                    continue
                nt = tm + dt
                nk = (mask | (1 << j), j)
                cur = nxt.get(nk)
                if cur is None or nt < cur[0]:
                    nxt[nk] = (nt, key)
        if k > EXACT_LIMIT and len(nxt) > BEAM_WIDTH:
            keep = sorted(nxt.items(), key=lambda kv: (kv[1][0], kv[0]))[:BEAM_WIDTH]
            nxt = dict(keep)
            complete = False
        level = nxt

    # Best representative per covered set, then keep only maximal sets.
    per_mask: dict[int, tuple[int, int]] = {}
    for (mask, last), (tm, _) in best.items():
        cur = per_mask.get(mask)
        if cur is None or (tm, last) < cur:
            per_mask[mask] = (tm, last)
    # Drop every set that is another minus one target: in a complete DP,
    # exactly the non-maximal ones.  A truncated DP may lack those subsets,
    # so there the survivors are also tested pairwise.
    for mask in list(per_mask):
        rest = mask
        while rest:
            low = rest & -rest
            per_mask.pop(mask ^ low, None)
            rest ^= low
    maximal = per_mask
    if not complete:
        maximal = []
        for mask in sorted(per_mask, key=lambda m: (-m.bit_count(), m)):
            if not any(mask & m == mask for m in maximal):
                maximal.append(mask)

    routes = []
    for mask in sorted(maximal):
        _, last = per_mask[mask]
        chain: list[int] = []
        key: tuple[int, int] | None = (mask, last)
        while key is not None:
            chain.append(key[1])
            key = best[key][1]
        chain.reverse()
        visits = tuple(reach[j] for j in chain)
        arrivals = [int(d_start[visits[0]])]
        for a, b in zip(visits, visits[1:]):
            arrivals.append(arrivals[-1] + int(D[a][b]))
        routes.append(CoveringRoute(start, visits, tuple(arrivals)))
    routes.sort(key=lambda r: r.visits)

    out = [sentinel] + [r for r in routes if r.visits != sentinel.visits]
    return RouteSet(tuple(out), start, complete, targets)
