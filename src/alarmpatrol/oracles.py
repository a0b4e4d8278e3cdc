"""Signal response oracles under full, partial and no coordination.

Given a covering placement and per-resource covering-route sets for one
signal, each oracle returns signal-response strategies and the defender's
expected utility:

* NC: every resource solves its own zero-sum game on the targets it can
  reach, once per route set, and NC, PC and FC share that solution; the
  attacker then best-responds to the product distribution.
* PC: team maxmin of independently randomizing resources.  Alternating best
  responses (one response game per resource per round, updating the
  resource with the largest improvement, with random restarts) reach a local
  fixed point; the committed resource's game is reused in the next round,
  since no other resource moved its weights.  For two resources at micro
  scale a spatial branch and bound over one resource's strategy simplex then
  certifies or improves it to the global team maxmin.
* FC: maxmin over joint routes via row generation, alternating a
  constant-sum game LP with a best response.  Greedy joint routes drive the
  rounds; once they find no better row, an exact branch and bound, pruned
  by the union of the remaining routes and by the sum of each remaining
  resource's best marginal route, supplies the next row or certifies the
  value.  Both choose among each resource's coverage classes, its routes
  grouped by the targets they cover where the attacker's strategy has
  weight, scan them heaviest first and stop at the first class whose full
  weight cannot beat what is in hand.  The game LP lives for the whole call
  and resumes from its last basis each round.

The route sets are the oracles' only coverage input.  All route sets of one
call are built for the same signal and so share ``targets``, the signal's
support, which is the set of targets the attacker may choose; coverage is
``RouteSet.cover``, the boolean route-by-target matrix each set carries.
NC's games and FC's restricted game pay 1 where a row covers a target and
1 - pi_t where it does not; PC's response games pay the same with the
weights pi_t times the other resources' uncovered probabilities in place of
pi_t; the FC best responses read the same coverage from
``RouteSet.masks``, one pass per resource and round grouping the routes into
coverage classes.

Strategies are over route-set rows.  NC and PC return one probability
array per resource over its route set's rows.  FC knows a joint route as a
tuple of rows, one per resource, from its best responses to its result,
whose ``JointRoute`` records hold those rows and the targets they cover;
its attacker is an array over the support.  One function,
``unprotected``, turns either kind into each support target's probability
of staying unprotected, which every result carries as ``uncovered``.

Multiple signals are handled by solving one independent response game per
signal and aggregating with the attacker committing to a target before the
signal realizes, from the results' ``uncovered`` arrays.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .games import MixedStrategy, RowGame, normalized
from .model import AlarmSystem, PatrollingSetting
from .routes import JointRoute, RouteSet, covering_routes
from .seeding import stream

CONVERGENCE_EPS = 1e-7
PC_MAX_ITERATIONS = 200  # alternating rounds per PC run
# The PC team-maxmin search runs for two resources when the smaller route set
# has at most SEARCH_MAX_ROUTES routes; it closes once no box's upper bound
# exceeds the best value found by more than SEARCH_GAP, and gives up
# (flagging the result non-optimal) after SEARCH_NODE_CAP boxes.
SEARCH_MAX_ROUTES = 4
SEARCH_GAP = 1e-7
SEARCH_NODE_CAP = 2000
BOX_TOL = 1e-12  # rounding slack when testing a box against the simplex


@dataclass
class OracleDiagnostics:
    """How an oracle reached its value.

    ``not_optimal`` is None for a certified value and otherwise says why not:
    "timeout", "incomplete routes" (any oracle), "local fixed point",
    "iteration cap" or "search node cap" (PC).
    ``lp_pivots`` sums the pivots of the games the oracle solved: NC's
    games, PC's response games and FC's master, plus the NC start of PC and
    FC.  An NC game already solved for the route set counts the pivots it
    took then; a PC response game reused from the previous round counts
    none.
    """

    iterations: int = 0
    routes_generated: int = 0
    lp_pivots: int = 0
    not_optimal: str | None = None
    trace: tuple[float, ...] = ()
    extra: dict = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        return self.not_optimal is None

    @property
    def timed_out(self) -> bool:
        return self.not_optimal == "timeout"


def _diagnostics(
    route_sets: Sequence[RouteSet], not_optimal: str | None = None, **fields
) -> OracleDiagnostics:
    """Diagnostics of one oracle call: no value is certified over incomplete routes."""
    if not_optimal is None and not all(rs.complete for rs in route_sets):
        not_optimal = "incomplete routes"
    return OracleDiagnostics(not_optimal=not_optimal, **fields)


@dataclass
class OracleResult:
    """Strategies plus defender value for one signal under one scheme.

    NC and PC fill ``per_resource``, one probability array per resource over
    its route set's rows; FC fills ``joint``, a distribution over its
    support's ``JointRoute`` records (route-set rows and covered targets).
    ``uncovered`` holds, per support target, the probability that the
    strategies leave it unprotected.
    """

    value: float
    diagnostics: OracleDiagnostics
    uncovered: np.ndarray
    per_resource: tuple[np.ndarray, ...] | None = None
    joint: MixedStrategy | None = None


def _support(route_sets: Sequence[RouteSet]) -> tuple[int, ...]:
    """The signal support shared by one call's route sets."""
    if len({rs.targets for rs in route_sets}) > 1:
        raise ValueError("route sets were built for different signal supports")
    return route_sets[0].targets


def unprotected(draws: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray | float:
    """Probability that each support target stays unprotected.

    ``draws`` are independent random choices, each a coverage matrix (one
    row per action, one column per support target) and a probability array
    over its rows.  A target stays unprotected when no draw covers it: the
    product over the draws of 1 - coverage, clipped to [0, 1].  NC and PC
    draw once per resource, ``(rs.cover, x)``; FC draws once, from the
    coverage rows of its joint routes.  No draws give 1.0.
    """
    miss = 1.0
    for cover, x in draws:
        miss = miss * np.clip(1.0 - x @ cover, 0.0, 1.0)
    return miss


def evaluate_profile(uncovered: np.ndarray, pi: np.ndarray) -> float:
    """Defender value when the attacker observes the strategies and best-responds.

    ``uncovered`` is ``unprotected``'s answer and ``pi`` the support targets'
    values, index-aligned.
    """
    return 1.0 - float(np.max(pi * uncovered, initial=0.0))


def _nc_game(rs: RouteSet, setting: PatrollingSetting) -> tuple[np.ndarray, int]:
    """One resource's maxmin on the targets its routes cover, and its pivots.

    The strategy is a read-only probability array over the route set's rows.
    Solved once per route set and setting: the answer is kept on the route
    set, whose lifetime is the route cache's, and a later call returns it
    with the pivots the solve made.
    """
    if rs._nc is not None and rs._nc[0] is setting:
        return rs._nc[1], rs._nc[2]
    cols = np.flatnonzero(rs.cover.any(axis=0))
    if not cols.size:
        x, pivots = np.eye(1, len(rs.routes))[0], 0
    else:
        pi = np.array([setting.value[rs.targets[j]] for j in cols])
        game = RowGame(np.where(rs.cover[:, cols], 1.0, 1.0 - pi))
        x, _, _ = game.solve()
        pivots = game.pivots
    x.flags.writeable = False
    object.__setattr__(rs, "_nc", (setting, x, pivots))
    return x, pivots


def nc_sro(route_sets: Sequence[RouteSet], setting: PatrollingSetting) -> OracleResult:
    """Independent resources: one restricted zero-sum game per resource.

    Resource i plays its maxmin on the targets its routes cover, which are
    exactly those it can reach by their deadlines; the overall value prices
    the attacker's best response to the product of the resulting marginals.
    Each route set's game is solved once (``_nc_game``).
    """
    support = _support(route_sets)
    strategies: list[np.ndarray] = []
    pivots = 0
    for rs in route_sets:
        x, game_pivots = _nc_game(rs, setting)
        strategies.append(x)
        pivots += game_pivots
    uncovered = unprotected((rs.cover, x) for rs, x in zip(route_sets, strategies))
    value = evaluate_profile(uncovered, np.array([setting.value[t] for t in support]))
    n_routes = sum(len(rs.routes) for rs in route_sets)
    diag = _diagnostics(
        route_sets, iterations=len(route_sets), routes_generated=n_routes, lp_pivots=pivots
    )
    return OracleResult(value, diag, uncovered, per_resource=tuple(strategies))


def _weight_bits(w: Sequence[float], mask: int) -> float:
    total = 0.0
    while mask:
        low = mask & -mask
        total += w[low.bit_length() - 1]
        mask ^= low
    return total


def _setup(
    route_sets: Sequence[RouteSet], attacker: np.ndarray, setting: PatrollingSetting
) -> tuple[list[float], list[list[int]], list[list[int]], list[list[float]], list[list[int]]]:
    """What both FC best responses read: the weight sigma(t) pi(t) of each
    support target, where the attacker's weight lies, and per resource its
    coverage classes.  ``attacker`` holds sigma, one probability per support
    target.

    A class is one distinct value of ``mask & live``, the targets a route
    covers where the attacker's weight lies.  ``reps`` holds each class's
    lowest route index, and the classes come in increasing ``reps`` order,
    with their masks, full weights and order by weight.  Routes of one class
    add the same weight to every partial joint route, so the best responses
    choose among classes, and map a choice back through ``reps``."""
    support = _support(route_sets)
    if np.shape(attacker) != (len(support),):
        raise ValueError("attacker needs one probability per support target")
    probs = np.asarray(attacker, dtype=float).tolist()
    w = [p * setting.value[t] if p > 0.0 else 0.0 for p, t in zip(probs, support)]
    live = sum(1 << j for j, p in enumerate(probs) if p > 0.0)
    reps, masks = [], []
    for rs in route_sets:
        first: dict[int, int] = {}
        for j, m in enumerate(rs.masks):
            first.setdefault(m & live, j)
        masks.append(list(first))
        reps.append(list(first.values()))
    full = [[_weight_bits(w, m) for m in ms] for ms in masks]
    orders = [sorted(range(len(fs)), key=lambda j: (-fs[j], j)) for fs in full]
    return w, reps, masks, full, orders


def _joint(reps: Sequence[Sequence[int]], choice: Sequence[int]) -> tuple[int, ...]:
    """The joint route of one class per resource, as route-set rows: each
    class's representative."""
    return tuple(r[c] for r, c in zip(reps, choice))


def _greedy(
    masks: Sequence[Sequence[int]],
    w: Sequence[float],
    full: Sequence[Sequence[float]],
    orders: Sequence[Sequence[int]],
    first: int,
) -> tuple[list[int], float]:
    """Greedy joint route (one class index per resource) and its weight.

    From resource ``first`` round to the one before it, each resource takes
    the class adding the most weight, lowest index on ties.  Classes are
    scanned heaviest first (``orders``) and the scan stops at the first
    class whose full weight is below the best gain so far, since a class
    never adds more than its full weight.  A class's index orders it as its
    representative, the lowest index of its routes, so the choice maps back
    to the route a scan over all routes would take.
    """
    choice = [0] * len(masks)
    cur = 0
    for i in [*range(first, len(masks)), *range(first)]:
        ms, fs = masks[i], full[i]
        best_j, best_gain = -1, -1.0
        for j in orders[i]:
            if fs[j] < best_gain:
                break
            gain = _weight_bits(w, ms[j] & ~cur)
            if gain > best_gain or (gain == best_gain and j < best_j):
                best_j, best_gain = j, gain
        choice[i] = best_j
        cur |= ms[best_j]
    return choice, _weight_bits(w, cur)


def _greedy_response(
    route_sets: Sequence[RouteSet],
    attacker: np.ndarray,
    setting: PatrollingSetting,
    *,
    _classes: tuple | None = None,
) -> tuple[tuple[int, ...], float]:
    """FC's cheap best response and its objective: the heaviest of the m
    ``_greedy`` joint routes, a later start winning only by more than 1e-12.
    """
    w, reps, masks, full, orders = _classes or _setup(route_sets, attacker, setting)
    best_choice, best_w = _greedy(masks, w, full, orders, 0)
    for first in range(1, len(masks)):
        choice, choice_w = _greedy(masks, w, full, orders, first)
        if choice_w > best_w + 1e-12:
            best_choice, best_w = choice, choice_w
    return _joint(reps, best_choice), 1.0 - sum(w) + best_w


def best_response_ilp(
    route_sets: Sequence[RouteSet],
    attacker: np.ndarray,
    setting: PatrollingSetting,
    *,
    deadline: float | None = None,
    _classes: tuple | None = None,
) -> tuple[tuple[int, ...], float, bool]:
    """Joint route maximizing 1 - sum_t sigma(t) pi(t) (1 - y_t), exactly.

    A depth-first branch and bound over per-resource route choices, with
    the greedy joint route ``_greedy(..., 0)`` as its incumbent: each
    resource in turn takes the route adding the most attacker weight, lowest
    index on ties.  It prunes by the uncovered weight of the union of all
    remaining routes and by the sum of each remaining resource's best
    uncovered route weight; the search order and strict improvement fix
    which optimum is returned.  The subproblem is NP-hard in general, so it
    honors ``deadline`` and may return a non-optimal incumbent (flagged
    False).  ``attacker`` is sigma, one probability per support target, and
    the joint route comes back as one route-set row per resource.

    The search runs over each resource's coverage classes (``_setup``), not
    its routes, and returns each chosen class's representative.  That is the
    answer a search over all routes gives: the routes of a class have equal
    gains, the ``(-full, index)`` order meets a class's representative
    before its other routes, and an identical sibling's subtree holds no
    leaf above what its representative's subtree left in ``best_w``, so it
    never wins the strict ``> best_w + 1e-12`` test.

    Each resource's classes are ranked once by their full weight, heaviest
    first, and every scan over them (the greedy, the best-marginal bound and
    the last resource's leaves) stops at the first class whose full weight
    cannot beat what is in hand.  The weights are non-negative and summed in
    bit order, so a class's uncovered weight never exceeds its full weight
    in floating point either, and the early exits change no answer.

    ``_classes`` is ``fc_sro``'s ``_setup`` for this attacker, shared with
    the round's greedy response; the incumbent is computed here all the same.
    """
    w, reps, masks, full, orders = _classes or _setup(route_sets, attacker, setting)
    best_choice, best_w = _greedy(masks, w, full, orders, 0)
    n_res = len(route_sets)

    suffix = [0] * (n_res + 1)
    for i in range(n_res - 1, -1, -1):
        union = 0
        for m in masks[i]:
            union |= m
        suffix[i] = suffix[i + 1] | union

    # Depth-first over (resource, mask, weight, picks) on an explicit stack:
    # children are pushed in reverse so they pop in ``orders`` order, and each
    # node is tested when popped, as a recursive search would visit it.  The
    # last resource's leaves would pop next, in that order, so they are
    # scanned in place instead; each counts as a node.
    last = n_res - 1
    nodes = 0
    timed_out = False
    stack: list[tuple[int, int, float, tuple[int, ...]]] = [(0, 0, 0.0, ())]
    while stack and not timed_out:
        i, cur_mask, cur_w, picked = stack.pop()
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            timed_out = True
            break
        if cur_w + _weight_bits(w, suffix[i] & ~cur_mask) <= best_w + 1e-12:
            continue
        # Summed in the order a leaf sums its gains, so never below any leaf.
        bound = cur_w
        for k in range(i, n_res):
            ms, fs = masks[k], full[k]
            top = 0.0
            for j in orders[k]:
                if fs[j] <= top:
                    break
                gain = _weight_bits(w, ms[j] & ~cur_mask)
                if gain > top:
                    top = gain
            bound += top
        if bound <= best_w + 1e-12:
            continue
        ms, fs = masks[i], full[i]
        if i < last:
            for j in reversed(orders[i]):
                gain = _weight_bits(w, ms[j] & ~cur_mask)
                stack.append((i + 1, cur_mask | ms[j], cur_w + gain, picked + (j,)))
            continue
        # A leaf weighs at most cur_w plus its route's full weight.
        for j in orders[i]:
            if cur_w + fs[j] <= best_w + 1e-12:
                break
            nodes += 1
            if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
                timed_out = True
                break
            leaf_w = cur_w + _weight_bits(w, ms[j] & ~cur_mask)
            if leaf_w > best_w + 1e-12:
                best_w = leaf_w
                best_choice = [*picked, j]

    return _joint(reps, best_choice), 1.0 - sum(w) + best_w, not timed_out


def fc_sro(
    route_sets: Sequence[RouteSet],
    setting: PatrollingSetting,
    *,
    deadline: float | None = None,
) -> OracleResult:
    """Full coordination: maxmin over joint covering routes by row generation.

    Starting from the joint route of each resource's most likely NC route,
    each round solves the constant-sum game restricted to the current rows
    and adds a better row against the attacker's minmax strategy: the cheap
    ``_greedy_response`` when it is a new row beating the value by more than
    1e-12, else the exact ``best_response_ilp``'s.  When the exact response
    is already a row, or its objective does not beat the value by more than
    1e-12, no joint route beats the value against that attacker, so the
    value is the FC maxmin over the full joint space and the loop stops.
    Every other round adds a new joint route, of which there are finitely
    many, so the loop terminates, and only an exact response ends it (a
    double oracle with cheap better responses; Jain et al., 2011).

    The restricted game is one ``RowGame`` for the whole call: a new joint
    route is one new LP column, priced against the solved basis, and the LP
    resumes phase 2 from that basis, which stays feasible, so a round costs
    a few pivots rather than a cold solve.  Each round groups the routes
    into coverage classes once (``_setup``) for both best responses.  Rows
    are joint routes as tuples of route-set rows, kept so in the result's
    ``JointRoute`` records, whose ``covered`` is read from the row's
    coverage in the master (all rows 0, none covered, on an empty support).

    ``diagnostics.optimal`` is True only for a converged run over complete
    route sets; otherwise ``diagnostics.not_optimal`` is "timeout" (the
    deadline passed, or the exact search did not finish before it) or
    "incomplete routes".
    """
    targets = _support(route_sets)
    if not targets:
        # Signal with empty support: nothing to protect, nothing to attack.
        jr = JointRoute((0,) * len(route_sets), frozenset())
        diag = _diagnostics(route_sets, routes_generated=1)
        return OracleResult(1.0, diag, np.ones(0), joint=MixedStrategy({jr: 1.0}))

    # The master's rows, in order, with their coverage: the OR of the chosen
    # rows of the route-set matrices.
    pi = np.array([setting.value[t] for t in targets])
    covers: dict[tuple[int, ...], np.ndarray] = {}

    def new_row(choice: tuple[int, ...]) -> np.ndarray:
        """Record joint route ``choice`` as the next row; its payoffs."""
        covers[choice] = np.logical_or.reduce(
            [rs.cover[i] for rs, i in zip(route_sets, choice)]
        )
        return np.where(covers[choice], 1.0, 1.0 - pi)

    # Each resource's most likely NC route, the first on ties.
    nc = nc_sro(route_sets, setting)
    first = tuple(int(np.argmax(x)) for x in nc.per_resource)
    game = RowGame(new_row(first)[None])

    trace: list[float] = []
    not_optimal = None
    while True:
        x, attacker, value = game.solve()
        trace.append(value)
        if deadline is not None and time.monotonic() > deadline:
            not_optimal = "timeout"
            break
        classes = _setup(route_sets, attacker, setting)
        br, objective = _greedy_response(route_sets, attacker, setting, _classes=classes)
        if br in covers or objective <= value + 1e-12:
            br, objective, certified = best_response_ilp(
                route_sets, attacker, setting, deadline=deadline, _classes=classes
            )
            if not certified:
                not_optimal = "timeout"
                break
            if br in covers or objective <= value + 1e-12:
                break
        game.add_row(new_row(br))

    rows = list(covers)
    support = np.flatnonzero(x)
    chosen = [rows[k] for k in support]
    joint = MixedStrategy({
        JointRoute(row, frozenset(np.compress(covers[row], targets).tolist())): float(p)
        for row, p in zip(chosen, x[support])
    })
    uncovered = unprotected([(np.array([covers[row] for row in chosen]), x[support])])
    diag = _diagnostics(
        route_sets, not_optimal, iterations=len(trace), routes_generated=len(rows),
        trace=tuple(trace), lp_pivots=game.pivots + nc.diagnostics.lp_pivots,
    )
    return OracleResult(value, diag, uncovered, joint=joint)


def _random_simplex(size: int, rng) -> np.ndarray:
    draws = np.array([rng.expovariate(1.0) for _ in range(size)])
    return draws / draws.sum()


def _response_game(I: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Best strategy of one resource against per-target weights.

    Minimizes v = max_t w_t (1 - sum_r I[r,t] x_r) over the simplex: NC's
    game with w_t in place of pi_t, v one minus its value.  Returns the
    strategy, v and the game's pivots.  The simplex returns the first of
    many optimal strategies it reaches, so the rows go in heaviest first (by
    the weight each route covers, ties in route-set order): in route-set
    order that strategy parks its spare mass on the stay-at-start route, and
    PC then settles on lower fixed points more often than higher ones.
    """
    order = np.argsort(-(I @ weights), kind="stable")
    game = RowGame(np.where(I[order] > 0, 1.0, 1.0 - weights))
    x_sorted, _, value = game.solve()
    x = np.empty_like(x_sorted)
    x[order] = x_sorted
    return x, 1.0 - value, game.pivots


def _undominated(I: np.ndarray) -> list[int]:
    """Rows of a 0/1 coverage matrix not covered by another row (first of equals)."""
    keep = []
    for i, row in enumerate(I):
        if not any(
            j != i and np.all(row <= other) and (j < i or np.any(row < other))
            for j, other in enumerate(I)
        ):
            keep.append(i)
    return keep


def _tighten(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Shrink a box to its hull on the probability simplex; None if they miss."""
    hi = np.minimum(hi, 1.0 - (lo.sum() - lo))
    lo = np.maximum(lo, 1.0 - (hi.sum() - hi))
    if np.any(lo > hi + BOX_TOL) or lo.sum() > 1.0 + BOX_TOL or hi.sum() < 1.0 - BOX_TOL:
        return None
    return lo, np.maximum(hi, lo)


def _team_search(
    covers: Sequence[np.ndarray],
    pi: np.ndarray,
    profile: list[np.ndarray],
    value: float,
) -> tuple[list[np.ndarray], float, int, float, bool, int]:
    """Global two-resource team maxmin by spatial branch and bound.

    Branches on boxes lo <= x <= hi over the strategy simplex of resource a,
    the one with fewer routes (dominated routes dropped), splitting the
    longest edge.  Over a box, target t's uncovered probability under a is
    at least 1 - qbar_t, where qbar_t, a's largest coverage of t in the box,
    is a fractional knapsack: the lower bounds plus the remaining mass poured
    into the routes covering t.  The other resource's response game against
    weights pi_t (1 - qbar_t) therefore bounds every value in the box from
    above, and its game at one point of the box gives a feasible profile.
    Best-first from the incumbent ``profile`` of value ``value``; returns the
    best profile and its value, the boxes evaluated, the proven upper bound
    on the team maxmin, whether the bound is within SEARCH_GAP of the best
    value, and the pivots of the search's games.
    """
    a = 0 if len(covers[0]) <= len(covers[1]) else 1
    keep = _undominated(covers[a])
    A, B = covers[a][keep], covers[1 - a]

    def visit(lo: np.ndarray, hi: np.ndarray) -> float:
        nonlocal profile, value, nodes, pivots
        nodes += 1
        slack = 1.0 - lo.sum()
        width = hi - lo
        qbar = A.T @ lo + np.minimum(slack, A.T @ width)
        _, v_bound, bound_pivots = _response_game(B, pi * (1.0 - qbar))
        total = width.sum()
        x = lo + width * (slack / total) if total > 0.0 else lo
        y, v, point_pivots = _response_game(B, pi * (1.0 - A.T @ x))
        pivots += bound_pivots + point_pivots
        if 1.0 - v > value:
            full = np.zeros(len(covers[a]))
            full[keep] = x
            profile = [full, y] if a == 0 else [y, full]
            value = 1.0 - v
        return 1.0 - v_bound

    nodes = pivots = 0
    pruned = -np.inf
    heap: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    boxes = [_tighten(np.zeros(len(keep)), np.ones(len(keep)))]
    while True:
        for lo, hi in filter(None, boxes):
            ub = visit(lo, hi)
            if ub > value + SEARCH_GAP:
                heapq.heappush(heap, (-ub, nodes, lo, hi))
            else:
                pruned = max(pruned, ub)
        if heap and -heap[0][0] <= value + SEARCH_GAP:
            pruned = max(pruned, -heap[0][0])
            heap.clear()
        if not heap or nodes >= SEARCH_NODE_CAP:
            break
        _, _, lo, hi = heapq.heappop(heap)
        k = int(np.argmax(hi - lo))
        mid = 0.5 * (lo[k] + hi[k])
        lower_hi, upper_lo = hi.copy(), lo.copy()
        lower_hi[k] = upper_lo[k] = mid
        boxes = [_tighten(lo, lower_hi), _tighten(upper_lo, hi)]
    upper = max(pruned, -heap[0][0]) if heap else pruned
    return profile, value, nodes, float(upper), not heap, pivots


def pc_sro(
    route_sets: Sequence[RouteSet],
    setting: PatrollingSetting,
    *,
    restarts: int = 0,
    seed: int = 0,
    deadline: float | None = None,
) -> OracleResult:
    """Partial coordination: team maxmin of independently randomizing resources.

    Fixing all strategies but one makes the team program linear in the free
    resource: it is a response game (``_response_game``, rows heaviest
    first).  Each round solves those m games and commits the resource with
    the largest improvement, which makes the value trace non-strictly
    monotone.  The committed resource's game is not solved again next round:
    no other resource moved, so its weights, and its answer, are the same.
    Starts from the NC solution and optionally repeats from random strategy
    profiles, keeping the best run.  That run stops at a fixed point,
    which may be local.  For two resources whose smaller route set has at
    most SEARCH_MAX_ROUTES routes, ``_team_search`` then branches and bounds
    from the best run to the global team maxmin; its profile replaces the
    run's, and its value ends the trace, only when it is better by more than
    CONVERGENCE_EPS, so a certified value is within SEARCH_GAP +
    CONVERGENCE_EPS of the optimum.  Once ``deadline`` (a ``time.monotonic``
    instant) has passed, no further round or restart starts and the search
    is skipped: the best profile so far is returned, flagged "timeout".

    ``diagnostics.optimal`` is True only for one resource (a single game is
    global) or when the search closed its bound gap, and never over
    incomplete route sets.  Otherwise ``diagnostics.not_optimal`` says why:
    "timeout", "local fixed point", "iteration cap", "search node cap" or
    "incomplete routes".  A search records its boxes, proven upper bound and
    remaining gap in ``diagnostics.extra["search"]``.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    targets = _support(route_sets)
    if not targets:
        # Signal with empty support: nothing to protect, nothing to attack.
        stay = tuple(np.eye(1, len(rs.routes))[0] for rs in route_sets)
        diag = _diagnostics(
            route_sets, trace=(1.0,), routes_generated=sum(len(rs.routes) for rs in route_sets)
        )
        return OracleResult(1.0, diag, np.ones(0), per_resource=stay)
    m = len(route_sets)
    pi = np.array([setting.value[t] for t in targets])
    covers = [rs.cover for rs in route_sets]

    timed_out = False
    pivots = 0

    def expired() -> bool:
        nonlocal timed_out
        timed_out = timed_out or (deadline is not None and time.monotonic() > deadline)
        return timed_out

    def run(profile: list[np.ndarray]) -> tuple[list[np.ndarray], float, list[float], bool]:
        nonlocal pivots
        val = evaluate_profile(unprotected(zip(covers, profile)), pi)
        hist = [val]
        converged = False
        # Response games whose weights no commit has changed since they were
        # solved: after a commit, only the committed resource's.
        solved: dict[int, tuple[np.ndarray, float]] = {}
        for _ in range(PC_MAX_ITERATIONS):
            if expired():
                break
            best_i, best_val = -1, val
            for i in range(m):
                if i not in solved:
                    others = unprotected(
                        draw for j, draw in enumerate(zip(covers, profile)) if j != i
                    )
                    x_new, v, lp_pivots = _response_game(covers[i], pi * others)
                    pivots += lp_pivots
                    solved[i] = x_new, v
                cand = 1.0 - solved[i][1]
                if cand > best_val + CONVERGENCE_EPS:
                    best_i, best_val = i, cand
            if best_i < 0:
                converged = True
                break
            profile[best_i] = solved[best_i][0]
            solved = {best_i: solved[best_i]}
            val = evaluate_profile(unprotected(zip(covers, profile)), pi)
            hist.append(val)
        return profile, val, hist, converged

    nc = nc_sro(route_sets, setting)
    pivots += nc.diagnostics.lp_pivots
    profiles = [list(nc.per_resource)] + [
        [_random_simplex(len(rs.routes), stream(seed, "pc-restart", k, i)) for i, rs in enumerate(route_sets)]
        for k in range(restarts)
    ]
    best_profile, best_val, best_hist = None, -1.0, []
    traces: list[tuple[float, ...]] = []
    all_converged = True
    for k, prof in enumerate(profiles):
        if k and expired():  # the NC start always runs: there is a profile to return
            break
        final, val, hist, converged = run([x.copy() for x in prof])
        traces.append(tuple(hist))
        all_converged &= converged
        if val > best_val:
            best_profile, best_val, best_hist = final, val, hist

    iterations = len(best_hist) - 1
    extra: dict = {"traces": traces}
    not_optimal = None
    searchable = m == 2 and min(map(len, covers)) <= SEARCH_MAX_ROUTES
    if timed_out or (searchable and expired()):
        not_optimal = "timeout"
    elif searchable:
        found, found_val, nodes, upper, closed, search_pivots = _team_search(
            covers, pi, best_profile, best_val
        )
        pivots += search_pivots
        if found_val > best_val + CONVERGENCE_EPS:
            best_val = evaluate_profile(unprotected(zip(covers, found)), pi)
            best_profile = found
            best_hist = best_hist + [best_val]
        extra["search"] = {
            "nodes": nodes,
            "upper_bound": upper,
            "gap": max(0.0, upper - best_val),
        }
        if not closed:
            not_optimal = "search node cap"
    elif m == 1:
        # One resource: the first round is already the global optimum.
        if not all_converged:
            not_optimal = "iteration cap"
    else:
        not_optimal = "local fixed point" if all_converged else "iteration cap"

    strategies = tuple(normalized(x) for x in best_profile)
    uncovered = unprotected(zip(covers, strategies))
    diag = _diagnostics(
        route_sets, not_optimal, iterations=iterations, trace=tuple(best_hist), extra=extra,
        routes_generated=sum(len(rs.routes) for rs in route_sets), lp_pivots=pivots,
    )
    return OracleResult(best_val, diag, uncovered, per_resource=strategies)


@dataclass
class SignalResponse:
    """Per-signal oracle results plus the aggregate value over the alarm system."""

    scheme: str
    value: float
    per_signal: dict[str, OracleResult]
    route_sets: dict[str, tuple[RouteSet, ...]]


def aggregate_value(
    setting: PatrollingSetting,
    alarm: AlarmSystem,
    per_signal: Mapping[str, OracleResult],
) -> float:
    """Attacker picks the target before the signal realizes; signals stay exogenous.

    A target stays unprotected with probability sum_s p(s | t) times its
    ``uncovered`` entry under signal s's result.
    """
    u = np.zeros(setting.n)
    for s in alarm.signals:
        support = list(alarm.signal_support(s))
        u[support] += np.array([alarm.prob[s][t] for t in support]) * per_signal[s].uncovered
    targets = list(setting.targets)
    return evaluate_profile(u[targets], np.array([setting.value[t] for t in targets]))


def respond(
    setting: PatrollingSetting,
    dist: np.ndarray,
    alarm: AlarmSystem,
    positions: Sequence[int],
    scheme: str,
    *,
    route_cache: dict | None = None,
    pc_restarts: int = 0,
    seed: int = 0,
    deadline: float | None = None,
) -> SignalResponse:
    """Solve one response game per signal for a placement and aggregate.

    ``positions`` lists one start vertex per resource; repeats are allowed so
    several patrollers can share a guard post (they then share the post's
    route set).
    """
    scheme = scheme.upper()
    if scheme not in ("FC", "PC", "NC"):
        raise ValueError(f"unknown coordination scheme {scheme!r}")
    cache = route_cache if route_cache is not None else {}
    per_signal: dict[str, OracleResult] = {}
    rsets: dict[str, tuple[RouteSet, ...]] = {}
    for s in alarm.signals:
        support = alarm.signal_support(s)
        sets = []
        for p in positions:
            if (p, s) not in cache:
                cache[p, s] = covering_routes(setting, dist, p, support)
            sets.append(cache[p, s])
        sets = tuple(sets)
        rsets[s] = sets
        if scheme == "NC":
            per_signal[s] = nc_sro(sets, setting)
        elif scheme == "PC":
            per_signal[s] = pc_sro(
                sets, setting, restarts=pc_restarts, seed=seed, deadline=deadline
            )
        else:
            per_signal[s] = fc_sro(sets, setting, deadline=deadline)
    value = aggregate_value(setting, alarm, per_signal)
    return SignalResponse(
        scheme=scheme, value=value, per_signal=per_signal, route_sets=rsets
    )
