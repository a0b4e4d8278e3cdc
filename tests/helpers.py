"""Instance builders and independent brute-force oracles for the test suite.

Everything here is deliberately naive (exhaustive enumeration, permutation
search, square-kernel enumeration, grid search) so it can serve as ground
truth for the algorithms under test.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from alarmpatrol import (
    AlarmSystem,
    PatrollingSetting,
    build_alarm,
    build_setting,
)
from alarmpatrol.lp import LinearProgram


# -- builders ----------------------------------------------------------------


def make_setting(
    n: int,
    edges: list[tuple[int, int]],
    targets: dict[int, tuple[float, int]] | None = None,
    value: float = 1.0,
    deadline: int = 1,
) -> PatrollingSetting:
    """Setting over vertices v0..v{n-1}; ``targets`` defaults to all vertices."""
    ids = [f"v{i}" for i in range(n)]
    if targets is None:
        targets = {i: (value, deadline) for i in range(n)}
    triples = [(ids[i], v, d) for i, (v, d) in sorted(targets.items())]
    return build_setting(ids, [(ids[u], ids[v]) for u, v in edges], triples)


def single_signal(setting: PatrollingSetting) -> AlarmSystem:
    probs = {setting.ids[t]: 1.0 for t in setting.targets}
    return build_alarm(setting, [("s0", probs)])


def random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(rng.randrange(k), k) for k in range(1, n)]


def random_connected_edges(n: int, extra: int, rng: random.Random) -> list[tuple[int, int]]:
    edges = {(min(u, v), max(u, v)) for u, v in random_tree_edges(n, rng)}
    cap = n * (n - 1) // 2
    while len(edges) < min(cap, n - 1 + extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def random_setting(
    n: int,
    rng: random.Random,
    *,
    extra_edges: int | None = None,
    deadlines: tuple[int, ...] = (1, 2, 3),
    target_fraction: float = 1.0,
) -> PatrollingSetting:
    extra = rng.randrange(n) if extra_edges is None else extra_edges
    edges = random_connected_edges(n, extra, rng)
    targets = {}
    for i in range(n):
        if rng.random() <= target_fraction or i == 0:
            targets[i] = (rng.uniform(0.05, 1.0), rng.choice(deadlines))
    return make_setting(n, edges, targets)


def cycle_setting(n: int, rng: random.Random | None = None, deadline: int = 1,
                  deadlines: tuple[int, ...] = ()) -> PatrollingSetting:
    edges = [(i, (i + 1) % n) for i in range(n)]
    targets = {}
    for i in range(n):
        d = rng.choice(deadlines) if (rng and deadlines) else deadline
        targets[i] = (1.0, d)
    return make_setting(n, edges, targets)


# -- exhaustive covering-placement oracle ------------------------------------


def brute_min_cover_size(setting: PatrollingSetting, dist: np.ndarray) -> int:
    """Smallest k admitting a covering placement, by direct enumeration."""
    n = setting.n
    cover = {
        v: {t for t in setting.targets if dist[v][t] <= setting.deadline[t]}
        for v in range(n)
    }
    universe = set(setting.targets)
    if not universe:
        return 0
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            got = set()
            for v in combo:
                got |= cover[v]
            if got >= universe:
                return k
    raise AssertionError("no covering placement exists")


def brute_covering_placements(
    setting: PatrollingSetting, dist: np.ndarray, m: int
) -> set[tuple[int, ...]]:
    cover = {
        v: {t for t in setting.targets if dist[v][t] <= setting.deadline[t]}
        for v in range(setting.n)
    }
    universe = set(setting.targets)
    found = set()
    for combo in itertools.combinations(range(setting.n), m):
        got = set()
        for v in combo:
            got |= cover[v]
        if got >= universe:
            found.add(combo)
    return found


# -- shortest paths by exhaustive simple-path search -------------------------


def brute_distance(setting: PatrollingSetting, u: int, v: int) -> int:
    best = math.inf

    def dfs(node: int, seen: set[int], length: int) -> None:
        nonlocal best
        if length >= best:
            return
        if node == v:
            best = length
            return
        for w in setting.adj[node]:
            if w not in seen:
                seen.add(w)
                dfs(w, seen, length + 1)
                seen.remove(w)

    dfs(u, {u}, 0)
    return int(best)


# -- feasible route orders by permutation search -----------------------------


def brute_route_cover_sets(
    setting: PatrollingSetting, dist: np.ndarray, start: int, support: tuple[int, ...]
) -> set[frozenset[int]]:
    """Every coverable target subset from ``start`` (all, not just maximal)."""
    feasible: set[frozenset[int]] = {frozenset()}

    def extend(order: list[int], elapsed: int) -> None:
        feasible.add(frozenset(order))
        for t in support:
            if t in order:
                continue
            frm = order[-1] if order else start
            arrive = elapsed + int(dist[frm][t])
            if arrive <= setting.deadline[t]:
                order.append(t)
                extend(order, arrive)
                order.pop()

    extend([], 0)
    return feasible


def maximal_sets(sets: set[frozenset[int]]) -> set[frozenset[int]]:
    return {
        s
        for s in sets
        if s and not any(s < other for other in sets)
    }


def reference_covering_routes(setting, dist, start, support):
    """``covering_routes`` as first written: each state scans all reachable
    targets, and maximality is a pairwise containment test over all sets.

    Returns the routes as (visits, arrivals) pairs, stay-at-start first, and
    the ``complete`` flag.  The beam threshold and width are read from
    ``alarmpatrol.routes.EXACT_LIMIT`` and ``BEAM_WIDTH`` at call time.
    """
    from alarmpatrol import routes

    D = dist.tolist()
    dl = setting.deadline
    support_set = set(support)
    d_start = D[start]
    reach = sorted(t for t in support_set if d_start[t] <= dl[t])
    k = len(reach)
    sentinel = ((start,), (0,)) if start in support_set else ((), ())
    if k == 0:
        return [sentinel], True

    best = {}
    level = {(1 << j, j): (d_start[t], None) for j, t in enumerate(reach)}
    complete = True
    while level:
        best.update(level)
        nxt = {}
        for key in sorted(level):
            mask, last = key
            tm = level[key][0]
            for j in range(k):
                if mask >> j & 1:
                    continue
                nt = tm + D[reach[last]][reach[j]]
                if nt > dl[reach[j]]:
                    continue
                nk = (mask | (1 << j), j)
                if nk not in nxt or nt < nxt[nk][0]:
                    nxt[nk] = (nt, key)
        if k > routes.EXACT_LIMIT and len(nxt) > routes.BEAM_WIDTH:
            nxt = dict(sorted(nxt.items(), key=lambda kv: (kv[1][0], kv[0]))[:routes.BEAM_WIDTH])
            complete = False
        level = nxt

    per_mask = {}
    for (mask, last), (tm, _) in best.items():
        if mask not in per_mask or (tm, last) < per_mask[mask]:
            per_mask[mask] = (tm, last)
    maximal = []
    for mask in sorted(per_mask, key=lambda m: (-m.bit_count(), m)):
        if not any(mask & m == mask for m in maximal):
            maximal.append(mask)

    found = []
    for mask in sorted(maximal):
        chain, key = [], (mask, per_mask[mask][1])
        while key is not None:
            chain.append(reach[key[1]])
            key = best[key][1]
        visits = tuple(reversed(chain))
        arrivals = [d_start[visits[0]]]
        for a, b in zip(visits, visits[1:]):
            arrivals.append(arrivals[-1] + D[a][b])
        found.append((visits, tuple(arrivals)))
    found.sort()
    return [sentinel] + [r for r in found if r[0] != sentinel[0]], complete


# -- zero-sum game value by square-kernel enumeration ------------------------


def support_enumeration_value(U: np.ndarray, tol: float = 1e-8) -> float:
    """Game value via Shapley-Snow kernels: some equilibrium uses equal-size
    supports whose payoff submatrix pins the value through two linear systems."""
    U = np.asarray(U, dtype=float)
    n_rows, n_cols = U.shape
    for k in range(1, min(n_rows, n_cols) + 1):
        for I in itertools.combinations(range(n_rows), k):
            sub_rows = U[list(I), :]
            for J in itertools.combinations(range(n_cols), k):
                A = sub_rows[:, list(J)]
                M = np.zeros((k + 1, k + 1))
                M[:k, :k] = A.T
                M[:k, k] = -1.0
                M[k, :k] = 1.0
                rhs = np.zeros(k + 1)
                rhs[k] = 1.0
                try:
                    sol_x = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    continue
                x, v = sol_x[:k], sol_x[k]
                M2 = np.zeros((k + 1, k + 1))
                M2[:k, :k] = A
                M2[:k, k] = -1.0
                M2[k, :k] = 1.0
                try:
                    sol_y = np.linalg.solve(M2, rhs)
                except np.linalg.LinAlgError:
                    continue
                y, v2 = sol_y[:k], sol_y[k]
                if abs(v - v2) > tol:
                    continue
                if np.any(x < -tol) or np.any(y < -tol):
                    continue
                full_x = np.zeros(n_rows)
                full_x[list(I)] = np.clip(x, 0.0, None)
                full_y = np.zeros(n_cols)
                full_y[list(J)] = np.clip(y, 0.0, None)
                if np.any(full_x @ U < v - tol):
                    continue
                if np.any(U @ full_y > v + tol):
                    continue
                return float(v)
    raise AssertionError("no square kernel found; matrix game theory says otherwise")


# -- best response and team maxmin oracles -----------------------------------


def on_support(route_sets, probs) -> np.ndarray:
    """An attacker strategy ``{target: probability}`` as the oracles take it:
    one probability per target of the route sets' support."""
    return np.array([probs.get(t, 0.0) for t in route_sets[0].targets])


def brute_best_response_value(route_sets, attacker, setting) -> float:
    """Maximum of 1 - sum_t sigma(t) pi(t) (1 - covered) over all joint tuples.

    ``attacker`` holds sigma, one probability per support target.
    """
    weight = [(t, p) for t, p in zip(route_sets[0].targets, attacker) if p > 0.0]
    best = -math.inf
    for combo in itertools.product(*[rs.routes for rs in route_sets]):
        covered = {t for r in combo for t in r.visits}
        val = 1.0 - sum(p * setting.value[t] for t, p in weight if t not in covered)
        best = max(best, val)
    return best


def _dedupe_covers(route_set, support):
    """Distinct, non-dominated coverage vectors of one resource's routes."""
    covers = []
    for r in route_set.routes:
        cov = frozenset(set(r.visits) & set(support))
        if cov not in covers:
            covers.append(cov)
    return [c for c in covers if not any(c < o for o in covers)]


def _team_value(pi, q1, q2) -> float:
    return 1.0 - float(np.max(pi * (1.0 - q1) * (1.0 - q2)))


def _best_response_lp(pi, indicator, fixed_uncov) -> float:
    """Exact inner optimum for the second resource given the first's marginals.

    Minimizes v subject to w_t sum_r (1 - I[r,t]) x_r - v <= 0 per target and
    sum x = 1, which is v >= w_t (1 - sum_r I[r,t] x_r) with zero rhs.
    """
    n_r, n_t = indicator.shape
    w = pi * fixed_uncov
    c = np.zeros(n_r + 1)
    c[-1] = -1.0
    A_ub = np.hstack([(1.0 - indicator.T) * w[:, None], -np.ones((n_t, 1))])
    A_eq = np.hstack([np.ones((1, n_r)), np.zeros((1, 1))])
    # x_0's column is positive in target rows, so this is not the game form
    # ``lp_solve`` accepts: the two-phase reference solves it.
    sol = rowwise_lp_solve(LinearProgram(c=c, A_ub=A_ub, b_ub=np.zeros(n_t), A_eq=A_eq))
    return 1.0 - float(sol.x[-1])


def _simplex_grid(dim: int, denom: int):
    """All probability vectors with entries that are multiples of 1/denom."""
    for parts in itertools.combinations_with_replacement(range(dim), denom):
        counts = [0] * dim
        for p in parts:
            counts[p] += 1
        yield np.array(counts, dtype=float) / denom


def _boxed_grid(center: np.ndarray, radius: float, denom: int):
    """Simplex grid points at resolution 1/denom within a box around a point."""
    dim = len(center)
    ranges = []
    for i in range(dim):
        lo = max(0, math.floor((center[i] - radius) * denom))
        hi = min(denom, math.ceil((center[i] + radius) * denom))
        ranges.append(range(lo, hi + 1))
    for combo in itertools.product(*ranges[:-1]):
        rest = denom - sum(combo)
        if rest < ranges[-1].start or rest > ranges[-1].stop - 1:
            continue
        yield np.array(list(combo) + [rest], dtype=float) / denom


def grid_team_maxmin(route_sets, setting, support, step: int = 1000) -> float:
    """Team maxmin for two resources by grid search over one resource's strategy.

    Grids the resource with the smaller (deduplicated, non-dominated) action
    set; the other side is optimized exactly per grid point.  Dimension <= 1
    is scanned at full 1/step resolution, higher dimensions use a coarse scan
    refined around the best candidates down to 1/step.
    """
    assert len(route_sets) == 2
    targets = sorted(support)
    pi = np.array([setting.value[t] for t in targets])
    covers = [_dedupe_covers(rs, targets) for rs in route_sets]
    if len(covers[0]) > len(covers[1]):
        covers = [covers[1], covers[0]]

    ind = []
    for cov_list in covers:
        I = np.zeros((len(cov_list), len(targets)))
        for i, cov in enumerate(cov_list):
            for j, t in enumerate(targets):
                if t in cov:
                    I[i, j] = 1.0
        ind.append(I)

    dim = ind[0].shape[0]

    def inner(sigma1: np.ndarray) -> float:
        q1 = ind[0].T @ sigma1
        return _best_response_lp(pi, ind[1], 1.0 - q1)

    if dim == 1:
        return inner(np.ones(1))
    if dim == 2:
        best = -math.inf
        for k in range(step + 1):
            best = max(best, inner(np.array([k / step, 1.0 - k / step])))
        return best

    coarse = 40
    scored = sorted(
        ((inner(p), tuple(p)) for p in _simplex_grid(dim, coarse)),
        reverse=True,
    )
    candidates = [np.array(p) for _, p in scored[:15]]
    best = scored[0][0]
    for denom, radius in ((200, 2.0 / coarse), (step, 2.0 / 200)):
        nxt: list[tuple[float, tuple[float, ...]]] = []
        for center in candidates:
            for p in _boxed_grid(center, radius, denom):
                nxt.append((inner(p), tuple(p)))
        nxt.sort(reverse=True)
        best = max(best, nxt[0][0])
        candidates = [np.array(p) for _, p in nxt[:15]]
    return best


def payoff_matrix(covered, targets, value) -> np.ndarray:
    """Defender utility 1 - (1 - I(r,t)) * pi(t) for each action/target pair.

    Built from the actions' covered sets, independently of ``RouteSet.cover``.
    """
    U = np.ones((len(covered), len(targets)))
    for i, cov in enumerate(covered):
        for j, t in enumerate(targets):
            if t not in cov:
                U[i, j] -= value[t]
    return U


def dense_pivot(state, i: int, q: int) -> None:
    """``lp._pivot`` as a full-tableau rank-1 update with ``np.outer``.

    The simplex pivot as it was before it skipped the pivot row's zero
    columns; the reference its results must match bit for bit.
    """
    T = state.T
    T[i] /= T[i, q]
    factor = T[:, q].copy()
    factor[i] = 0.0
    T -= np.outer(factor, T[i])
    T[:, q] = 0.0
    T[i, q] = 1.0
    r = state.r
    if r[q] != 0.0:
        r -= r[q] * T[i]
        r[q] = 0.0
    state.basis[i] = q


def rowwise_lp_solve(prog):
    """Two-phase simplex over ``prog``'s tableau built row by row.

    The reference ``lp.lp_solve`` must match bit for bit: the tableau as it was
    built before it was written with array assignments, and phase 1 run to its
    end rather than started from its one pivot, so it also solves programs
    outside the game form.  Phase 2 prices its cost row against the basis
    phase 1 ends at.  The pivot and the pivoting loop are the module's own,
    and ``pivots`` counts both phases.
    """
    from alarmpatrol import lp

    c = np.asarray(prog.c, dtype=float)
    n = c.shape[0]
    A_ub, b_ub = np.asarray(prog.A_ub, dtype=float), np.asarray(prog.b_ub, dtype=float)
    rows = list(zip(A_ub, b_ub)) + [(np.asarray(prog.A_eq, dtype=float)[0], 1.0)]
    m = len(rows)
    m1 = m - 1  # the equality row; its artificial is column n + m1

    ncols = n + m
    T = np.zeros((m, ncols + 1), order="F")
    basis = np.empty(m, dtype=int)
    for i, (a, b) in enumerate(rows):
        T[i, :n] = a
        T[i, -1] = b
        T[i, n + i] = 1.0
        basis[i] = n + i

    # Phase 1 maximizes minus the artificial: its cost row priced against the
    # starting basis.
    c1 = np.zeros(ncols + 1)
    c1[n + m1] = -1.0
    r1 = c1 - c1[n + m1] * T[m1]
    state = lp._SimplexState(T=T, basis=basis, r=r1)
    state.switch = 10 * (m + ncols)  # as ``optimize`` sets it, once for both phases
    lp._run(state)
    assert r1[-1] <= 1e-7, "infeasible"
    if basis[m1] == n + m1:
        # The artificial is still basic, at zero level: pivot it out.
        (cols,) = np.nonzero(np.abs(T[m1, : n + m1]) > lp.PIVOT_TOL)
        lp._pivot(state, m1, cols[0])
        state.pivots += 1

    r2 = np.zeros(ncols + 1)
    r2[:n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            r2 -= c[basis[i]] * T[i]
    state.r = r2
    lp._run(state)
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = max(T[i, -1], 0.0) + 0.0
    duals = 0.0 - r2[n : n + m1]
    return lp.LinearProgramSolution(x=x, duals=duals, pivots=state.pivots)


def routes_for(setting, dist, positions, support):
    from alarmpatrol import covering_routes

    return tuple(covering_routes(setting, dist, p, support) for p in positions)


def joint_enumeration_value(route_sets, setting, support) -> tuple[float, int]:
    """FC oracle check: solve the game over the entire joint-route product."""
    from alarmpatrol import RowGame

    # Each joint route covers the union of its routes' visits.
    covered = [
        {t for r in combo for t in r.visits}
        for combo in itertools.product(*[rs.routes for rs in route_sets])
    ]
    targets = sorted(support)
    U = np.ones((len(covered), len(targets)))
    for i, cov in enumerate(covered):
        for j, t in enumerate(targets):
            if t not in cov:
                U[i, j] -= setting.value[t]
    _, _, value = RowGame(U).solve()
    return value, len(covered)


def pearson(xs, ys) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    x = x - x.mean()
    y = y - y.mean()
    return float((x @ y) / math.sqrt((x @ x) * (y @ y)))
