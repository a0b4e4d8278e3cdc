import gc
import math
import time

import numpy as np
import pytest

from alarmpatrol import (
    GeneratorParams,
    JointRoute,
    ResolutionConfig,
    RowGame,
    aggregate_value,
    all_pairs_distances,
    best_response_ilp,
    build_alarm,
    covering_routes,
    enumerate_placements,
    evaluate_profile,
    exact_cover,
    fc_sro,
    generate_instance,
    min_cover,
    nc_sro,
    pc_sro,
    reach,
    resolve,
    respond,
    routes,
    to_set_cover,
    unprotected,
)
from alarmpatrol import lp as lp_module
from alarmpatrol import oracles as oracles_module
from alarmpatrol import pipeline
from alarmpatrol.fileio import oracle_payload
from alarmpatrol.games import VALUE_TOL, normalized
from alarmpatrol.model import row_masks
from alarmpatrol.oracles import SEARCH_MAX_ROUTES, _greedy_response
from alarmpatrol.routes import CoveringRoute, RouteSet
from alarmpatrol.seeding import stream
from helpers import (
    brute_best_response_value,
    grid_team_maxmin,
    joint_enumeration_value,
    make_setting,
    on_support,
    payoff_matrix,
    random_setting,
    routes_for,
    single_signal,
)


def _r(start, *visits):
    arrivals = tuple(range(len(visits)))
    return CoveringRoute(start, tuple(visits), arrivals)


def _values(setting, targets):
    return np.array([setting.value[t] for t in targets])


def _joint_route(sets, rows):
    """The ``JointRoute`` of one route-set row per resource: it covers the
    union of those routes' visits."""
    routes = [rs.routes[i] for rs, i in zip(sets, rows, strict=True)]
    return JointRoute(tuple(rows), frozenset(t for r in routes for t in r.visits))


# -- unprotected and evaluate_profile ------------------------------------------


def test_evaluate_full_coverage():
    s = make_setting(2, [(0, 1)])
    rs = RouteSet((_r(0, 0, 1),), 0, True, s.targets)
    assert evaluate_profile(unprotected([(rs.cover, np.ones(1))]), _values(s, s.targets)) == 1.0


def test_evaluate_no_coverage_floor():
    s = make_setting(2, [(0, 1)], targets={0: (0.8, 1), 1: (0.5, 1)})
    rs = RouteSet((CoveringRoute(0, (), ()),), 0, True, s.targets)
    got = evaluate_profile(unprotected([(rs.cover, np.ones(1))]), _values(s, s.targets))
    assert got == pytest.approx(0.2)


def test_evaluate_two_resources_half_coverage():
    # Single target, both resources cover it with marginal probability 1/2:
    # 1 - 0.5 * 0.5 = 0.75 straight from the formula.
    s = make_setting(2, [(0, 1)], targets={1: (1.0, 1)})
    rs = RouteSet((_r(0, 1), CoveringRoute(0, (), ())), 0, True, (1,))
    half = np.array([0.5, 0.5])
    assert unprotected([(rs.cover, half)] * 2) == pytest.approx([0.25])
    assert evaluate_profile(unprotected([(rs.cover, half)] * 2), _values(s, (1,))) == pytest.approx(0.75)


def test_evaluate_matches_attacker_enumeration():
    # Independent per-resource strategies (NC, PC) draw once per resource;
    # a joint strategy (FC) draws once, from the coverage rows of its joint
    # routes.  Both are checked target by target against the routes' visits.
    for trial in range(10):
        rng = stream(31, "eval", trial)
        s = random_setting(7, rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        sets = routes_for(s, d, [0, s.n - 1], s.targets)
        profile = [normalized([rng.random() for _ in rs.routes]) for rs in sets]
        draws = zip((rs.cover for rs in sets), profile)
        got = evaluate_profile(unprotected(draws), _values(s, s.targets))
        best = 0.0
        for t in s.targets:
            uncov = 1.0
            for rs, x in zip(sets, profile):
                uncov *= 1.0 - sum(p for r, p in zip(rs.routes, x) if t in r.visits)
            best = max(best, s.value[t] * uncov)
        assert got == pytest.approx(1.0 - best, abs=1e-12)

        rows = sorted({tuple(rng.randrange(len(rs.routes)) for rs in sets) for _ in range(5)})
        q = normalized([rng.random() for _ in rows])
        cover = np.array([np.logical_or.reduce([rs.cover[i] for rs, i in zip(sets, jr)])
                          for jr in rows])
        got = evaluate_profile(unprotected([(cover, q)]), _values(s, s.targets))
        best = 0.0
        for t in s.targets:
            uncov = 1.0 - sum(p for jr, p in zip(rows, q) if t in _joint_route(sets, jr).covered)
            best = max(best, s.value[t] * uncov)
        assert got == pytest.approx(1.0 - best, abs=1e-12)


# -- NC ------------------------------------------------------------------------


def test_nc_single_resource_matches_plain_game():
    for trial in range(8):
        rng = stream(37, "nc1", trial)
        s = random_setting(8, rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        start = rng.randrange(s.n)
        sets = routes_for(s, d, [start], s.targets)
        result = nc_sro(sets, s)
        # Oracle value over the full support equals the plain zero-sum value
        # over all support targets (uncoverable columns only cap the value).
        U = payoff_matrix([set(r.visits) for r in sets[0].routes], sorted(s.targets), s.value)
        _, _, v = RowGame(U).solve()
        assert result.value == pytest.approx(v, abs=1e-7)


def test_oracles_reject_route_sets_of_different_supports():
    s = make_setting(3, [(0, 1), (1, 2)])
    d = all_pairs_distances(s)
    sets = (covering_routes(s, d, 0, (0, 1)), covering_routes(s, d, 2, (1, 2)))
    for oracle in (nc_sro, pc_sro, fc_sro):
        with pytest.raises(ValueError, match="different signal supports"):
            oracle(sets, s)


def test_nc_disjoint_clusters_take_the_minimum():
    # Two 3-vertex stars tied by a non-target bridge; each resource owns one
    # cluster, so the attacker simply goes for the weaker independent game.
    targets = {i: (1.0, 1) for i in (0, 1, 2)} | {i: (0.6, 1) for i in (5, 6, 7)}
    s = make_setting(
        8,
        [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (5, 7)],
        targets=targets,
    )
    d = all_pairs_distances(s)
    sets = routes_for(s, d, [0, 5], s.targets)
    result = nc_sro(sets, s)
    values = []
    for rs, cluster in zip(sets, ({0, 1, 2}, {5, 6, 7})):
        U = payoff_matrix([set(r.visits) for r in rs.routes], sorted(cluster), s.value)
        values.append(RowGame(U).solve()[2])
    assert result.value == pytest.approx(min(values), abs=1e-7)


# -- best response -------------------------------------------------------------


def test_best_response_pure_attacker():
    s = make_setting(3, [(0, 1), (1, 2)])
    d = all_pairs_distances(s)
    sets = routes_for(s, d, [1], s.targets)
    jr, obj, ok = best_response_ilp(sets, on_support(sets, {2: 1.0}), s)
    assert ok and obj == pytest.approx(1.0)
    assert 2 in _joint_route(sets, jr).covered


def test_best_response_separable_resources():
    s = make_setting(4, [(0, 1), (1, 2), (2, 3)])
    d = all_pairs_distances(s)
    sets = routes_for(s, d, [0, 3], s.targets)
    attacker = on_support(sets, {0: 0.5, 3: 0.5})
    jr, obj, ok = best_response_ilp(sets, attacker, s)
    assert ok and obj == pytest.approx(1.0)
    assert {0, 3} <= _joint_route(sets, jr).covered


def test_best_response_rejects_attacker_weight_off_the_support():
    s = make_setting(3, [(0, 1), (1, 2)])
    d = all_pairs_distances(s)
    sets = (covering_routes(s, d, 1, (0, 1)),)
    # The attacker is one probability per support target: weights over all
    # three targets put weight off the two-target support.
    with pytest.raises(ValueError, match="one probability per support target"):
        best_response_ilp(sets, np.array([0.5, 0.0, 0.5]), s)
    jr, obj, ok = best_response_ilp(sets, np.array([1.0, 0.0]), s)
    assert ok and obj == pytest.approx(1.0) and 0 in _joint_route(sets, jr).covered


def test_best_response_matches_brute_force():
    for trial in range(15):
        rng = stream(41, "br", trial)
        s = random_setting(8, rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        m = rng.randrange(2, 4)
        starts = [rng.randrange(s.n) for _ in range(m)]
        sets = routes_for(s, d, starts, s.targets)
        attacker = normalized([rng.random() for _ in s.targets])
        _, obj, ok = best_response_ilp(sets, attacker, s)
        assert ok
        assert obj == pytest.approx(brute_best_response_value(sets, attacker, s), abs=1e-9)


def test_best_response_matches_brute_force_many_resources():
    # The brute-force checks above stop at m <= 3.  With 4-6 resources over
    # overlapping random covers, a best-marginal bound that skipped the
    # resources past the third would pass those and fail here.
    for trial in range(40):
        rng = stream(44, "brmany", trial)
        n = 12
        s = make_setting(n, [(i, i + 1) for i in range(n - 1)],
                         targets={t: (rng.uniform(0.05, 1.0), 1) for t in range(n)})
        sets = tuple(
            RouteSet(
                tuple(_r(k, *rng.sample(range(n), rng.randrange(1, 6)))
                      for _ in range(rng.randrange(1, 5))),
                k, True, tuple(range(n)),
            )
            for k in range(rng.randrange(4, 7))
        )
        weights = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(n)]
        weights[0] += 0.01
        attacker = normalized(weights)  # the support is every target
        jr, obj, ok = best_response_ilp(sets, attacker, s)
        assert ok
        brute = brute_best_response_value(sets, attacker, s)
        assert abs(obj - brute) <= 1e-12
        covered = _joint_route(sets, jr).covered
        assert obj == pytest.approx(1.0 - sum(
            attacker[t] * s.value[t] for t in range(n) if t not in covered
        ), abs=1e-12)


def test_greedy_response_is_one_pass_in_resource_order():
    # Greedy from resource 0 takes its {0, 1} route, which resource 1 can only
    # repeat, so the one pass misses target 2.  The exact response covers
    # every target, and FC, which certifies with it, reaches value 1.
    s = make_setting(3, [(0, 1), (1, 2)])
    sets = (
        RouteSet((_r(0, 0, 1), _r(0, 2)), 0, True, (0, 1, 2)),
        RouteSet((_r(1, 0, 1),), 1, True, (0, 1, 2)),
    )
    attacker = np.array([0.3, 0.3, 0.4])
    jr, obj = _greedy_response(sets, attacker, s)
    assert jr == (0, 0)
    assert obj == pytest.approx(0.6)
    _, exact_obj, ok = best_response_ilp(sets, attacker, s)
    assert ok
    assert exact_obj == pytest.approx(1.0)
    result = fc_sro(sets, s)
    assert result.diagnostics.optimal
    assert result.value == pytest.approx(1.0)


# Reference best responses whose scans visit every route, to pin the coverage
# classes and the bound's early exit of ``best_response_ilp`` and the matrix
# products of ``_greedy`` and ``_greedy_response`` to the same answers.
def _full_scan_weight(w, mask):
    total = 0.0
    while mask:
        low = mask & -mask
        total += w[low.bit_length() - 1]
        mask ^= low
    return total


def _full_scan_greedy(masks, w):
    choice = [0] * len(masks)
    cur = 0
    for i, ms in enumerate(masks):
        choice[i] = min(range(len(ms)), key=lambda j: (-_full_scan_weight(w, ms[j] & ~cur), j))
        cur |= ms[choice[i]]
    return choice, _full_scan_weight(w, cur)


def _full_scan_weights(route_sets, attacker, setting):
    support = route_sets[0].targets
    w = [p * setting.value[t] if p > 0.0 else 0.0 for p, t in zip(attacker.tolist(), support)]
    live = sum(1 << j for j, p in enumerate(attacker) if p > 0.0)
    return w, [[m & live for m in row_masks(rs.cover)] for rs in route_sets]


def _full_scan_greedy_response(route_sets, attacker, setting):
    w, masks = _full_scan_weights(route_sets, attacker, setting)
    choice, choice_w = _full_scan_greedy(masks, w)
    return tuple(choice), 1.0 - sum(w) + choice_w


def _full_scan_best_response(route_sets, attacker, setting):
    w, masks = _full_scan_weights(route_sets, attacker, setting)
    total_w = sum(w)
    n_res = len(route_sets)
    best_choice, best_w = _full_scan_greedy(masks, w)
    orders = [
        sorted(range(len(ms)), key=lambda i: (-_full_scan_weight(w, ms[i]), i)) for ms in masks
    ]
    suffix = [0] * (n_res + 1)
    for i in range(n_res - 1, -1, -1):
        union = 0
        for m in masks[i]:
            union |= m
        suffix[i] = suffix[i + 1] | union
    stack = [(0, 0, 0.0, ())]
    while stack:
        i, cur_mask, cur_w, picked = stack.pop()
        if i == n_res:
            if cur_w > best_w + 1e-12:
                best_w = cur_w
                best_choice = list(picked)
            continue
        if cur_w + _full_scan_weight(w, suffix[i] & ~cur_mask) <= best_w + 1e-12:
            continue
        bound = cur_w
        for ms in masks[i:]:
            bound += max(_full_scan_weight(w, m & ~cur_mask) for m in ms)
        if bound <= best_w + 1e-12:
            continue
        ms = masks[i]
        for j in reversed(orders[i]):
            gain = _full_scan_weight(w, ms[j] & ~cur_mask)
            stack.append((i + 1, cur_mask | ms[j], cur_w + gain, picked + (j,)))
    return tuple(best_choice), 1.0 - total_w + best_w, True


def _assert_pinned(sets, attacker, s):
    got = best_response_ilp(sets, attacker, s)
    want = _full_scan_best_response(sets, attacker, s)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] is want[2]
    assert _greedy_response(sets, attacker, s) == _full_scan_greedy_response(sets, attacker, s)


def test_best_response_early_exits_match_full_scan_on_generator_instances():
    # Prefixes of minimum-cover placements give m = 1-6 resources; the
    # uniform attacker ties every route covering the same number of
    # equal-valued targets, the others tie only where the values do.  The
    # focused attacker weights 1-8 targets, as the FC master's minmax
    # strategies do, so many routes share a coverage class.
    for n, seed, deadline in ((40, 7, None), (60, 1, 2), (80, 3, 2)):
        s, _ = generate_instance(GeneratorParams(n_targets=n, seed=seed, deadline=deadline))
        d = all_pairs_distances(s)
        placement = min_cover(s, d, "exact").placement.positions
        all_sets = routes_for(s, d, placement, s.targets)
        rng = stream(45, "brpin", n, seed)
        focus_rng = stream(45, "brpinfocus", n, seed)
        for m in range(1, min(6, len(all_sets)) + 1):
            sets = all_sets[:m]
            uniform = np.full(len(s.targets), 1.0 / len(s.targets))
            levels = [rng.choice((1.0, 2.0, 3.0)) for _ in s.targets]
            sparse = [rng.random() if rng.random() < 0.3 else 0.0 for _ in s.targets]
            sparse[0] += 0.01
            focus = focus_rng.sample(sorted(s.targets), focus_rng.randint(1, 8))
            for attacker in (
                uniform,
                normalized(levels),
                normalized(sparse),
                on_support(sets, dict(zip(focus, normalized(
                    [focus_rng.random() + 0.01 for _ in focus]
                )))),
            ):
                _assert_pinned(sets, attacker, s)


def _assert_classes(sets, attacker, s):
    """``_classes`` on ``_live``'s columns gives a class per distinct
    ``mask & live`` of the route masks, represented by its lowest route
    index, in increasing representative order; returns the representatives
    and the class masks, spread back to support positions."""
    covers, w = oracles_module._live(sets, attacker, s)
    reps, masks, _, _ = oracles_module._classes(covers, w.tolist())
    cols = np.flatnonzero(np.asarray(attacker) > 0.0).tolist()
    live = sum(1 << c for c in cols)
    spread = []
    for rs, rep, ms in zip(sets, reps, masks):
        assert all(m >> len(cols) == 0 for m in ms)
        ms = [sum(1 << c for k, c in enumerate(cols) if m >> k & 1) for m in ms]
        route_masks = row_masks(rs.cover)
        assert sorted(ms) == sorted({m & live for m in route_masks})
        assert rep == sorted(rep)
        assert rep == [min(j for j, m in enumerate(route_masks) if m & live == c) for c in ms]
        spread.append(ms)
    return reps, spread


def test_setup_groups_routes_into_coverage_classes():
    # With weight on every target, each route of a maximal route set is its
    # own class.  The uniform attacker on 150/s11 and 80/s3-d2 weights more
    # than 64 targets, so a packed key spans more than eight bytes.
    s, _ = generate_instance(GeneratorParams(n_targets=60, seed=1, deadline=2))
    d = all_pairs_distances(s)
    sets = routes_for(s, d, min_cover(s, d, "exact").placement.positions, s.targets)
    rng = stream(47, "classes")
    support = sets[0].targets
    for k in (1, 3, 8, len(support)):
        focus = rng.sample(list(support), k)
        attacker = on_support(sets, dict(zip(focus, normalized([rng.random() + 0.01 for _ in focus]))))
        reps, masks = _assert_classes(sets, attacker, s)
        if k == len(support):
            assert all(rep == list(range(len(rs.routes))) for rs, rep in zip(sets, reps))
        if k == 1:
            # One live target: a class of the routes missing it and one of
            # those covering it, where there are any.
            assert any(len(rep) < len(rs.routes) for rs, rep in zip(sets, reps))
            j = support.index(focus[0])
            for rs, rep, ms in zip(sets, reps, masks):
                hits = rs.cover[:, j].tolist()
                assert sorted(ms) == sorted({1 << j if h else 0 for h in hits})
                assert set(rep) == {hits.index(h) for h in set(hits)}
    # A guard post staffed twice: its two resources share one route set, and
    # each keeps every class of it.
    reps, masks = _assert_classes((sets[1], sets[0], sets[1]), attacker, s)
    assert reps[0] == reps[2] and masks[0] == masks[2] and len(reps[0]) > 1
    for n, seed, deadline in ((150, 11, None), (80, 3, 2)):
        s, _ = generate_instance(GeneratorParams(n_targets=n, seed=seed, deadline=deadline))
        d = all_pairs_distances(s)
        sets = routes_for(s, d, min_cover(s, d, "exact").placement.positions, s.targets)
        assert len(sets[0].targets) > 64
        reps, _ = _assert_classes(sets, np.full(len(s.targets), 1.0 / len(s.targets)), s)
        assert all(rep == list(range(len(rs.routes))) for rs, rep in zip(sets, reps))


def test_best_response_to_an_attacker_without_weight():
    # No live column: one class per resource, row 0, and every joint route
    # weighs nothing, so the search answers row 0 of each with objective 1.
    s, _ = generate_instance(GeneratorParams(n_targets=40, seed=7))
    d = all_pairs_distances(s)
    sets = routes_for(s, d, min_cover(s, d, "exact").placement.positions, s.targets)
    nothing = np.zeros(len(s.targets))
    assert _assert_classes(sets, nothing, s) == ([[0]] * len(sets), [[0]] * len(sets))
    assert best_response_ilp(sets, nothing, s) == ((0,) * len(sets), 1.0, True)


def test_best_response_past_deadline_keeps_its_incumbent():
    # The uniform attacker on 8 and 10 resources of 80/s3-d2's minimum cover:
    # each search passes 2,048 nodes, so it reaches its deadline check and
    # returns the best joint route found by then, flagged not optimal.
    s, _ = generate_instance(GeneratorParams(n_targets=80, seed=3, deadline=2))
    d = all_pairs_distances(s)
    all_sets = routes_for(s, d, min_cover(s, d, "exact").placement.positions, s.targets)
    uniform = np.full(len(s.targets), 1.0 / len(s.targets))
    pi = _values(s, all_sets[0].targets)
    for m in (8, len(all_sets)):
        sets = all_sets[:m]
        rows, obj, certified = best_response_ilp(sets, uniform, s, deadline=time.monotonic() - 1.0)
        assert certified is False
        assert _greedy_response(sets, uniform, s)[1] <= obj <= best_response_ilp(sets, uniform, s)[1]
        covered = np.any([rs.cover[r] for rs, r in zip(sets, rows, strict=True)], axis=0)
        assert obj == pytest.approx(1.0 - float(uniform @ (pi * ~covered)), abs=1e-12)


def test_best_response_early_exits_match_full_scan_on_random_instances():
    # Target values and attacker weights drawn from a few levels, so many
    # routes and many joint routes tie in weight.
    for trial in range(60):
        rng = stream(46, "brpinrand", trial)
        n = 12
        s = make_setting(n, [(i, i + 1) for i in range(n - 1)],
                         targets={t: (rng.choice((0.25, 0.5, 1.0)), 1) for t in range(n)})
        sets = tuple(
            RouteSet(
                tuple(_r(k, *rng.sample(range(n), rng.randrange(1, 6)))
                      for _ in range(rng.randrange(1, 7))),
                k, True, tuple(range(n)),
            )
            for k in range(1 + trial % 6)
        )
        weights = [rng.choice((0.0, 1.0, 1.0, 2.0)) for _ in range(n)]
        weights[0] += 1.0
        _assert_pinned(sets, normalized(weights), s)


# -- FC ------------------------------------------------------------------------


def test_fc_full_protection_is_pure():
    s = make_setting(4, [(0, 1), (1, 2), (2, 3)])
    d = all_pairs_distances(s)
    sets = routes_for(s, d, [0, 3], s.targets)
    result = fc_sro(sets, s)
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert result.diagnostics.optimal
    assert max(result.joint.probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_fc_single_resource_reduces_to_zero_sum():
    for trial in range(8):
        rng = stream(43, "fc1", trial)
        s = random_setting(8, rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        sets = routes_for(s, d, [rng.randrange(s.n)], s.targets)
        U = payoff_matrix([set(r.visits) for r in sets[0].routes], sorted(s.targets), s.value)
        _, _, v = RowGame(U).solve()
        result = fc_sro(sets, s)
        assert result.diagnostics.optimal
        assert result.value == pytest.approx(v, abs=1e-7)


def test_fc_exact_matches_joint_enumeration():
    checked = 0
    trial = 0
    while checked < 8:
        trial += 1
        rng = stream(47, "fcjoint", trial)
        s = random_setting(7, rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        starts = [rng.randrange(s.n), rng.randrange(s.n)]
        sets = routes_for(s, d, starts, s.targets)
        if any(len(rs.routes) > 6 for rs in sets):
            continue
        checked += 1
        result = fc_sro(sets, s)
        expected, n_joints = joint_enumeration_value(sets, s, s.targets)
        assert result.diagnostics.optimal
        assert result.value == pytest.approx(expected, abs=1e-6)
        assert result.diagnostics.routes_generated <= n_joints


def test_fc_from_start_rows_skips_nc_and_keeps_the_value(monkeypatch):
    # Any valid start rows give the cold start's certified value; they are
    # deduplicated in order together with the warm-up's rows, which follow
    # them, NC is not solved, and a bad row is refused.
    s, _ = generate_instance(GeneratorParams(n_targets=40, seed=7))
    d = all_pairs_distances(s)
    sets = routes_for(s, d, min_cover(s, d).placement.positions, s.targets)
    cold = fc_sro(sets, s)
    start = [(0,) * len(sets), tuple(len(rs.routes) - 1 for rs in sets), (0,) * len(sets)]

    def no_nc(*args, **kwargs):
        raise AssertionError("a started FC solves no NC game")

    monkeypatch.setattr(oracles_module, "nc_sro", no_nc)
    warm = fc_sro(sets, s, start=start)
    assert warm.diagnostics.optimal
    assert abs(warm.value - cold.value) <= 1e-12
    warmup = oracles_module._warmup([rs.cover.astype(float) for rs in sets],
                                    _values(s, s.targets))
    assert len(warmup) == oracles_module.WARMUP_STEPS
    rows = dict.fromkeys(start + warmup)
    assert list(rows)[:2] == start[:2]
    assert warm.diagnostics.routes_generated == len(rows) + warm.diagnostics.iterations - 1
    assert warm.attacker.shape == (len(s.targets),)
    assert abs(float(warm.attacker.sum()) - 1.0) <= 1e-12
    for bad in ([(0,) * (len(sets) - 1)], [(-1,) + (0,) * (len(sets) - 1)],
                [(len(sets[0].routes),) + (0,) * (len(sets) - 1)]):
        with pytest.raises(ValueError, match="start row"):
            fc_sro(sets, s, start=bad)


def test_cold_fc_solves_no_nc_game_and_keeps_the_value(monkeypatch):
    # With no start rows FC starts from the warm-up's rows alone, and solves
    # no NC game.  On the first placements of the fc-exact benchmark
    # instances and on small random settings its value is certified, and
    # equals both the FC started from each resource's most likely NC route
    # and the game over every joint route.
    benchmark = ((40, 7), (60, 1), (70, 1), (80, 0), (80, 3))
    cases = [_first_placement_sets(n_targets, seed) for n_targets, seed in benchmark]
    for trial in range(40):
        rng = stream(53, "fccold", trial)
        s = random_setting(rng.randrange(5, 9), rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        starts = [rng.randrange(s.n) for _ in range(rng.randrange(1, 4))]
        cases.append((s, routes_for(s, d, starts, s.targets)))
    nc_starts = [[tuple(int(np.argmax(x)) for x in nc_sro(sets, s).per_resource)]
                 for s, sets in cases]

    def no_nc(*args, **kwargs):
        raise AssertionError("a cold FC solves no NC game")

    for (s, sets), nc_start in zip(cases, nc_starts, strict=True):
        with monkeypatch.context() as mp:
            mp.setattr(oracles_module, "nc_sro", no_nc)
            mp.setattr(oracles_module, "_nc_game", no_nc)
            cold = fc_sro(sets, s)
        from_nc = fc_sro(sets, s, start=nc_start)
        assert cold.diagnostics.optimal and from_nc.diagnostics.optimal
        warmup = oracles_module._warmup([rs.cover.astype(float) for rs in sets],
                                        _values(s, sets[0].targets))
        assert cold.diagnostics.routes_generated == (
            len(dict.fromkeys(warmup)) + cold.diagnostics.iterations - 1)
        assert abs(cold.value - from_nc.value) <= 1e-12
        expected, _ = joint_enumeration_value(sets, s, sets[0].targets)
        assert abs(cold.value - expected) <= 1e-12


def test_fc_not_optimal_over_incomplete_routes(monkeypatch):
    # With no exact levels and a one-state beam, every route set that could
    # chain two targets drops states; FC's value is then exact only over the
    # routes it was given, so it must not claim optimality.
    monkeypatch.setattr(routes, "EXACT_LIMIT", 0)
    monkeypatch.setattr(routes, "BEAM_WIDTH", 1)
    s = make_setting(5, [(0, 1), (1, 2), (2, 3), (3, 4)], deadline=3)
    d = all_pairs_distances(s)
    sets = tuple(covering_routes(s, d, p, s.targets) for p in (1, 3))
    assert not any(rs.complete for rs in sets)
    result = fc_sro(sets, s)
    assert not result.diagnostics.timed_out
    assert not result.diagnostics.optimal
    assert result.diagnostics.not_optimal == "incomplete routes"


def test_nc_not_optimal_over_incomplete_routes(monkeypatch):
    # As for FC above: NC's games over truncated route sets certify nothing.
    monkeypatch.setattr(routes, "EXACT_LIMIT", 0)
    monkeypatch.setattr(routes, "BEAM_WIDTH", 1)
    s = make_setting(5, [(0, 1), (1, 2), (2, 3), (3, 4)], deadline=3)
    d = all_pairs_distances(s)
    sets = tuple(covering_routes(s, d, p, s.targets) for p in (1, 3))
    assert not any(rs.complete for rs in sets)
    result = nc_sro(sets, s)
    assert result.diagnostics.optimal is False
    assert result.diagnostics.not_optimal == "incomplete routes"


def test_fc_past_deadline_says_timeout():
    s = make_setting(5, [(0, 1), (1, 2), (2, 3), (3, 4)], deadline=1)
    d = all_pairs_distances(s)
    sets = routes_for(s, d, [1, 3], s.targets)
    result = fc_sro(sets, s, deadline=time.monotonic() - 1.0)
    assert result.diagnostics.timed_out
    assert not result.diagnostics.optimal
    assert result.diagnostics.not_optimal == "timeout"


def test_pc_past_deadline_says_timeout():
    # No round, restart or search starts: PC returns its NC start profile.
    s = make_setting(5, [(0, 1), (1, 2), (2, 3), (3, 4)], deadline=1)
    d = all_pairs_distances(s)
    sets = routes_for(s, d, [1, 3], s.targets)
    result = pc_sro(sets, s, restarts=3, deadline=time.monotonic() - 1.0)
    diag = result.diagnostics
    assert diag.not_optimal == "timeout" and diag.timed_out
    assert diag.iterations == 0 and len(diag.extra["traces"]) == 1
    assert "search" not in diag.extra
    for x, rs in zip(result.per_resource, sets, strict=True):
        assert x.shape == (len(rs.routes),) and x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0)
    draws = zip((rs.cover for rs in sets), result.per_resource)
    got = evaluate_profile(unprotected(draws), _values(s, s.targets))
    assert result.value == pytest.approx(got, abs=1e-12)
    assert result.value == pytest.approx(nc_sro(sets, s).value, abs=1e-12)
    resp = respond(s, d, single_signal(s), [1, 3], "PC", deadline=time.monotonic() - 1.0)
    assert resp.per_signal["s0"].diagnostics.timed_out


def test_exact_best_response_leaves_no_reference_cycles():
    # Garbage in cycles waits for the cyclic collector, so the peak memory of
    # a run would depend on when that happens to run.
    s, _ = generate_instance(GeneratorParams(n_targets=80, seed=0))
    d = all_pairs_distances(s)
    sets = routes_for(s, d, min_cover(s, d, "exact").placement.positions, s.targets)
    attacker = np.full(len(s.targets), 1.0 / len(s.targets))
    gc.disable()
    try:
        gc.collect()
        _, _, certified = best_response_ilp(sets, attacker, s)
        assert certified
        assert gc.collect() == 0
    finally:
        gc.enable()


def _exact_searches(monkeypatch) -> list:
    """Record each exact best response ``fc_sro`` runs: its objective and the
    greedy response's objective against the same attacker."""
    real = oracles_module.best_response_ilp
    calls = []

    def spy(sets, attacker, setting, **kwargs):
        out = real(sets, attacker, setting, **kwargs)
        calls.append((out[1], _greedy_response(sets, attacker, setting)[1]))
        return out

    monkeypatch.setattr(oracles_module, "best_response_ilp", spy)
    return calls


def test_fc_exact_finishes_at_deadline_2(monkeypatch):
    # Seven resources with 8-19 routes each: the greedy responses drive the
    # rounds and the search only certifies.  Its best-marginal bound is what
    # keeps it fast: without it, the 209 searches of exhaustive FC on 70/s1
    # at deadline 2 (m = 8) took 5.05 s instead of 0.06 s.
    s, _ = generate_instance(GeneratorParams(n_targets=60, seed=1, deadline=2))
    d = all_pairs_distances(s)
    placement = (1, 6, 8, 16, 19, 20, 21)  # one of the instance's minimum covers
    assert len(placement) == 7
    sets = routes_for(s, d, placement, s.targets)
    searches = _exact_searches(monkeypatch)
    result = fc_sro(sets, s, deadline=time.monotonic() + 30.0)
    assert not result.diagnostics.timed_out
    assert result.diagnostics.optimal
    assert result.value == pytest.approx(0.5332551214373358, abs=1e-9)
    assert 1 <= len(searches) <= 2


def test_fc_exact_finishes_at_deadline_2_with_ten_resources(monkeypatch):
    # Ten resources: the largest minimum cover of the deadline-2 instances.
    # The placement is one of the instance's minimum covers, listed because
    # the value below belongs to it; only its covering is checked here.
    s, _ = generate_instance(GeneratorParams(n_targets=80, seed=3, deadline=2))
    d = all_pairs_distances(s)
    placement = (0, 2, 6, 7, 9, 11, 18, 19, 62, 68)
    assert reach(s, d)[list(placement)].any(axis=0).all()
    sets = routes_for(s, d, placement, s.targets)
    searches = _exact_searches(monkeypatch)
    result = fc_sro(sets, s, deadline=time.monotonic() + 30.0)
    assert not result.diagnostics.timed_out
    assert result.diagnostics.optimal
    assert result.value == pytest.approx(0.5691769962844413, abs=1e-9)
    assert 1 <= len(searches) <= 2


def test_fc_exact_search_adds_the_row_greedy_missed(monkeypatch):
    # Here the greedy responses stop improving while a joint route covering
    # every weighted target exists: three exact searches return such a
    # route as a new row instead of certifying, and the fourth certifies.
    searches = _exact_searches(monkeypatch)
    rng = stream(50, "fcexact", 224)
    s = random_setting(rng.randrange(7, 10), rng, deadlines=(1, 2))
    d = all_pairs_distances(s)
    sets = routes_for(s, d, [rng.randrange(s.n) for _ in range(3)], s.targets)
    result = fc_sro(sets, s)
    assert result.diagnostics.optimal
    assert len(searches) == 4
    for exact, greedy in searches[:-1]:
        assert exact > greedy + 1e-12
    assert searches[-1][0] <= result.value + 1e-12
    expected, _ = joint_enumeration_value(sets, s, s.targets)
    assert result.value == pytest.approx(expected, abs=1e-12)


def _spy_solves(monkeypatch, on_solve):
    """Call ``on_solve(game, out, rs)`` after every ``RowGame.solve``, where
    ``rs`` is the route set whose NC game it is, or None for FC's master."""
    real_solve, real_nc_game = RowGame.solve, oracles_module._nc_game
    inside = []

    def nc_game(rs, setting):
        inside.append(rs)
        try:
            return real_nc_game(rs, setting)
        finally:
            inside.pop()

    def solve(game):
        out = real_solve(game)
        on_solve(game, out, inside[-1] if inside else None)
        return out

    monkeypatch.setattr(oracles_module, "_nc_game", nc_game)
    monkeypatch.setattr(RowGame, "solve", solve)


def test_fc_stops_when_the_exact_response_ties_the_value(monkeypatch):
    # The exact objective bounds FC from above, so once it is within 1e-12
    # of the master value the value is certified: only the last exact search
    # may tie, and every earlier one adds a row that beats the value.
    real_search = oracles_module.best_response_ilp
    events = []

    def solve(game, out, nc_rs):
        if nc_rs is None:
            events.append(("value", out[2]))

    def search(*args, **kwargs):
        out = real_search(*args, **kwargs)
        events.append(("search", out[1]))
        return out

    _spy_solves(monkeypatch, solve)
    monkeypatch.setattr(oracles_module, "best_response_ilp", search)
    for n_targets, seed in ((60, 1), (80, 0)):
        del events[:]
        s, sets = _first_placement_sets(n_targets, seed)
        result = fc_sro(sets, s)
        assert result.diagnostics.optimal
        gaps = [obj - events[k - 1][1] for k, (kind, obj) in enumerate(events) if kind == "search"]
        assert gaps[-1] <= 1e-12
        assert all(gap > 1e-12 for gap in gaps[:-1])


def test_fc_joint_routes_are_route_set_rows():
    # FC keeps a joint route as one route-set row per resource, through to
    # the written strategy: on generator placements, on a guard post
    # staffed twice (one route set for two resources), on a support that
    # is not every target, so that column j is not target j, and on an
    # empty support.  Each joint route covers the union of its rows' cover
    # columns, which is the union of its routes' visits.
    cases = [_first_placement_sets(n_targets, seed) for n_targets, seed in ((40, 7), (60, 1))]
    s, alarm = generate_instance(GeneratorParams(n_targets=20, seed=14))
    d = all_pairs_distances(s)
    (signal,) = alarm.signals
    post, other = routes_for(s, d, [s.index_of("v0"), s.index_of("v3")],
                             alarm.signal_support(signal))
    cases.append((s, (post, post, other)))  # as ``respond`` staffs v0, v0, v3
    cases.append((s, routes_for(s, d, [0, 3], range(5, 20))))
    cases.append((s, routes_for(s, d, [0, 3], ())))
    for s, sets in cases:
        result = fc_sro(sets, s)
        joint = result.joint.probs
        entries = oracle_payload(result, sets, s)["strategy"]["joint"]
        assert [(e["routes"], e["p"]) for e in entries] == sorted(
            (list(jr.rows), p) for jr, p in joint.items()
        )
        assert all(type(i) is int for e in entries for i in e["routes"])
        assert abs(sum(e["p"] for e in entries) - 1.0) <= 1e-9
        for jr in joint:
            assert len(jr.rows) == len(sets)
            columns = np.zeros(len(sets[0].targets), dtype=bool)
            for rs, i in zip(sets, jr.rows, strict=True):
                columns |= rs.cover[i]
            assert jr.covered == set(np.compress(columns, sets[0].targets).tolist())
            assert jr.covered == {t for rs, i in zip(sets, jr.rows) for t in rs.routes[i].visits}
        if not sets[0].targets:
            assert joint == {JointRoute((0, 0), frozenset()): 1.0}


def test_fc_groups_the_routes_once_per_round(monkeypatch):
    # Only the exact search groups the routes into coverage classes: one
    # set-up per search, at most one search per round, the certifying one
    # included; the greedy responses, the cold start and the warm-up read
    # the coverage matrices instead.  The search answers as it does when
    # called on its own.
    real_classes, real_search = oracles_module._classes, oracles_module.best_response_ilp
    setups, searches = [], []

    def classes(*args):
        setups.append(args)
        return real_classes(*args)

    def search(*args, **kwargs):
        out = real_search(*args, **kwargs)
        searches.append((args, out))
        return out

    monkeypatch.setattr(oracles_module, "_classes", classes)
    monkeypatch.setattr(oracles_module, "best_response_ilp", search)
    for n_targets, seed in ((40, 7), (60, 1)):
        s, sets = _first_placement_sets(n_targets, seed)
        del setups[:], searches[:]
        result = fc_sro(sets, s)
        assert result.diagnostics.optimal
        assert len(setups) == len(searches) <= result.diagnostics.iterations
        assert searches
        for args, out in searches:
            assert real_search(*args) == out


def _first_placement_sets(n_targets, seed):
    """Route sets of the generator instance's first placement, as ``resolve`` picks it."""
    s, alarm = generate_instance(GeneratorParams(n_targets=n_targets, seed=seed))
    d = all_pairs_distances(s)
    cover = min_cover(s, d).placement
    placement = next(enumerate_placements(s, d, len(cover.positions), initial=cover))
    (signal,) = alarm.signals
    return s, routes_for(s, d, placement.positions, alarm.signal_support(signal))


def test_fc_master_matches_cold_solves_on_benchmark_placements(monkeypatch):
    # The first placements of the fc-exact benchmark instances.  After every
    # row the resumed master's value equals a cold solve of the same rows to
    # 1e-12 and both strategies pass the certificate; on 40/s7 the master
    # pivots at most a quarter as often as cold solves of its rounds would.
    # The warm-up's start rows leave 4-19 rounds per placement.
    real_solve = RowGame.solve
    rounds = []
    pivots_so_far = {}

    def checked(game, out, nc_rs):
        x, y, value = out
        if nc_rs is None:  # FC's master, not an NC game
            cold = RowGame(game.payoff)
            _, _, ref = real_solve(cold)
            assert abs(value - ref) <= 1e-12
            U = game.payoff
            assert (x @ U).min() >= value - VALUE_TOL
            assert (U @ y).max() <= value + VALUE_TOL
            rounds.append((game.pivots - pivots_so_far.get(id(game), 0), cold.pivots))
            pivots_so_far[id(game)] = game.pivots

    # The placements come first: min cover's own game is no FC round.
    cases = [(n, seed, *_first_placement_sets(n, seed))
             for n, seed in ((40, 7), (60, 1), (70, 1), (80, 0), (80, 3))]
    _spy_solves(monkeypatch, checked)
    for n_targets, seed, s, sets in cases:
        del rounds[:]
        pivots_so_far.clear()  # a new master may reuse an old one's id
        result = fc_sro(sets, s)
        assert result.diagnostics.optimal
        assert len(rounds) == result.diagnostics.iterations >= 4
        warm, cold = map(sum, zip(*rounds))
        assert warm == result.diagnostics.lp_pivots
        if (n_targets, seed) == (40, 7):
            assert 4 * warm <= cold


def test_oracles_count_the_pivots_of_their_lps(monkeypatch):
    # Every LP solution, cold or resumed, comes out of _SimplexState.optimize.
    real = lp_module._SimplexState.optimize
    pivots = []

    def spy(state):
        sol = real(state)
        pivots.append(sol.pivots)
        return sol

    monkeypatch.setattr(lp_module._SimplexState, "optimize", spy)
    s, _ = generate_instance(GeneratorParams(n_targets=20, seed=14))
    d = all_pairs_distances(s)
    for run, starts_from_nc in (
        (nc_sro, True),
        (lambda sets, s: pc_sro(sets, s, restarts=2), True),  # its team search runs on this pair
        (fc_sro, False),
    ):
        # Fresh route sets: no NC game of theirs is solved yet.
        sets = routes_for(s, d, [s.ids.index("v4"), s.ids.index("v14")], s.targets)
        del pivots[:]
        result = run(sets, s)
        assert result.diagnostics.lp_pivots == sum(pivots) > 0
        # Over the same sets the NC games are not solved again, yet their
        # pivots still count, so the oracle reports the same total.  FC
        # solves no NC game: a rerun makes the pivots it reports.
        nc_pivots = nc_sro(sets, s).diagnostics.lp_pivots if starts_from_nc else 0
        del pivots[:]
        again = run(sets, s)
        assert again.diagnostics.lp_pivots == result.diagnostics.lp_pivots
        assert again.diagnostics.lp_pivots == sum(pivots) + nc_pivots
    assert "search" in pc_sro(sets, s).diagnostics.extra


def test_resolve_solves_one_nc_game_per_route_set(monkeypatch):
    # NC and PC's start solve NC games, over placements that share
    # positions: each route set's game is still solved once in the whole
    # resolve.  FC solves no NC game.
    real_respond = pipeline.respond
    nc_games, route_sets = [], {}

    def solve(game, out, nc_rs):
        if nc_rs is not None:  # an NC game, not FC's master
            nc_games.append((id(nc_rs), nc_rs.routes))

    def respond_spy(*args, **kwargs):
        resp = real_respond(*args, **kwargs)
        for sets in resp.route_sets.values():
            route_sets.update((id(rs), rs) for rs in sets if rs.cover.any())
        return resp

    _spy_solves(monkeypatch, solve)
    monkeypatch.setattr(pipeline, "respond", respond_spy)
    s, alarm = generate_instance(GeneratorParams(n_targets=25, seed=0))
    report = resolve(s, alarm, ResolutionConfig(max_placements=4, pc_restarts=1))
    assert len(report.placements) == 4
    assert len(nc_games) == len(route_sets)
    assert {i for i, _ in nc_games} == set(route_sets)
    # Placements that share a position share its route set, so no two NC
    # games are over the same routes.
    assert len({routes for _, routes in nc_games}) == len(nc_games)


def test_oracle_results_do_not_depend_on_earlier_placements():
    # An NC game solved for an earlier placement is reused with its pivots,
    # so a placement's results, pivots included, are those of a fresh cache.
    s, alarm = generate_instance(GeneratorParams(n_targets=25, seed=2))
    d = all_pairs_distances(s)
    cover = min_cover(s, d).placement
    placements = [pl.positions for _, pl in zip(range(4), enumerate_placements(
        s, d, len(cover.positions), initial=cover))]
    shared: dict = {}
    for positions in placements[:-1]:
        for scheme in ("NC", "PC", "FC"):
            respond(s, d, alarm, positions, scheme, route_cache=shared, pc_restarts=1)
    last = placements[-1]
    assert any(key[0] in last for key in shared)  # some route set is reused
    for scheme in ("FC", "PC", "NC"):
        after = respond(s, d, alarm, last, scheme, route_cache=shared, pc_restarts=1)
        fresh = respond(s, d, alarm, last, scheme, route_cache={}, pc_restarts=1)
        assert after.per_signal.keys() == fresh.per_signal.keys()
        for sig, a in after.per_signal.items():
            b = fresh.per_signal[sig]
            assert (a.value, a.diagnostics, a.joint) == (b.value, b.diagnostics, b.joint)
            assert np.array_equal(a.uncovered, b.uncovered)
            assert (a.per_resource is None) == (b.per_resource is None)
            for x, y in zip(a.per_resource or (), b.per_resource or (), strict=True):
                assert np.array_equal(x, y)
        assert after.value == fresh.value


@pytest.mark.parametrize("restarts", [0, 2])
def test_pc_solves_no_response_lp_twice(monkeypatch, restarts):
    # The committed resource's game is reused, not solved again; every other
    # game of the call has new weights.
    real = oracles_module._response_game
    solved = []

    def spy(I, weights):
        solved.append((I.shape, I.tobytes(), weights.tobytes()))
        return real(I, weights)

    monkeypatch.setattr(oracles_module, "_response_game", spy)
    for n_targets, seed in ((20, 14), (100, 42)):
        s, sets = _first_placement_sets(n_targets, seed)
        del solved[:]
        result = pc_sro(sets, s, restarts=restarts)
        assert len(result.diagnostics.extra["traces"]) == restarts + 1
        assert len(set(solved)) == len(solved) > 0


def test_fc_trace_is_monotone():
    rng = stream(48, "fctrace")
    s = random_setting(9, rng, deadlines=(1, 2))
    d = all_pairs_distances(s)
    sets = routes_for(s, d, [0, s.n // 2, s.n - 1], s.targets)
    result = fc_sro(sets, s)
    trace = result.diagnostics.trace
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


# -- PC ------------------------------------------------------------------------


def test_response_game_matches_highs_on_the_min_v_program():
    # PC's response game against HiGHS on the program it stands for: minimize
    # v subject to v >= w_t (1 - sum_r I[r,t] x_r) and sum x = 1.  Row 0 is an
    # empty stay route, another row repeats a third, and some weights are 0.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(22)
    for trial in range(200):
        n_r, n_t = int(rng.integers(3, 10)), int(rng.integers(1, 9))
        I = (rng.random((n_r, n_t)) < rng.uniform(0.1, 0.7)).astype(float)
        I[0] = 0.0
        src, dst = rng.choice(np.arange(1, n_r), 2, replace=False)
        I[dst] = I[src]
        w = rng.uniform(0.0, 1.0, n_t)
        w[rng.random(n_t) < 0.25] = 0.0
        ref = optimize.linprog(
            np.append(np.zeros(n_r), 1.0),
            A_ub=np.hstack([-I.T * w[:, None], -np.ones((n_t, 1))]),
            b_ub=-w,
            A_eq=np.append(np.ones(n_r), 0.0)[None],
            b_eq=[1.0],
            method="highs",
        )
        assert ref.status == 0
        x, v, _ = oracles_module._response_game(I, w)
        assert v == pytest.approx(ref.fun, abs=1e-9), trial
        assert x.shape == (n_r,) and np.all(x >= 0.0) and x.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(np.max(w * (1.0 - x @ I))) == pytest.approx(v, abs=1e-9), trial


def test_response_game_breaks_ties_heaviest_row_first():
    # Target 2 is covered by no route, so v = 0.9 whatever the strategy; the
    # response must put its mass on the heaviest route, not the stay route.
    I = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x, v, _ = oracles_module._response_game(I, np.array([0.2, 0.3, 0.9]))
    assert v == pytest.approx(0.9, abs=1e-12)
    assert x.tolist() == [0.0, 0.0, 1.0]


def test_pc_single_resource_fixed_point():
    for trial in range(5):
        rng = stream(53, "pc1", trial)
        s = random_setting(7, rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        sets = routes_for(s, d, [rng.randrange(s.n)], s.targets)
        result = pc_sro(sets, s)
        nc = nc_sro(sets, s)
        assert result.value == pytest.approx(nc.value, abs=1e-7)
        assert result.diagnostics.optimal


def test_pc_disjoint_clusters_equal_nc():
    targets = {i: (1.0, 1) for i in (0, 1, 2)} | {i: (0.9, 1) for i in (5, 6, 7)}
    s = make_setting(
        8,
        [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (5, 7)],
        targets=targets,
    )
    d = all_pairs_distances(s)
    sets = routes_for(s, d, [0, 5], s.targets)
    nc = nc_sro(sets, s)
    pc = pc_sro(sets, s)
    assert pc.value == pytest.approx(nc.value, abs=1e-7)


def test_pc_traces_monotone_and_above_nc():
    for trial in range(10):
        rng = stream(59, "pcmono", trial)
        s = random_setting(9, rng, deadlines=(1, 2, 3))
        d = all_pairs_distances(s)
        starts = [rng.randrange(s.n) for _ in range(2)]
        sets = routes_for(s, d, starts, s.targets)
        nc = nc_sro(sets, s)
        pc = pc_sro(sets, s, restarts=2, seed=trial)
        assert pc.value >= nc.value - 1e-9
        for trace in pc.diagnostics.extra["traces"]:
            assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_pc_near_grid_team_maxmin_micro():
    # Every instance here has at most four routes per resource, so PC's
    # branch and bound runs and must land on the grid oracle's team maxmin,
    # whichever fixed point the alternating rounds and restarts reached.
    checked = 0
    trial = 0
    while checked < 4:
        trial += 1
        rng = stream(61, "pcgrid", trial)
        s = random_setting(6, rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        starts = [rng.randrange(s.n), rng.randrange(s.n)]
        sets = routes_for(s, d, starts, s.targets)
        if any(len(rs.routes) > 4 for rs in sets):
            continue
        checked += 1
        pc = pc_sro(sets, s, restarts=3, seed=trial)
        grid = grid_team_maxmin(sets, s, s.targets)
        assert pc.value == pytest.approx(grid, abs=1e-3)


def test_pc_search_certifies_team_maxmin_past_local_fixed_point():
    # Criterion 7's instance 29: every alternating run stops at a local
    # fixed point well below the grid value; the search must close the gap.
    rng = stream(107, "grid", 29)
    s = random_setting(rng.randrange(5, 9), rng, deadlines=(1, 2))
    d = all_pairs_distances(s)
    sets = routes_for(s, d, exact_cover(to_set_cover(s, d)).placement.positions, s.targets)
    pc = pc_sro(sets, s, restarts=10, seed=29)
    grid = grid_team_maxmin(sets, s, s.targets)
    assert max(t[-1] for t in pc.diagnostics.extra["traces"]) < grid - 1e-2
    assert pc.diagnostics.optimal
    assert pc.diagnostics.not_optimal is None
    assert pc.value >= grid - 1e-6
    search = pc.diagnostics.extra["search"]
    assert search["upper_bound"] >= pc.value - 1e-9
    assert search["gap"] <= 2e-7
    assert pc.diagnostics.trace[-1] == pc.value


def _first_route_sets(label, n_resources, accept):
    """First instance of a fixed stream whose route sets pass ``accept``."""
    trial = 0
    while True:
        trial += 1
        rng = stream(62, label, trial)
        s = random_setting(8, rng, deadlines=(1, 2, 3))
        d = all_pairs_distances(s)
        starts = [rng.randrange(s.n) for _ in range(n_resources)]
        sets = routes_for(s, d, starts, s.targets)
        if accept([len(rs.routes) for rs in sets]):
            return s, d, sets


@pytest.mark.parametrize(
    "n_resources, accept",
    [
        (3, lambda sizes: max(sizes) <= SEARCH_MAX_ROUTES),
        (2, lambda sizes: min(sizes) > SEARCH_MAX_ROUTES),
    ],
    ids=["micro-m3", "m2-above-search-size"],
)
def test_pc_not_optimal_without_search(n_resources, accept):
    s, d, sets = _first_route_sets(f"pcnosearch{n_resources}", n_resources, accept)
    pc = pc_sro(sets, s, restarts=2, seed=1)
    assert not pc.diagnostics.optimal
    assert pc.diagnostics.not_optimal == "local fixed point"
    assert "search" not in pc.diagnostics.extra


# -- ordering and aggregation ---------------------------------------------------


def test_scheme_ordering_per_signal():
    for trial in range(8):
        rng = stream(67, "order", trial)
        s = random_setting(9, rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        starts = sorted(rng.sample(range(s.n), 2))
        sets = routes_for(s, d, starts, s.targets)
        nc = nc_sro(sets, s)
        pc = pc_sro(sets, s)
        fc = fc_sro(sets, s)
        assert fc.value >= pc.value - 1e-6
        assert pc.value >= nc.value - 1e-6
        floor = 1.0 - max(s.value[t] for t in s.targets)
        for v in (nc.value, pc.value, fc.value):
            assert floor - 1e-9 <= v <= 1.0 + 1e-9


def test_single_signal_aggregate_equals_per_signal_value():
    rng = stream(71, "agg1")
    s = random_setting(8, rng, deadlines=(1, 2))
    alarm = single_signal(s)
    d = all_pairs_distances(s)
    resp = respond(s, d, alarm, [0, s.n - 1], "nc")
    assert resp.value == pytest.approx(resp.per_signal["s0"].value, abs=1e-12)


def test_multi_signal_aggregation_by_direct_enumeration():
    s = make_setting(5, [(0, 1), (1, 2), (2, 3), (3, 4)], deadline=2)
    ids = s.ids
    alarm = build_alarm(
        s,
        [
            ("east", {ids[0]: 1.0, ids[1]: 0.4, ids[2]: 0.5}),
            ("west", {ids[1]: 0.6, ids[2]: 0.5, ids[3]: 1.0, ids[4]: 1.0}),
        ],
    )
    d = all_pairs_distances(s)

    def uncovered(result, sets, t):
        """Enumerated from the strategies and the routes' visits."""
        if result.joint is not None:
            return 1.0 - sum(p for jr, p in result.joint.probs.items() if t in jr.covered)
        u = 1.0
        for rs, x in zip(sets, result.per_resource, strict=True):
            u *= 1.0 - sum(p for r, p in zip(rs.routes, x) if t in r.visits)
        return u

    for scheme in ("NC", "PC", "FC"):
        resp = respond(s, d, alarm, [1, 3], scheme)
        worst = 0.0
        for t in s.targets:
            u = 0.0
            for sig in alarm.signals:
                p = alarm.prob[sig].get(t, 0.0)
                if p > 0.0:
                    u += p * uncovered(resp.per_signal[sig], resp.route_sets[sig], t)
            worst = max(worst, s.value[t] * u)
        assert resp.value == pytest.approx(1.0 - worst, abs=1e-12)
        assert resp.value == pytest.approx(
            aggregate_value(s, alarm, resp.per_signal), abs=1e-12
        )


def test_pc_rejects_negative_restarts():
    s = make_setting(3, [(0, 1), (1, 2)])
    d = all_pairs_distances(s)
    sets = routes_for(s, d, (0, 2), s.targets)
    with pytest.raises(ValueError, match="restarts"):
        pc_sro(sets, s, restarts=-2)


def test_respond_rejects_unknown_scheme():
    s = make_setting(2, [(0, 1)])
    alarm = single_signal(s)
    d = all_pairs_distances(s)
    with pytest.raises(ValueError):
        respond(s, d, alarm, [0], "xx")


def test_empty_support_signal_is_harmless():
    # A signal that no target ever triggers is representable; all oracles
    # must degrade to the stay-put strategy with full value.
    s = make_setting(2, [(0, 1)])
    alarm = build_alarm(s, [("live", {"v0": 1.0, "v1": 1.0}), ("dead", {})])
    d = all_pairs_distances(s)
    for scheme in ("NC", "PC", "FC"):
        resp = respond(s, d, alarm, [0], scheme)
        assert resp.per_signal["dead"].value == 1.0
        assert resp.value == pytest.approx(resp.per_signal["live"].value)

    # PC with restarts past its deadline used to flag the dead signal "timeout".
    s = make_setting(3, [(0, 1), (1, 2)])
    alarm = build_alarm(s, [("live", {"v0": 1.0, "v1": 1.0, "v2": 1.0}), ("dead", {})])
    d = all_pairs_distances(s)
    sets = routes_for(s, d, (0, 2), ())
    past = time.monotonic() - 1.0
    pc = pc_sro(sets, s, restarts=2, deadline=past)
    assert pc.value == 1.0 and pc.diagnostics.optimal and pc.diagnostics.iterations == 0
    assert [x.tolist() for x in pc.per_resource] == [
        [1.0] + [0.0] * (len(rs.routes) - 1) for rs in sets
    ]
    assert all(not rs.routes[0].visits for rs in sets)
    resp = respond(s, d, alarm, [0, 2], "PC", pc_restarts=2, deadline=past)
    assert resp.per_signal["dead"].diagnostics.optimal
    assert resp.per_signal["dead"].value == 1.0
