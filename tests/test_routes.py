from alarmpatrol import (
    GeneratorParams,
    all_pairs_distances,
    covering_routes,
    generate_instance,
    routes,
)
from alarmpatrol.routes import CoveringRoute
from alarmpatrol.seeding import stream
from helpers import (
    brute_route_cover_sets,
    cycle_setting,
    make_setting,
    maximal_sets,
    random_setting,
    reference_covering_routes,
)


def test_line_example():
    # v - t1 - t2 with d(t1)=1, d(t2)=2: only the order (t1, t2) is feasible;
    # the reverse arrives at t1 at time 3 > 1.
    s = make_setting(3, [(0, 1), (1, 2)], targets={1: (1.0, 1), 2: (1.0, 2)})
    d = all_pairs_distances(s)
    rs = covering_routes(s, d, 0, (1, 2))
    nonempty = [r for r in rs.routes if r.visits]
    assert len(nonempty) == 1
    assert nonempty[0].visits == (1, 2)
    assert nonempty[0].arrivals == (1, 2)
    assert rs.routes[0].visits == ()  # stay-put sentinel, start not a target


def test_unreachable_support_yields_sentinel_only():
    s = make_setting(4, [(0, 1), (1, 2), (2, 3)], targets={3: (1.0, 1)})
    d = all_pairs_distances(s)
    rs = covering_routes(s, d, 0, (3,))
    assert rs.routes == (CoveringRoute(0, (), ()),)
    assert rs.complete


def test_star_one_leaf_per_route():
    leaves = 3
    s = make_setting(
        leaves + 1,
        [(0, i) for i in range(1, leaves + 1)],
        targets={i: (1.0, 1) for i in range(1, leaves + 1)},
    )
    d = all_pairs_distances(s)
    rs = covering_routes(s, d, 0, tuple(range(1, leaves + 1)))
    nonempty = [r for r in rs.routes if r.visits]
    assert len(nonempty) == leaves
    assert all(len(r.visits) == 1 for r in nonempty)


def test_start_on_target_includes_singleton():
    s = make_setting(2, [(0, 1)])
    d = all_pairs_distances(s)
    rs = covering_routes(s, d, 0, (0, 1))
    assert rs.routes[0].visits == (0,) and rs.routes[0].arrivals == (0,)


def _route_invariants(rs, setting, dist, support):
    support = set(support)
    for r in rs.routes[1:]:
        assert r.visits, "only the sentinel may be empty"
        assert set(r.visits) <= support
        assert len(set(r.visits)) == len(r.visits)
        assert r.arrivals[0] == dist[r.start][r.visits[0]]
        for i in range(len(r.visits)):
            assert r.arrivals[i] <= setting.deadline[r.visits[i]]
            if i:
                assert r.arrivals[i] == r.arrivals[i - 1] + dist[r.visits[i - 1]][r.visits[i]]
                assert r.arrivals[i] > r.arrivals[i - 1]


def _check_by_permutation_search(s, d, start, support):
    rs = covering_routes(s, d, start, support)
    assert rs.complete
    _route_invariants(rs, s, d, support)

    feasible = brute_route_cover_sets(s, d, start, support)
    expected = maximal_sets(feasible)
    got = {frozenset(r.visits) for r in rs.routes if r.visits}
    # Dominance: returned sets are exactly the maximal feasible ones
    # (modulo the always-present stay-put sentinel).
    sentinel_cov = frozenset(rs.routes[0].visits)
    assert got - {sentinel_cov} <= expected
    assert expected <= got
    # Completeness: every feasible covered set is inside some returned one.
    for c in feasible:
        assert any(c <= g for g in got | {frozenset()})


def test_matches_permutation_search():
    for trial in range(25):
        rng = stream(23, "routes", trial)
        s = random_setting(8, rng, deadlines=(1, 2, 3))
        d = all_pairs_distances(s)
        _check_by_permutation_search(s, d, rng.randrange(s.n), tuple(s.targets[:7]))


def test_matches_permutation_search_at_generator_scale():
    # Five starts on each generator instance.  Some reach more targets than
    # EXACT_LIMIT, so the beam-regime path is checked independently too.
    most = 0
    for n, seed, deadline in [
        (20, 14, None), (30, 1, None), (40, 7, None), (40, 7, 2), (60, 1, None), (80, 0, None)
    ]:
        s, _ = generate_instance(GeneratorParams(n_targets=n, seed=seed, deadline=deadline))
        d = all_pairs_distances(s)
        for start in range(0, n, n // 5):
            _check_by_permutation_search(s, d, start, s.targets)
            most = max(most, sum(d[start][t] <= s.deadline[t] for t in s.targets))
    assert most > routes.EXACT_LIMIT


def _cover_matches_routes(rs, support):
    assert rs.targets == tuple(sorted(set(support)))
    assert rs.cover.shape == (len(rs.routes), len(rs.targets))
    assert rs.cover.dtype == bool
    assert rs.cover.flags.writeable is False
    for i, r in enumerate(rs.routes):
        for j, t in enumerate(rs.targets):
            assert rs.cover[i, j] == (t in r.visits)


def test_cover_matrix_matches_covered_sets():
    for trial in range(20):
        rng = stream(24, "cover", trial)
        s = random_setting(9, rng, deadlines=(1, 2, 3), target_fraction=0.7)
        d = all_pairs_distances(s)
        support = tuple(t for t in s.targets if rng.random() < 0.8) or s.targets
        start = rng.randrange(s.n)
        _cover_matches_routes(covering_routes(s, d, start, support), support)
    for n, seed in ((20, 14), (40, 7)):
        s, alarm = generate_instance(GeneratorParams(n_targets=n, seed=seed))
        d = all_pairs_distances(s)
        support = alarm.signal_support("s0")
        for start in (0, n // 2, n - 1):
            _cover_matches_routes(covering_routes(s, d, start, support), support)


def test_masks_match_cover_matrix():
    for trial in range(20):
        rng = stream(24, "masks", trial)
        s = random_setting(9, rng, deadlines=(1, 2, 3), target_fraction=0.7)
        d = all_pairs_distances(s)
        support = tuple(t for t in s.targets if rng.random() < 0.8) or s.targets
        rs = covering_routes(s, d, rng.randrange(s.n), support)
        assert len(rs.masks) == len(rs.routes)
        for row, mask in zip(rs.cover, rs.masks):
            assert [bool(mask >> j & 1) for j in range(len(rs.targets))] == row.tolist()
            assert mask >> len(rs.targets) == 0


def test_deterministic_output():
    rng = stream(29, "det")
    s = random_setting(9, rng, deadlines=(1, 2))
    d = all_pairs_distances(s)
    a = covering_routes(s, d, 2, s.targets)
    b = covering_routes(s, d, 2, s.targets)
    assert a == b


def test_beam_limit_flags_incomplete(monkeypatch):
    # 22 leaves with loose deadlines force the beam switch; a tiny beam width
    # has to drop states and must say so.
    leaves = 22
    s = make_setting(
        leaves + 1,
        [(0, i) for i in range(1, leaves + 1)],
        targets={i: (1.0, 50) for i in range(1, leaves + 1)},
    )
    d = all_pairs_distances(s)
    monkeypatch.setattr(routes, "BEAM_WIDTH", 50)
    capped = covering_routes(s, d, 0, tuple(range(1, leaves + 1)))
    assert not capped.complete

    small = covering_routes(s, d, 0, tuple(range(1, 11)))
    assert small.complete


def test_matches_reference_dp_at_generator_scale(monkeypatch):
    # The slack-ordered successor lists and the one-target-removal maximality
    # test must return exactly what the full scan and the pairwise filter do:
    # the same visits, arrivals and flag, for complete sets and for sets the
    # beam truncated (where the pairwise filter still runs).
    truncated = 0
    for n, seed, deadline in (
        (150, 11, None), (100, 42, None), (60, 1, None), (20, 14, None),
        (40, 7, 2), (80, 3, 2), (70, 1, 2),
    ):
        s, alarm = generate_instance(GeneratorParams(n_targets=n, seed=seed, deadline=deadline))
        d = all_pairs_distances(s)
        support = alarm.signal_support("s0")
        mid = sorted(support)[len(support) // 2]
        off_support = tuple(t for t in support if t != mid)
        for start, targets in ((0, support), (mid, support), (mid, off_support)):
            for width in (100_000, 50, 5, 1):
                case = (n, seed, deadline, start, len(targets), width)
                monkeypatch.setattr(routes, "BEAM_WIDTH", width)
                rs = covering_routes(s, d, start, targets)
                want, complete = reference_covering_routes(s, d, start, targets)
                assert [(r.visits, r.arrivals) for r in rs.routes] == want, case
                assert rs.complete == complete, case
                truncated += not complete
    assert truncated >= 20


def test_covered_targets_are_the_reachable_ones(monkeypatch):
    # NC takes a resource's targets from the columns its routes cover.  Every
    # reachable target enters the DP as a singleton state before the beam can
    # drop anything, so those columns are exactly the targets reachable by
    # their deadlines, in complete and incomplete route sets alike.
    instances = [
        generate_instance(GeneratorParams(n_targets=n, seed=seed, deadline=deadline))
        for n, seed, deadline in ((20, 14, None), (40, 7, None), (30, 2, 2))
    ]

    def incomplete_sets(beam_width):
        monkeypatch.setattr(routes, "BEAM_WIDTH", beam_width)
        count = 0
        for s, alarm in instances:
            d = all_pairs_distances(s)
            support = alarm.signal_support("s0")
            for start in range(0, s.n, 5):
                rs = covering_routes(s, d, start, support)
                reachable = [d[start][t] <= s.deadline[t] for t in rs.targets]
                assert rs.cover.any(axis=0).tolist() == reachable
                count += not rs.complete
        return count

    assert incomplete_sets(100_000) == 0
    monkeypatch.setattr(routes, "EXACT_LIMIT", 0)
    assert incomplete_sets(1) > 0
    assert incomplete_sets(3) > 0


def _star(leaves, deadline):
    return make_setting(
        leaves + 1,
        [(0, i) for i in range(1, leaves + 1)],
        targets={i: (1.0, deadline) for i in range(1, leaves + 1)},
    )


def _broom(leaves, handle):
    # A star whose leaves only a first visit can make, and a path of
    # ``handle`` targets hanging off its centre, all reachable in one route.
    n = 1 + leaves + handle
    edges = [(0, i) for i in range(1, leaves + 2)] + [(i - 1, i) for i in range(leaves + 2, n)]
    targets = {i: (1.0, 1 if i <= leaves else handle + 2) for i in range(1, n)}
    return make_setting(n, edges, targets)


def test_long_routes_and_wide_supports(monkeypatch):
    # Routes of 8 to 12 visits and supports with more than 64 reachable
    # targets, from starts on and off the support: no fixed-width encoding
    # of the covered sets may overflow.  Checked against the permutation
    # search where it is fast, and against the reference DP at the default
    # beam and at widths 5 and 1 applied to every call.
    cases = [
        (cycle_setting(12, deadline=11), 0, tuple(range(12)), True),
        (cycle_setting(14, deadline=10), 0, tuple(range(1, 14)), True),
        (cycle_setting(16, deadline=15), 1, tuple(range(0, 16, 2)), True),
        (_star(9, 16), 0, tuple(range(1, 10)), False),
        (_broom(66, 7), 0, tuple(range(1, 74)), True),
        (_star(70, 3), 0, tuple(range(1, 71)), False),
    ]
    widest = 0
    for s, start, support, brute in cases:
        d = all_pairs_distances(s)
        widest = max(widest, sum(d[start][t] <= s.deadline[t] for t in support))
        if brute:
            _check_by_permutation_search(s, d, start, support)
    assert widest > 64

    beams = [(routes.EXACT_LIMIT, routes.BEAM_WIDTH), (0, 5), (0, 1)]
    longest = truncated = 0
    for s, start, support, _ in cases:
        d = all_pairs_distances(s)
        for limit, width in beams:
            monkeypatch.setattr(routes, "EXACT_LIMIT", limit)
            monkeypatch.setattr(routes, "BEAM_WIDTH", width)
            rs = covering_routes(s, d, start, support)
            want, complete = reference_covering_routes(s, d, start, support)
            assert [(r.visits, r.arrivals) for r in rs.routes] == want, (s.n, start, width)
            assert rs.complete == complete, (s.n, start, width)
            longest = max(longest, *(len(r.visits) for r in rs.routes))
            truncated += not complete
    assert longest >= 12 and truncated >= 10
