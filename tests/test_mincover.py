import gc

import pytest

from alarmpatrol import (
    CoveringPlacement,
    GeneratorParams,
    SetCoverInstance,
    all_pairs_distances,
    cycle_min_cover,
    exact_cover,
    generate_instance,
    greedy_cover,
    local_search_improve,
    min_cover,
    overlap_metrics,
    reach,
    to_set_cover,
    tree_min_cover,
)
from alarmpatrol.mincover import (
    Infeasible,
    NotACycle,
    NotATree,
    _is_cycle,
    _is_tree,
    is_covering,
)
from alarmpatrol.seeding import stream
from helpers import (
    brute_min_cover_size,
    cycle_setting,
    make_setting,
    random_setting,
    random_tree_edges,
)


def _star(leaves: int):
    return make_setting(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_to_set_cover_examples():
    path3 = make_setting(3, [(0, 1), (1, 2)])
    inst = to_set_cover(path3, all_pairs_distances(path3))
    assert inst.full == 0b111
    assert inst.masks == {0: 0b011, 1: 0b111, 2: 0b110}

    single = make_setting(1, [])
    inst = to_set_cover(single, all_pairs_distances(single))
    assert inst.full == 1 and inst.masks == {0: 1}


def test_every_target_in_own_candidate_set():
    rng = stream(5, "tsc")
    s = random_setting(10, rng)
    d = all_pairs_distances(s)
    inst = to_set_cover(s, d)
    for j, t in enumerate(s.targets):
        assert inst.masks[t] >> j & 1
    cover = reach(s, d)
    for v in range(s.n):
        mask = inst.masks.get(v, 0)
        assert [bool(mask >> j & 1) for j in range(len(s.targets))] == cover[v].tolist()


def test_greedy_trace():
    # Universe {1,2,3} as bits 0-2; a={1,2}, b={2,3}, c={3}: greedy takes a
    # (tie with b, lower id wins), then b; exhaustive check confirms OPT=2.
    inst = SetCoverInstance(masks={0: 0b011, 1: 0b110, 2: 0b100}, full=0b111)
    assert greedy_cover(inst).positions == (0, 1)


def test_set_cover_masks_follow_sorted_universe():
    # On a 10-vertex path with targets 3, 5 and 7 (deadline 1), bit j stands
    # for the j-th target; vertices 0, 1 and 9 cover nothing and get no mask.
    s = make_setting(10, [(i, i + 1) for i in range(9)], targets={t: (1.0, 1) for t in (7, 3, 5)})
    inst = to_set_cover(s, all_pairs_distances(s))
    assert inst.masks == {2: 0b001, 3: 0b001, 4: 0b011, 5: 0b010, 6: 0b110, 7: 0b100, 8: 0b100}
    assert list(inst.masks) == [2, 3, 4, 5, 6, 7, 8]
    assert inst.full == 0b111


def test_greedy_single_set():
    inst = SetCoverInstance(masks={0: 0b1}, full=0b1)
    assert greedy_cover(inst).positions == (0,)


def test_greedy_infeasible():
    inst = SetCoverInstance(masks={0: 0b01}, full=0b11)
    with pytest.raises(Infeasible):
        greedy_cover(inst)


def test_greedy_within_harmonic_bound():
    def harmonic(n):
        return sum(1.0 / i for i in range(1, n + 1))

    for trial in range(25):
        rng = stream(11, "greedy", trial)
        s = random_setting(12, rng)
        dist = all_pairs_distances(s)
        inst = to_set_cover(s, dist)
        g = local_search_improve(greedy_cover(inst), inst)
        opt = brute_min_cover_size(s, dist)
        assert opt <= len(g) <= harmonic(len(s.targets)) * opt
        assert is_covering(g.positions, s, dist)


def test_local_search_drops_redundant():
    inst = SetCoverInstance(masks={0: 0b11, 1: 0b01}, full=0b11)
    improved = local_search_improve(CoveringPlacement((0, 1)), inst)
    assert improved.positions == (0,)


def test_local_search_fixed_point():
    inst = SetCoverInstance(masks={0: 0b01, 1: 0b10}, full=0b11)
    p = CoveringPlacement((0, 1))
    assert local_search_improve(p, inst).positions == p.positions


def test_local_search_pair_replacement():
    inst = SetCoverInstance(masks={0: 0b001, 1: 0b010, 2: 0b011, 3: 0b100}, full=0b111)
    improved = local_search_improve(CoveringPlacement((0, 1, 3)), inst)
    assert improved.positions == (2, 3)


def test_local_search_never_grows():
    for trial in range(25):
        rng = stream(12, "ls", trial)
        s = random_setting(12, rng)
        dist = all_pairs_distances(s)
        inst = to_set_cover(s, dist)
        g = greedy_cover(inst)
        improved = local_search_improve(g, inst)
        assert len(improved) <= len(g)
        assert is_covering(improved.positions, s, dist)


def test_exact_cover_examples():
    path5 = make_setting(5, [(i, i + 1) for i in range(4)])
    assert len(exact_cover(to_set_cover(path5, all_pairs_distances(path5))).placement) == 2

    star = _star(3)
    result = exact_cover(to_set_cover(star, all_pairs_distances(star)))
    assert result.placement.positions == (0,)

    # Any instance where one vertex covers everything is solved with size 1.
    s = make_setting(4, [(0, 1), (0, 2), (0, 3)], deadline=2)
    assert len(exact_cover(to_set_cover(s, all_pairs_distances(s))).placement) == 1


def test_exact_cover_matches_enumeration():
    for trial in range(20):
        rng = stream(13, "exact", trial)
        s = random_setting(12, rng)
        dist = all_pairs_distances(s)
        result = exact_cover(to_set_cover(s, dist))
        assert result.optimal
        assert len(result.placement) == brute_min_cover_size(s, dist)
        assert is_covering(result.placement.positions, s, dist)


def test_exact_cover_is_minimal():
    rng = stream(14, "minimal")
    s = random_setting(10, rng)
    dist = all_pairs_distances(s)
    placement = exact_cover(to_set_cover(s, dist)).placement
    for drop in placement.positions:
        rest = [p for p in placement.positions if p != drop]
        assert not rest or not is_covering(rest, s, dist)


def test_exact_cover_timeout_returns_incumbent():
    rng = stream(15, "timeout")
    s = random_setting(30, rng, extra_edges=40)
    dist = all_pairs_distances(s)
    result = exact_cover(to_set_cover(s, dist), time_budget=0.0)
    assert not result.optimal
    assert is_covering(result.placement.positions, s, dist)


def test_exact_cover_leaves_no_reference_cycles():
    # Garbage in cycles waits for the cyclic collector, so the peak memory of
    # a run would depend on when that happens to run.
    s, _ = generate_instance(GeneratorParams(n_targets=80, seed=0))
    dist = all_pairs_distances(s)
    gc.disable()
    try:
        gc.collect()
        result = min_cover(s, dist, "exact")
        assert result.optimal
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tree_path3():
    path3 = make_setting(3, [(0, 1), (1, 2)])
    assert tree_min_cover(path3, root=0).positions == (1,)


def test_tree_path5_recursion_trace():
    # Rooted at an endpoint the recursion postpones twice and is forced to
    # place at v3 and then at the root, matching the hand trace.
    path5 = make_setting(5, [(i, i + 1) for i in range(4)])
    assert tree_min_cover(path5, root=0).positions == (0, 3)


def test_tree_single_vertex_wrapper():
    single = make_setting(1, [])
    assert tree_min_cover(single).positions == (0,)


def test_tree_rejects_non_tree():
    with pytest.raises(NotATree):
        tree_min_cover(cycle_setting(4))


def test_tree_optimal_and_root_independent():
    for trial in range(40):
        rng = stream(16, "tree", trial)
        n = rng.randrange(4, 13)
        frac = 1.0 if trial % 3 else 0.6
        s = make_setting(
            n,
            random_tree_edges(n, rng),
            targets={
                i: (1.0, rng.choice((1, 2, 3)))
                for i in range(n)
                if rng.random() <= frac or i == 0
            },
        )
        dist = all_pairs_distances(s)
        opt = brute_min_cover_size(s, dist)
        sizes = set()
        for root in range(0, n, max(1, n // 3)):
            placement = tree_min_cover(s, root=root)
            assert is_covering(placement.positions, s, dist)
            sizes.add(len(placement))
        assert sizes == {opt}


def test_cycle_examples():
    assert len(cycle_min_cover(cycle_setting(3))) == 1
    assert len(cycle_min_cover(cycle_setting(6))) == 2
    assert len(cycle_min_cover(cycle_setting(4, deadline=2))) == 1


def test_cycle_rejects_non_cycle():
    with pytest.raises(NotACycle):
        cycle_min_cover(make_setting(3, [(0, 1), (1, 2)]))


def test_cycle_optimal():
    for trial in range(20):
        rng = stream(17, "cycle", trial)
        n = rng.randrange(3, 13)
        s = cycle_setting(n, rng=rng, deadlines=(1, 2, 3))
        dist = all_pairs_distances(s)
        placement = cycle_min_cover(s)
        assert is_covering(placement.positions, s, dist)
        assert len(placement) == brute_min_cover_size(s, dist)


def test_min_cover_auto_dispatch():
    path3 = make_setting(3, [(0, 1), (1, 2)])
    d = all_pairs_distances(path3)
    assert min_cover(path3, d, "auto").method == "tree"
    ring = cycle_setting(5)
    assert min_cover(ring, all_pairs_distances(ring), "auto").method == "cycle"
    dense = make_setting(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert min_cover(dense, all_pairs_distances(dense), "auto").method == "exact"


def test_topology_checks_match_networkx():
    nx = pytest.importorskip("networkx")
    settings = [make_setting(1, []), make_setting(2, [(0, 1)])]
    for trial in range(40):
        rng = stream(62, "nx-topology", trial)
        n = rng.randrange(1, 12)
        settings.append(make_setting(n, random_tree_edges(n, rng)))
        settings.append(random_setting(n, rng))
        if n >= 3:
            settings.append(cycle_setting(n))
    kinds = set()
    for s in settings:
        graph = nx.Graph()
        graph.add_nodes_from(range(s.n))
        graph.add_edges_from(s.edges)
        is_cycle = nx.is_connected(graph) and all(deg == 2 for _, deg in graph.degree())
        assert _is_tree(s) == nx.is_tree(graph)
        assert _is_cycle(s) == is_cycle
        kinds.add((nx.is_tree(graph), is_cycle, len(s.edges) == s.n))
    # Trees, cycles, and non-cycles with as many edges as vertices all occur.
    assert {(True, False, False), (False, True, True), (False, False, True)} <= kinds


def test_overlap_metrics_formula():
    # |T|=4, m=2, coverage sets of sizes 3 and 3: eta=2, tau=0.5, tau_hat=1.
    s = make_setting(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    d = all_pairs_distances(s)
    m = overlap_metrics(CoveringPlacement((0, 2)), s, d)
    assert (m.eta, m.tau, m.tau_hat) == (2, 0.5, 1.0)


def test_overlap_metrics_disjoint_and_degenerate():
    path4 = make_setting(4, [(0, 1), (1, 2), (2, 3)])
    d = all_pairs_distances(path4)
    # v0 covers {0,1}, v3 covers {2,3}: a disjoint partition.
    m = overlap_metrics(CoveringPlacement((0, 3)), path4, d)
    assert (m.eta, m.tau, m.tau_hat) == (0, 0.0, 0.0)

    star = _star(3)
    ds = all_pairs_distances(star)
    m1 = overlap_metrics(CoveringPlacement((0,)), star, ds)
    assert (m1.eta, m1.tau_hat) == (0, 0.0)


def test_eta_bound_on_minimum_placements():
    for trial in range(15):
        rng = stream(18, "eta", trial)
        s = random_setting(10, rng)
        dist = all_pairs_distances(s)
        placement = exact_cover(to_set_cover(s, dist)).placement
        m = len(placement)
        metrics = overlap_metrics(placement, s, dist)
        assert metrics.eta >= 0
        if m >= 2:
            assert metrics.eta <= (len(s.targets) - m) * (m - 1)
            assert 0.0 <= metrics.tau_hat <= 1.0
