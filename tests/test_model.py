import pytest

from alarmpatrol import (
    GeneratorParams,
    all_pairs_distances,
    build_alarm,
    build_setting,
    coverage_set,
    generate_instance,
)
from alarmpatrol.model import (
    BadDeadline,
    BadEdge,
    BadProbability,
    BadValue,
    DanglingEdge,
    DisconnectedGraph,
    UnknownSignal,
    UnknownTarget,
    UnknownVertex,
)
from helpers import (
    brute_distance,
    cycle_setting,
    make_setting,
    random_setting,
    random_tree_edges,
    single_signal,
)
from alarmpatrol.seeding import stream


def test_single_vertex_instance():
    s = build_setting(["a"], [], [("a", 1.0, 1)])
    assert s.n == 1 and s.targets == (0,)


def test_triangle_all_targets():
    s = make_setting(3, [(0, 1), (1, 2), (0, 2)], value=0.5)
    assert len(s.targets) == 3
    assert all(s.value[t] == 0.5 for t in s.targets)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        build_setting(["a", "b"], [], [("a", 1.0, 1), ("b", 1.0, 1)])


def test_bad_value_and_deadline():
    with pytest.raises(BadValue):
        build_setting(["a"], [], [("a", 0.0, 1)])
    with pytest.raises(BadValue):
        build_setting(["a"], [], [("a", 1.5, 1)])
    with pytest.raises(BadDeadline):
        build_setting(["a"], [], [("a", 1.0, 0)])


def test_edge_validation():
    with pytest.raises(DanglingEdge):
        build_setting(["a"], [("a", "b")], [("a", 1.0, 1)])
    with pytest.raises(BadEdge):
        build_setting(["a", "b"], [("a", "a"), ("a", "b")], [("a", 1.0, 1)])
    with pytest.raises(BadEdge):
        build_setting(["a", "b"], [("a", "b"), ("b", "a")], [("a", 1.0, 1)])


def test_path_distance():
    s = make_setting(3, [(0, 1), (1, 2)])
    d = all_pairs_distances(s)
    assert d[0][2] == 2 and d[2][0] == 2 and d[1][1] == 0


def test_cycle_diameter():
    s = make_setting(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    d = all_pairs_distances(s)
    assert d.max() == 2


def test_distances_match_exhaustive_path_search():
    for trial in range(10):
        rng = stream(17, "dist", trial)
        s = random_setting(10, rng)
        d = all_pairs_distances(s)
        for u in range(s.n):
            for v in range(s.n):
                assert d[u][v] == brute_distance(s, u, v)
        # metric sanity: symmetry and triangle inequality
        for u in range(s.n):
            assert d[u][u] == 0
            for v in range(s.n):
                assert d[u][v] == d[v][u] <= s.n - 1
                for w in range(s.n):
                    assert d[u][w] <= d[u][v] + d[v][w]


def test_distances_match_networkx():
    nx = pytest.importorskip("networkx")
    settings = []
    for trial in range(20):
        rng = stream(61, "nx-dist", trial)
        n = rng.randrange(1, 30)
        settings.append(random_setting(n, rng))
        settings.append(make_setting(n, random_tree_edges(n, rng)))
        if n >= 3:
            settings.append(cycle_setting(n))
    for n, seed in ((20, 14), (40, 7), (80, 3)):
        settings.append(generate_instance(GeneratorParams(n_targets=n, seed=seed))[0])
    for s in settings:
        graph = nx.Graph()
        graph.add_nodes_from(range(s.n))
        graph.add_edges_from(s.edges)
        expected = dict(nx.all_pairs_shortest_path_length(graph))
        d = all_pairs_distances(s)
        assert [[d[u][v] for v in range(s.n)] for u in range(s.n)] == [
            [expected[u][v] for v in range(s.n)] for u in range(s.n)
        ]


def test_signal_supports():
    s = make_setting(3, [(0, 1), (1, 2)])
    one = build_alarm(s, [("s0", {"v0": 1.0, "v1": 1.0, "v2": 1.0})])
    assert one.signal_support("s0") == s.targets

    diag = build_alarm(
        s,
        [("s1", {"v0": 1.0, "v2": 0.3}), ("s2", {"v1": 1.0, "v2": 0.7})],
    )
    assert diag.signal_support("s1") == (0, 2)
    assert diag.target_support(2) == ("s1", "s2")
    with pytest.raises(UnknownSignal):
        diag.signal_support("nope")
    with pytest.raises(UnknownTarget):
        diag.target_support(99)


def test_alarm_validation():
    s = make_setting(2, [(0, 1)])
    with pytest.raises(BadProbability):
        build_alarm(s, [("s0", {"v0": 0.5, "v1": 1.0})])
    with pytest.raises(UnknownTarget):
        build_alarm(s, [("s0", {"v0": 1.0, "v1": 1.0, "zz": 1.0})])
    non_target = make_setting(2, [(0, 1)], targets={0: (1.0, 1)})
    with pytest.raises(UnknownTarget):
        build_alarm(non_target, [("s0", {"v0": 0.5, "v1": 0.5})])


def test_coverage_set_examples():
    path3 = make_setting(3, [(0, 1), (1, 2)])
    d = all_pairs_distances(path3)
    assert 1 in coverage_set(path3, d, 1)  # self-coverage at distance 0
    assert coverage_set(path3, d, 1) == (0, 1, 2)

    path5 = make_setting(5, [(i, i + 1) for i in range(4)])
    d5 = all_pairs_distances(path5)
    assert len(coverage_set(path5, d5, 0)) == 2
    with pytest.raises(UnknownVertex):
        coverage_set(path5, d5, 9)


def test_every_target_covers_itself():
    for trial in range(5):
        rng = stream(3, "selfcov", trial)
        s = random_setting(8, rng, target_fraction=0.7)
        d = all_pairs_distances(s)
        cov = {v: coverage_set(s, d, v) for v in range(s.n)}
        union = set()
        for v in range(s.n):
            union |= set(cov[v])
            if s.is_target(v):
                assert v in cov[v]
        assert union >= set(s.targets)
