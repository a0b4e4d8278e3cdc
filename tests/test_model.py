import numpy as np
import pytest

from alarmpatrol import (
    GeneratorParams,
    all_pairs_distances,
    build_alarm,
    build_setting,
    generate_instance,
    model,
    reach,
    to_set_cover,
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
    # Edges in more than one component: two paths, a path plus an isolated
    # vertex, and a path plus an isolated vertex 0, where the search starts.
    for n, edges in (
        (6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
        (5, [(0, 1), (1, 2), (2, 3)]),
        (5, [(1, 2), (2, 3), (3, 4)]),
    ):
        with pytest.raises(DisconnectedGraph):
            make_setting(n, edges)


def test_connectivity_matches_networkx():
    nx = pytest.importorskip("networkx")
    outcomes = set()
    for trial in range(60):
        rng = stream(29, "connected", trial)
        n = rng.randrange(1, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if rng.random() < 2.0 / n]
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        connected = nx.is_connected(graph)
        outcomes.add(connected)
        if connected:
            assert make_setting(n, edges).edges == tuple(edges)
        else:
            with pytest.raises(DisconnectedGraph):
                make_setting(n, edges)
    assert outcomes == {True, False}


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
        settings.append(random_setting(n, rng, target_fraction=0.6))
        if n >= 3:
            settings.append(cycle_setting(n))
    for n, seed in ((20, 14), (40, 7), (80, 3)):
        settings.append(generate_instance(GeneratorParams(n_targets=n, seed=seed))[0])
    zero_rows = 0
    for s in settings:
        graph = nx.Graph()
        graph.add_nodes_from(range(s.n))
        graph.add_edges_from(s.edges)
        expected = dict(nx.all_pairs_shortest_path_length(graph))
        d = all_pairs_distances(s)
        assert [[d[u][v] for v in range(s.n)] for u in range(s.n)] == [
            [expected[u][v] for v in range(s.n)] for u in range(s.n)
        ]
        cover = reach(s, d)
        assert cover.tolist() == [
            [expected[v][t] <= s.deadline[t] for t in s.targets] for v in range(s.n)
        ]
        packed = {
            v: sum(1 << j for j in range(len(s.targets)) if cover[v, j]) for v in range(s.n)
        }
        assert to_set_cover(s, d).masks == {v: mask for v, mask in packed.items() if mask}
        zero_rows += 0 in packed.values()
    assert zero_rows > 0


def test_long_diameters_and_source_blocks(monkeypatch):
    # A path and a cycle run one BFS level per hop, about n levels in all;
    # _VISITS = 1 and 2000 split the sources into blocks of one and a few.
    n = 120
    i, j = np.indices((n, n))
    path = make_setting(n, [(v, v + 1) for v in range(n - 1)])
    ring = cycle_setting(n)
    generated = generate_instance(GeneratorParams(n_targets=80, seed=3))[0]
    expected = [np.abs(i - j), np.minimum(np.abs(i - j), n - np.abs(i - j))]
    expected.append(all_pairs_distances(generated))
    for visits in (None, 1, 2000):
        if visits is not None:
            monkeypatch.setattr(model, "_VISITS", visits)
        for s, want in zip((path, ring, generated), expected):
            assert np.array_equal(all_pairs_distances(s), want)
    with pytest.raises(DisconnectedGraph):
        make_setting(n, [(v, v + 1) for v in range(n - 2)])


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


def test_reach_examples():
    path3 = make_setting(3, [(0, 1), (1, 2)])
    cover = reach(path3, all_pairs_distances(path3))
    assert cover[1, 1]  # self-coverage at distance 0
    assert cover[1].tolist() == [True, True, True]

    path5 = make_setting(5, [(i, i + 1) for i in range(4)])
    cover5 = reach(path5, all_pairs_distances(path5))
    assert cover5.shape == (5, 5) and cover5[0].sum() == 2


def test_every_target_covers_itself():
    for trial in range(5):
        rng = stream(3, "selfcov", trial)
        s = random_setting(8, rng, target_fraction=0.7)
        cover = reach(s, all_pairs_distances(s))
        for j, t in enumerate(s.targets):
            assert cover[t, j]
        assert cover.any(axis=0).all()
