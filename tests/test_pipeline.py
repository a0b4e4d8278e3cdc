import math

import pytest

from alarmpatrol import (
    GeneratorParams,
    ResolutionConfig,
    all_pairs_distances,
    enumerate_placements,
    generate_instance,
    resolve,
    respond,
)
from alarmpatrol import pipeline
from alarmpatrol.fileio import report_payload
from alarmpatrol.mincover import CoveringPlacement
from alarmpatrol.pipeline import BudgetTooSmall
from alarmpatrol.seeding import stream
from helpers import (
    brute_covering_placements,
    cycle_setting,
    make_setting,
    random_setting,
    single_signal,
)


def test_generator_deadline_schedule():
    s20, _ = generate_instance(GeneratorParams(n_targets=20, seed=1))
    assert all(s20.deadline[t] == 3 for t in s20.targets)
    s100, _ = generate_instance(GeneratorParams(n_targets=100, seed=1))
    assert all(s100.deadline[t] == 5 for t in s100.targets)


def test_generator_deterministic():
    a, alarm_a = generate_instance(GeneratorParams(n_targets=20, seed=7))
    b, alarm_b = generate_instance(GeneratorParams(n_targets=20, seed=7))
    assert a == b and alarm_a == alarm_b
    c, _ = generate_instance(GeneratorParams(n_targets=20, seed=8))
    assert a != c


def test_generator_shape():
    for seed in range(6):
        s, alarm = generate_instance(GeneratorParams(n_targets=24, seed=seed))
        assert len(s.targets) == 24  # all vertices are targets
        mean_degree = 2 * len(s.edges) / s.n
        assert abs(mean_degree - 3.0) <= 0.5
        assert alarm.signal_support("s0") == s.targets
        assert all(0.0 < s.value[t] <= 1.0 for t in s.targets)


def test_generator_rejects_non_finite_or_negative_degree():
    # An infinite degree used to raise OverflowError from math.ceil.
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="avg_degree"):
            generate_instance(GeneratorParams(n_targets=12, seed=0, avg_degree=bad))
    tree, _ = generate_instance(GeneratorParams(n_targets=12, seed=0, avg_degree=0))
    assert len(tree.edges) == tree.n - 1


def test_enumerate_triangle_all_single_placements():
    s = cycle_setting(3)
    d = all_pairs_distances(s)
    got = list(enumerate_placements(s, d, 1))
    assert sorted(p.positions for p in got) == [(0,), (1,), (2,)]


def test_enumerate_unique_placement_then_exhausted():
    # Star leaves cover only themselves plus the center, so the center is the
    # only covering single placement.
    s = make_setting(4, [(0, 1), (0, 2), (0, 3)])
    d = all_pairs_distances(s)
    got = list(enumerate_placements(s, d, 1))
    assert [p.positions for p in got] == [(0,)]


def test_enumerate_matches_exhaustive_and_never_repeats():
    for trial in range(8):
        rng = stream(73, "enum", trial)
        s = random_setting(10, rng, deadlines=(1, 2))
        d = all_pairs_distances(s)
        m = 1 if brute_covering_placements(s, d, 1) else 2
        expected = brute_covering_placements(s, d, m)
        if not expected:
            continue
        got = [p.positions for p in enumerate_placements(s, d, m)]
        assert len(got) == len(set(got))
        assert set(got) <= expected
        assert set(got) == expected  # systematic sweep guarantees exhaustion here


def test_enumerate_rejects_bad_sizes():
    s = cycle_setting(3)
    d = all_pairs_distances(s)
    with pytest.raises(ValueError):
        list(enumerate_placements(s, d, 0))
    with pytest.raises(ValueError):
        list(enumerate_placements(s, d, 4))


def test_resolve_single_vertex():
    s = make_setting(1, [])
    alarm = single_signal(s)
    report = resolve(s, alarm, ResolutionConfig(time_budget=10.0, seed=0))
    assert report.m == 1
    assert report.placements_evaluated == 1
    assert report.exhausted
    for scheme in ("FC", "PC", "NC"):
        assert report.best[scheme].value == pytest.approx(1.0)


def test_resolve_path5_fc_matches_exhaustive_placements():
    s = make_setting(5, [(i, i + 1) for i in range(4)])
    alarm = single_signal(s)
    d = all_pairs_distances(s)
    report = resolve(
        s, alarm, ResolutionConfig(time_budget=30.0, oracles=("FC",), seed=3)
    )
    assert report.m == 2
    assert report.exhausted
    best = max(
        respond(s, d, alarm, combo, "FC").value
        for combo in brute_covering_placements(s, d, 2)
    )
    assert report.best["FC"].value == pytest.approx(best, abs=1e-9)
    assert report.placements_evaluated == len(brute_covering_placements(s, d, 2))


def test_resolve_not_exhausted_without_sweep(monkeypatch):
    # Without the systematic sweep the swap search finds 6 of the 8 covering
    # placements of size 2 on this instance, so exhaustion is not proven.
    monkeypatch.setattr(pipeline, "SYSTEMATIC_CAP", 0)
    s, alarm = generate_instance(GeneratorParams(n_targets=30, seed=1))
    report = resolve(s, alarm, ResolutionConfig(time_budget=60.0, oracles=("NC",)))
    assert report.m == 2
    assert report.placements_evaluated == 6
    assert report.exhausted is False


def test_resolve_incumbent_trace_monotone():
    s, alarm = generate_instance(GeneratorParams(n_targets=12, seed=5))
    report = resolve(
        s,
        alarm,
        ResolutionConfig(time_budget=20.0, max_placements=6, seed=5),
    )
    assert report.placements_evaluated >= 1
    incumbent: dict[str, float] = {}
    for entry in report.trace:
        cur = incumbent.get(entry.oracle, -math.inf)
        incumbent[entry.oracle] = max(cur, entry.value)
    for scheme, entry in report.best.items():
        assert entry.value == pytest.approx(incumbent[scheme])
    # every evaluated placement keeps the scheme ordering
    for pe in report.placements:
        if {"FC", "PC", "NC"} <= set(pe.values):
            assert pe.values["FC"] >= pe.values["PC"] - 1e-6
            assert pe.values["PC"] >= pe.values["NC"] - 1e-6


def test_resolve_budget_too_small():
    s, alarm = generate_instance(GeneratorParams(n_targets=12, seed=5))
    with pytest.raises(BudgetTooSmall):
        resolve(s, alarm, ResolutionConfig(time_budget=1e-9))


def test_resolve_deterministic_reports():
    s, alarm = generate_instance(GeneratorParams(n_targets=10, seed=11))
    config = ResolutionConfig(time_budget=30.0, max_placements=5, seed=11)
    a = report_payload(resolve(s, alarm, config), s)
    b = report_payload(resolve(s, alarm, config), s)
    assert a == b


def test_resolve_guard_posts_share_route_sets():
    s = make_setting(5, [(i, i + 1) for i in range(4)])
    alarm = single_signal(s)
    solo = resolve(
        s, alarm, ResolutionConfig(time_budget=20.0, oracles=("NC",), seed=0)
    )
    doubled = resolve(
        s,
        alarm,
        ResolutionConfig(
            time_budget=20.0, oracles=("NC",), seed=0, resources_per_position=2
        ),
    )
    assert doubled.m == solo.m  # m counts guard posts
    assert doubled.best["NC"].value >= solo.best["NC"].value - 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        ResolutionConfig(time_budget=0.0)
    with pytest.raises(ValueError):
        ResolutionConfig(oracles=())
    with pytest.raises(ValueError):
        ResolutionConfig(oracles=("XX",))
    for budget in (math.nan, math.inf):
        with pytest.raises(ValueError, match="time budget"):
            ResolutionConfig(time_budget=budget)
    # A repeated oracle used to end resolve after one placement, unexhausted.
    for oracles in (("FC", "FC"), ("fc", "PC", "FC"), ("nc", "NC")):
        with pytest.raises(ValueError, match=repr(oracles[-1])):
            ResolutionConfig(oracles=oracles)
    for bad in ({"beam_width": 0}, {"beam_width": -3}, {"pc_restarts": -2},
                {"max_placements": 0}, {"max_placements": -1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ResolutionConfig(**bad)
    ResolutionConfig(beam_width=1, pc_restarts=0, max_placements=1)
