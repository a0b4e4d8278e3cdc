import itertools
import math
import time
from dataclasses import fields

import pytest

from alarmpatrol import (
    GeneratorParams,
    ResolutionConfig,
    all_pairs_distances,
    enumerate_placements,
    generate_instance,
    min_cover,
    reach,
    resolve,
    respond,
)
from alarmpatrol import mincover, oracles, pipeline
from alarmpatrol.fileio import report_payload
from alarmpatrol.mincover import CoveringPlacement, to_set_cover
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
        assert set(got) == expected


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


def test_enumerate_reaches_covers_the_swap_search_cannot():
    # This instance's 500 covers of size 10 fall into two swap components,
    # of 288 and 212 covers: the swap search from one cover reaches only its
    # own, and the cover search yields the rest (C(80, 10) = 1.6e12).
    s, _ = generate_instance(GeneratorParams(n_targets=80, seed=3, deadline=2))
    d = all_pairs_distances(s)
    got = [p.positions for p in enumerate_placements(s, d, 10, initial=min_cover(s, d).placement)]
    assert len(got) == len(set(got)) == 500
    assert all(reach(s, d)[list(p)].any(axis=0).all() for p in got)


def test_resolve_not_exhausted_when_the_cover_search_runs_out_of_time(monkeypatch):
    # The swap search finds 6 of the 8 covering placements of size 2 here;
    # the cover search that would yield the other two finds its deadline past.
    s, alarm = generate_instance(GeneratorParams(n_targets=30, seed=1))
    config = ResolutionConfig(time_budget=60.0, oracles=("NC",))
    report = resolve(s, alarm, config)
    assert (report.m, report.placements_evaluated, report.exhausted) == (2, 8, True)
    real = pipeline.covers
    monkeypatch.setattr(pipeline, "covers", lambda instance, n, size, deadline:
                        real(instance, n, size, time.monotonic() - 1.0))
    report = resolve(s, alarm, config)
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


def test_respond_guard_posts_share_route_sets():
    # A guard post named twice is staffed twice: both resources get the
    # post's one route set, and the extra resource cannot lower FC's value.
    s = make_setting(5, [(i, i + 1) for i in range(4)])
    alarm = single_signal(s)
    d = all_pairs_distances(s)
    once = respond(s, d, alarm, [1, 3], "FC")
    twice = respond(s, d, alarm, [1, 1, 3], "FC")
    first, second, _ = twice.route_sets["s0"]
    assert first is second
    assert twice.value >= once.value - 1e-9


def test_respond_fc_start_matches_route_sets_once(monkeypatch):
    # A start from another placement keeps a row per shared route set, each
    # source resource used once, so a doubled post's second resource is
    # chosen against the source's attacker; values are the cold ones.
    s = make_setting(6, [(i, i + 1) for i in range(5)])
    alarm = single_signal(s)
    d = all_pairs_distances(s)
    cache: dict = {}
    source = respond(s, d, alarm, [1, 4], "FC", route_cache=cache)
    starts = []
    real_fc = oracles.fc_sro

    def fc_spy(route_sets, setting, **kwargs):
        starts.append(kwargs["start"])
        return real_fc(route_sets, setting, **kwargs)

    monkeypatch.setattr(oracles, "fc_sro", fc_spy)
    src_rows = next(iter(source.per_signal["s0"].joint.probs)).rows
    # positions -> {resource: the source resource whose row it keeps}
    for positions, kept in (([1, 1, 4], {0: 0, 2: 1}), ([0, 4], {1: 1}), ([4, 2], {0: 1})):
        warm = respond(s, d, alarm, positions, "FC", route_cache=cache, fc_start=source)
        assert {i: starts[-1][0][i] for i in kept} == {i: src_rows[k] for i, k in kept.items()}
        cold = respond(s, d, alarm, positions, "FC", route_cache=cache)
        assert starts[-1] is None
        assert warm.per_signal["s0"].diagnostics.optimal
        assert abs(warm.value - cold.value) <= 1e-12


def test_resolve_records_a_numerical_failure_and_goes_on(monkeypatch):
    # An ArithmeticError from one oracle used to end resolve with no report.
    real, calls = pipeline.respond, []

    def flaky(setting, dist, alarm, positions, scheme, **kwargs):
        calls.append(scheme)
        if scheme == "FC" and calls.count("FC") == 2:
            raise ArithmeticError("simplex pivot limit exceeded")
        return real(setting, dist, alarm, positions, scheme, **kwargs)

    s, alarm = generate_instance(GeneratorParams(n_targets=12, seed=5))
    config = ResolutionConfig(time_budget=60.0, max_placements=3, seed=5)
    monkeypatch.setattr(pipeline, "respond", flaky)
    report = resolve(s, alarm, config)
    assert report.placements_evaluated == 3
    assert [pe.failed for pe in report.placements] == [
        {}, {"FC": "simplex pivot limit exceeded"}, {}
    ]
    assert [sorted(pe.values) for pe in report.placements] == [
        ["FC", "NC", "PC"], ["NC", "PC"], ["FC", "NC", "PC"]
    ]
    payload = report_payload(report, s)
    assert [pe.get("failed") for pe in payload["placements"]] == [
        None, {"FC": "simplex pivot limit exceeded"}, None
    ]
    # The other evaluations are those of a run without the failure.
    monkeypatch.setattr(pipeline, "respond", real)
    clean = resolve(s, alarm, config)
    for pe, ok in zip(report.placements, clean.placements):
        assert pe.values == {k: v for k, v in ok.values.items() if k not in pe.failed}


def test_resolve_builds_one_set_cover_instance(monkeypatch):
    # min_cover's instance is handed to enumerate_placements, and the
    # placements are those it yields from an instance of its own.
    s, alarm = generate_instance(GeneratorParams(n_targets=30, seed=2))
    built = []

    def counted(setting, dist):
        built.append(to_set_cover(setting, dist))
        return built[-1]

    monkeypatch.setattr(mincover, "to_set_cover", counted)
    monkeypatch.setattr(pipeline, "to_set_cover", counted)
    report = resolve(s, alarm, ResolutionConfig(oracles=("NC",), max_placements=30))
    assert len(built) == 1 and report.mincover.instance is built[0]
    monkeypatch.undo()
    d = all_pairs_distances(s)
    own = enumerate_placements(s, d, report.m, initial=report.mincover.placement)
    assert [pe.positions for pe in report.placements] == [
        p.positions for p in itertools.islice(own, 30)
    ]


def _spy_fc(monkeypatch, fail_first_fc=False):
    """Record each ``resolve`` FC evaluation as (positions, fc_start, start
    rows, response); with ``fail_first_fc`` the first one raises instead."""
    real_respond, real_fc = pipeline.respond, oracles.fc_sro
    calls, starts = [], []

    def respond_spy(setting, dist, alarm, positions, scheme, **kwargs):
        if scheme == "FC" and fail_first_fc and not calls:
            calls.append((positions, kwargs["fc_start"], None, None))
            raise ArithmeticError("simplex pivot limit exceeded")
        resp = real_respond(setting, dist, alarm, positions, scheme, **kwargs)
        if scheme == "FC":
            calls.append((positions, kwargs["fc_start"], starts.pop(), resp))
        return resp

    def fc_spy(route_sets, setting, **kwargs):
        starts.append(kwargs["start"])
        return real_fc(route_sets, setting, **kwargs)

    monkeypatch.setattr(pipeline, "respond", respond_spy)
    monkeypatch.setattr(oracles, "fc_sro", fc_spy)
    return calls, real_fc


# perfbench's fc-exact instances, 70/s1 at deadline 2 (m = 8), and all 37
# placements of 25/s0, where some placements have two earlier neighbours.
@pytest.mark.parametrize("n, seed, deadline, placements", [
    (40, 7, None, 4), (60, 1, None, 4), (70, 1, None, 4), (80, 0, None, 4), (80, 3, None, 4),
    (70, 1, 2, 12), (25, 0, None, 37),
])
def test_resolve_warm_fc_matches_a_cold_start(monkeypatch, n, seed, deadline, placements):
    # Each placement's FC starts from the support of the earliest evaluated
    # placement sharing all but one position, keeping that placement's rows
    # at the shared positions; the value is a cold start's, certified.
    s, alarm = generate_instance(GeneratorParams(n_targets=n, seed=seed, deadline=deadline))
    calls, cold_fc = _spy_fc(monkeypatch)
    report = resolve(s, alarm, ResolutionConfig(oracles=("FC",), max_placements=placements))
    assert report.placements_evaluated == len(calls) == placements
    seeded = 0
    for idx, (positions, fc_start, start, resp) in enumerate(calls):
        neighbours = [
            p for p, *_ in calls[:idx] if len(set(p) & set(positions)) == report.m - 1
        ]
        if not neighbours:
            assert fc_start is None and start is None
        else:
            seeded += 1
            source = neighbours[0]
            assert tuple(rs.start for rs in fc_start.route_sets["s0"]) == source
            shared = sorted(set(source) & set(positions))
            assert [tuple(row[positions.index(q)] for q in shared) for row in start] == [
                tuple(jr.rows[source.index(q)] for q in shared)
                for jr in fc_start.per_signal["s0"].joint.probs
            ]
        warm = resp.per_signal["s0"]
        cold = cold_fc(resp.route_sets["s0"], s)
        assert warm.diagnostics.optimal and cold.diagnostics.optimal
        assert abs(warm.value - cold.value) <= 1e-12
    assert seeded


def test_resolve_fc_starts_cold_when_its_seed_source_failed(monkeypatch):
    # Placement 1's one earlier neighbour is placement 0; with placement 0's
    # FC failed it starts cold, and every value is the clean run's.
    s, alarm = generate_instance(GeneratorParams(n_targets=60, seed=1))
    config = ResolutionConfig(oracles=("FC",), max_placements=4)
    clean_calls, _ = _spy_fc(monkeypatch)
    clean = resolve(s, alarm, config)
    assert clean_calls[1][1] is not None
    monkeypatch.undo()
    calls, cold_fc = _spy_fc(monkeypatch, fail_first_fc=True)
    report = resolve(s, alarm, config)
    assert [pe.failed for pe in report.placements] == [
        {"FC": "simplex pivot limit exceeded"}, {}, {}, {}
    ]
    positions, fc_start, start, resp = calls[1]
    assert fc_start is None and start is None
    assert resp.value == cold_fc(resp.route_sets["s0"], s).value
    for _, _, _, resp in calls[1:]:
        assert resp.per_signal["s0"].diagnostics.optimal
    for pe, ok in zip(report.placements[1:], clean.placements[1:]):
        assert pe.positions == ok.positions
        assert abs(pe.values["FC"] - ok.values["FC"]) <= 1e-12


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
    for bad in ({"pc_restarts": -2}, {"max_placements": 0}, {"max_placements": -1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ResolutionConfig(**bad)
    ResolutionConfig(pc_restarts=0, max_placements=1)
    names = [f.name for f in fields(ResolutionConfig)]
    assert names == ["time_budget", "oracles", "seed", "max_placements", "pc_restarts"]
