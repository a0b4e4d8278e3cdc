"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scaled-down quantitative checks and property sweeps; every tolerance is fixed
here, nothing is calibrated at runtime.
"""

import itertools
import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from alarmpatrol import (
    GeneratorParams,
    ResolutionConfig,
    RowGame,
    all_pairs_distances,
    cycle_min_cover,
    exact_cover,
    fc_sro,
    generate_instance,
    greedy_cover,
    local_search_improve,
    min_cover,
    nc_sro,
    overlap_metrics,
    pc_sro,
    resolve,
    to_set_cover,
    tree_min_cover,
    best_response_ilp,
)
from alarmpatrol.cli import main as cli_main
from alarmpatrol.games import normalized
from alarmpatrol.routes import covering_routes
from alarmpatrol.seeding import stream
from helpers import (
    brute_best_response_value,
    brute_min_cover_size,
    cycle_setting,
    grid_team_maxmin,
    joint_enumeration_value,
    make_setting,
    pearson,
    random_setting,
    random_tree_edges,
    routes_for,
    support_enumeration_value,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}", file=sys.stderr)
        raise
    print(f"criterion {number:2d} PASS  {description}", file=sys.stderr)


def _route_sets(setting, dist, starts, support):
    return tuple(covering_routes(setting, dist, p, support) for p in starts)


def test_criterion_1_tree_and_cycle_optimality():
    with criterion(1, "tree/cycle minimum covers match exhaustive enumeration"):
        t0 = time.perf_counter()
        for trial in range(200):
            rng = stream(101, "tree", trial)
            n = rng.randrange(3, 15)
            frac = 1.0 if trial % 4 else 0.7
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
            root = rng.randrange(n)
            assert len(tree_min_cover(s, root=root)) == brute_min_cover_size(s, dist)
        for trial in range(100):
            rng = stream(101, "cycle", trial)
            n = rng.randrange(3, 15)
            s = cycle_setting(n, rng=rng, deadlines=(1, 2, 3))
            dist = all_pairs_distances(s)
            assert len(cycle_min_cover(s)) == brute_min_cover_size(s, dist)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_greedy_quality():
    with criterion(2, "greedy+local-search within H(|T|)*OPT, avg error <= 5%"):
        t0 = time.perf_counter()
        errors = []
        for trial in range(100):
            rng = stream(102, "greedy", trial)
            n = rng.randrange(6, 16)
            s = random_setting(n, rng, deadlines=(1, 2, 3))
            dist = all_pairs_distances(s)
            inst = to_set_cover(s, dist)
            approx = len(local_search_improve(greedy_cover(inst), inst))
            opt = len(exact_cover(inst).placement)
            harmonic = sum(1.0 / i for i in range(1, len(s.targets) + 1))
            assert opt <= approx <= harmonic * opt
            errors.append((approx - opt) / opt)
        assert sum(errors) / len(errors) <= 0.05
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_zero_sum_lp_correctness():
    with criterion(3, "zero-sum LP value matches support enumeration within 1e-6"):
        rng = np.random.default_rng(103)
        for _ in range(200):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            U = rng.uniform(0.0, 1.0, (rows, cols))
            _, _, value = RowGame(U).solve()
            assert abs(value - support_enumeration_value(U)) <= 1e-6


def test_criterion_4_fc_exactness_and_economy():
    with criterion(4, "FC row generation matches joint enumeration, fewer rows in >=80%"):
        checked = 0
        economical = 0
        trial = 0
        while checked < 50:
            trial += 1
            rng = stream(104, "fc", trial)
            s = random_setting(rng.randrange(6, 9), rng, deadlines=(1, 2))
            dist = all_pairs_distances(s)
            starts = rng.sample(range(s.n), 2)
            sets = _route_sets(s, dist, starts, s.targets)
            if any(len(rs.routes) > 6 for rs in sets):
                continue
            checked += 1
            result = fc_sro(sets, s)
            assert result.diagnostics.optimal
            expected, n_joints = joint_enumeration_value(sets, s, s.targets)
            assert abs(result.value - expected) <= 1e-6
            if result.diagnostics.routes_generated < n_joints:
                economical += 1
        assert economical >= 0.8 * checked


def test_criterion_5_best_response_exactness():
    with criterion(5, "exact best response equals brute force over joint tuples"):
        checked = 0
        trial = 0
        while checked < 50:
            trial += 1
            rng = stream(105, "br", trial)
            s = random_setting(rng.randrange(6, 10), rng, deadlines=(1, 2))
            dist = all_pairs_distances(s)
            m = rng.randrange(1, 4)
            starts = [rng.randrange(s.n) for _ in range(m)]
            sets = _route_sets(s, dist, starts, s.targets)
            if any(len(rs.routes) > 6 for rs in sets):
                continue
            checked += 1
            weights = [rng.random() for _ in s.targets]
            attacker = normalized(weights)  # one probability per target of the support
            _, objective, ok = best_response_ilp(sets, attacker, s)
            assert ok
            brute = brute_best_response_value(sets, attacker, s)
            assert abs(objective - brute) <= 1e-12


def _generated_minimum_placements(count):
    """Generated |T|=20 instances with their exact minimum placements."""
    out = []
    for seed in range(count):
        s, alarm = generate_instance(GeneratorParams(n_targets=20, seed=seed))
        dist = all_pairs_distances(s)
        mc = min_cover(s, dist, "exact")
        assert mc.optimal
        out.append((seed, s, alarm, dist, mc.placement))
    return out


def test_criterion_6_coordination_ordering():
    with criterion(6, "FC >= PC >= NC - 1e-6 per placement; PC traces monotone"):
        for seed, s, alarm, dist, placement in _generated_minimum_placements(100):
            support = alarm.signal_support("s0")
            base = _route_sets(s, dist, placement.positions, support)
            # k=1 is the plain placement; k=2 staffs every guard post twice,
            # which makes the coordination gap observable even when m=1.
            for k in (1, 2):
                sets = tuple(rs for rs in base for _ in range(k))
                nc = nc_sro(sets, s)
                pc = pc_sro(sets, s, seed=seed)
                fc = fc_sro(sets, s)
                assert fc.diagnostics.optimal
                assert fc.value >= pc.value - 1e-6, (seed, k)
                assert pc.value >= nc.value - 1e-6, (seed, k)
                for trace in pc.diagnostics.extra["traces"]:
                    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_criterion_7_pc_near_grid_team_maxmin():
    # The alternating-LP runs alone are local: on tightly coupled micro
    # instances their fixed points sit up to a few percent below the global
    # team maxmin no matter how many random restarts are spent (4.94e-2 on
    # instance 29).  PC's two-resource branch and bound closes that gap at
    # this scale, so the strict tolerance holds without loosening.
    with criterion(7, "PC within 1e-3 of grid-search team maxmin at micro scale"):
        checked = 0
        trial = 0
        gaps = []
        while checked < 20:
            trial += 1
            rng = stream(107, "grid", trial)
            s = random_setting(rng.randrange(5, 9), rng, deadlines=(1, 2))
            dist = all_pairs_distances(s)
            mc = exact_cover(to_set_cover(s, dist))
            if len(mc.placement) != 2:
                continue
            sets = _route_sets(s, dist, mc.placement.positions, s.targets)
            if any(len(rs.routes) > 4 for rs in sets):
                continue
            checked += 1
            pc = pc_sro(sets, s, restarts=10, seed=trial)
            grid = grid_team_maxmin(sets, s, s.targets, step=1000)
            gaps.append((abs(pc.value - grid), trial))
        worst, worst_trial = max(gaps)
        assert worst <= 1e-3, f"worst |PC - grid| = {worst:.2e} (instance {worst_trial})"


def test_criterion_8_anytime_resolution():
    with criterion(8, "resolve evaluates >= 5 placements with monotone incumbents"):
        # Seed 14 is the first |T|=20 seed whose minimum needs two resources,
        # so the placement space is large enough to exercise enumeration.
        s, alarm = generate_instance(GeneratorParams(n_targets=20, seed=14))
        report = resolve(s, alarm, ResolutionConfig(time_budget=60.0, seed=14))
        assert report.placements_evaluated >= 5
        incumbents: dict[str, float] = {}
        for entry in report.trace:
            prev = incumbents.get(entry.oracle, -math.inf)
            assert entry.value <= 1.0 + 1e-9
            incumbents[entry.oracle] = max(prev, entry.value)
        for scheme in ("FC", "PC", "NC"):
            assert report.best[scheme].value == incumbents[scheme]
        # incumbent sequence per oracle is non-decreasing by construction;
        # check the recorded best beats or ties every trace entry
        for entry in report.trace:
            assert report.best[entry.oracle].value >= entry.value - 1e-12


def test_criterion_9_linear_growth_of_minimum_cover():
    with criterion(9, "mean minimum cover size grows linearly in |T| (r >= 0.9)"):
        sizes = (10, 20, 30, 40)
        means = []
        for n in sizes:
            ms = []
            for seed in range(20):
                s, _ = generate_instance(GeneratorParams(n_targets=n, seed=seed))
                dist = all_pairs_distances(s)
                mc = min_cover(s, dist, "exact")
                assert mc.optimal
                ms.append(len(mc.placement))
            means.append(sum(ms) / len(ms))
        assert pearson(sizes, means) >= 0.9


def test_criterion_10_overlap_metric_bounds():
    with criterion(10, "0 <= eta <= (|T|-m)(m-1) for m >= 2 on all runs"):
        for seed, s, alarm, dist, placement in _generated_minimum_placements(40):
            metrics = overlap_metrics(placement, s, dist)
            m = len(placement)
            assert metrics.eta >= 0
            if m >= 2:
                assert metrics.eta <= (len(s.targets) - m) * (m - 1)
                assert 0.0 <= metrics.tau_hat <= 1.0
        # every placement enumerated during a resolution run stays in bounds
        s, alarm = generate_instance(GeneratorParams(n_targets=20, seed=14))
        report = resolve(
            s, alarm, ResolutionConfig(time_budget=30.0, oracles=("NC",), seed=14)
        )
        n_targets = len(s.targets)
        assert report.placements
        for pe in report.placements:
            m = len(pe.positions)
            assert pe.metrics.eta >= 0
            if m >= 2:
                assert pe.metrics.eta <= (n_targets - m) * (m - 1)
                assert 0.0 <= pe.metrics.tau_hat <= 1.0


def _run_cli_twice(argv_builder, out_a, out_b, result_files):
    assert cli_main(argv_builder(str(out_a))) in (0, 3)
    assert cli_main(argv_builder(str(out_b))) in (0, 3)
    for name in result_files:
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "identical seed + single worker give byte-identical results"):
        base = tmp_path
        _run_cli_twice(
            lambda out: ["gen", "--targets", "12", "--seed", "9", "--out", out],
            base / "gen_a",
            base / "gen_b",
            ["instance.json"],
        )
        instance = str(base / "gen_a" / "instance.json")
        _run_cli_twice(
            lambda out: ["mincover", "--instance", instance, "--method", "exact", "--out", out],
            base / "mc_a",
            base / "mc_b",
            ["placement.json"],
        )
        _run_cli_twice(
            lambda out: ["routes", "--instance", instance, "--start", "v0", "--out", out],
            base / "rt_a",
            base / "rt_b",
            ["routes.json"],
        )
        placement_file = str(base / "mc_a" / "placement.json")
        for oracle in ("nc", "pc", "fc"):
            _run_cli_twice(
                lambda out, oracle=oracle: [
                    "sro", "--instance", instance, "--placement-file", placement_file,
                    "--oracle", oracle, "--seed", "9", "--out", out,
                ],
                base / f"sro_{oracle}_a",
                base / f"sro_{oracle}_b",
                ["result.json"],
            )
        _run_cli_twice(
            lambda out: [
                "resolve", "--instance", instance, "--oracles", "fc,pc,nc",
                "--budget", "60s", "--seed", "9", "--out", out,
            ],
            base / "rs_a",
            base / "rs_b",
            ["report.json"],
        )
        _run_cli_twice(
            lambda out: [
                "bench", "--sizes", "6,8", "--seeds", "2", "--budget", "30s",
                "--oracles", "nc,fc", "--out", out,
            ],
            base / "bm_a",
            base / "bm_b",
            [
                "bench.csv",
                "run_t6_s0/report.json",
                "run_t6_s1/report.json",
                "run_t8_s0/report.json",
                "run_t8_s1/report.json",
            ],
        )
