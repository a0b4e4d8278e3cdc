import json
import math
from pathlib import Path

import pytest

from alarmpatrol import all_pairs_distances, games, pipeline, respond, routes
from alarmpatrol.cli import EXIT_NUMERIC, EXIT_TIMEOUT, aggregate_bench, main, parse_duration
from alarmpatrol.fileio import (
    instance_to_payload,
    load_instance,
    parse_instance,
    save_instance,
    FileFormatError,
)
from alarmpatrol.mincover import MinCoverResult
from alarmpatrol.pipeline import GeneratorParams, generate_instance


def run(argv):
    return main(argv)


def test_parse_duration():
    assert parse_duration("90") == 90.0
    assert parse_duration("60s") == 60.0
    assert parse_duration("1.5m") == 90.0
    assert parse_duration("2h") == 7200.0
    assert parse_duration("500ms") == 0.5
    with pytest.raises(ValueError):
        parse_duration("abc")
    with pytest.raises(ValueError):
        parse_duration("-3s")
    for text in ("nan", "inf", "-inf", "infs", "nanm"):
        with pytest.raises(ValueError, match="finite"):
            parse_duration(text)


def test_gen_schedule_and_roundtrip(tmp_path):
    assert run(["gen", "--targets", "20", "--seed", "1", "--out", str(tmp_path)]) == 0
    setting, alarm = load_instance(tmp_path / "instance.json")
    assert len(setting.targets) == 20
    assert all(setting.deadline[t] == 3 for t in setting.targets)

    payload = instance_to_payload(setting, alarm)
    setting2, alarm2 = parse_instance(payload)
    assert setting2 == setting and alarm2 == alarm


def test_malformed_instance_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a"], "edges": [["a", "a", 3]],
                               "targets": [], "signals": []}))
    code = run(["mincover", "--instance", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "edges" in capsys.readouterr().err

    bad.write_text(json.dumps({"vertices": ["a"], "edgez": [], "targets": [], "signals": []}))
    code = run(["mincover", "--instance", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "edgez" in err or "edges" in err

    # Numbers must be finite JSON numbers (deadlines integers), not null,
    # NaN, Infinity, bools or strings.
    def instance(value=0.5, deadline=1, prob=1.0):
        return {
            "vertices": ["a", "b"],
            "edges": [["a", "b"]],
            "targets": [
                {"id": "a", "value": value, "deadline": deadline},
                {"id": "b", "value": 1.0, "deadline": 1},
            ],
            "signals": [{"id": "s0", "probs": {"a": prob, "b": 1.0}}],
        }

    cases = [
        ("value", instance(value=None)),
        ("value", instance(value=True)),
        ("value", instance(value="1")),
        ("value", instance(value=math.nan)),
        ("value", instance(value=math.inf)),
        ("value", instance(value=10**400)),
        ("deadline", instance(deadline=None)),
        ("deadline", instance(deadline=math.inf)),
        ("deadline", instance(deadline=True)),
        ("deadline", instance(deadline="2")),
        ("deadline", instance(deadline=2.0)),
        ("probs", instance(prob=None)),
        ("probs", instance(prob="1")),
        ("probs", instance(prob=False)),
        ("probs", instance(prob=-math.inf)),
    ]
    for key, payload in cases:
        bad.write_text(json.dumps(payload))
        code = run(["mincover", "--instance", str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, (key, payload, err)
        assert f"'{key}'" in err, (key, err)
    bad.write_text(json.dumps(instance()))
    assert run(["mincover", "--instance", str(bad), "--out", str(tmp_path)]) == 0


def test_missing_file_is_invalid_input(tmp_path):
    assert run(["mincover", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_mincover_tree_method_matches_exact(tmp_path):
    from alarmpatrol.seeding import stream
    from helpers import make_setting, random_tree_edges, single_signal

    rng = stream(2, "clitree")
    setting = make_setting(9, random_tree_edges(9, rng), deadline=2)
    alarm = single_signal(setting)
    inst = tmp_path / "instance.json"
    save_instance(setting, alarm, inst)

    out_tree = tmp_path / "tree"
    out_exact = tmp_path / "exact"
    assert run(["mincover", "--instance", str(inst), "--method", "tree", "--out", str(out_tree)]) == 0
    assert run(["mincover", "--instance", str(inst), "--method", "exact", "--out", str(out_exact)]) == 0
    size_tree = json.loads((out_tree / "placement.json").read_text())["size"]
    size_exact = json.loads((out_exact / "placement.json").read_text())["size"]
    assert size_tree == size_exact


def test_routes_and_sro(tmp_path):
    assert run(["gen", "--targets", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    inst = str(tmp_path / "instance.json")
    assert run(["routes", "--instance", inst, "--start", "v0", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "routes.json").read_text())
    assert payload["start"] == "v0"
    routes = payload["signals"]["s0"]["routes"]
    assert routes and all("visits" in r and "arrivals" in r for r in routes)

    assert run([
        "mincover", "--instance", inst, "--method", "exact", "--out", str(tmp_path),
    ]) == 0
    assert run([
        "sro", "--instance", inst, "--placement-file", str(tmp_path / "placement.json"),
        "--oracle", "fc", "--out", str(tmp_path),
    ]) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["scheme"] == "FC"
    assert 0.0 <= result["value"] <= 1.0
    strategy = result["signals"]["s0"]["strategy"]["joint"]
    assert abs(sum(e["p"] for e in strategy) - 1.0) < 1e-9


def _value_from_result(result, instance) -> float:
    """The aggregate value recomputed from a result file's route sets and
    strategies alone, with the instance's target values and signal table."""
    value = {t["id"]: t["value"] for t in instance["targets"]}
    unprotected = {t: 0.0 for t in value}
    for sig in instance["signals"]:
        entry = result["signals"][sig["id"]]
        visits = [[set(r["visits"]) for r in rs["routes"]] for rs in entry["route_sets"]]
        strategy = entry["strategy"]
        for t, p_sig in sig["probs"].items():
            if p_sig <= 0.0:
                continue
            if "joint" in strategy:
                miss = 1.0 - sum(
                    e["p"] for e in strategy["joint"]
                    if any(t in visits[i][r] for i, r in enumerate(e["routes"]))
                )
            else:
                miss = 1.0
                for i, rows in enumerate(strategy["per_resource"]):
                    miss *= 1.0 - sum(e["p"] for e in rows if t in visits[i][e["route"]])
            unprotected[t] += p_sig * miss
    return 1.0 - max(value[t] * unprotected[t] for t in value)


def test_sro_strategies_reproduce_the_value(tmp_path):
    # Each oracle's written strategies give back its value; FC's joint
    # strategy in memory gives back its per-signal value through
    # ``JointRoute.covered``.
    assert run(["gen", "--targets", "20", "--seed", "14", "--out", str(tmp_path)]) == 0
    inst = tmp_path / "instance.json"
    assert run(["mincover", "--instance", str(inst), "--out", str(tmp_path)]) == 0
    instance = json.loads(inst.read_text())
    for oracle, options in (("nc", []), ("pc", ["--restarts", "2", "--seed", "14"]), ("fc", [])):
        out = tmp_path / oracle
        assert run([
            "sro", "--instance", str(inst), "--placement-file", str(tmp_path / "placement.json"),
            "--oracle", oracle, "--out", str(out), *options,
        ]) == 0
        result = json.loads((out / "result.json").read_text())
        assert abs(_value_from_result(result, instance) - result["value"]) <= 1e-12, oracle

    setting, alarm = load_instance(inst)
    placement = json.loads((tmp_path / "placement.json").read_text())["positions"]
    positions = [setting.index_of(v) for v in placement]
    resp = respond(setting, all_pairs_distances(setting), alarm, positions, "FC")
    for s, res in resp.per_signal.items():
        worst = 0.0
        for t in alarm.signal_support(s):
            cover = sum(p for jr, p in res.joint.probs.items() if t in jr.covered)
            worst = max(worst, setting.value[t] * (1.0 - cover))
        assert abs((1.0 - worst) - res.value) <= 1e-9


def test_sro_result_says_why_not_optimal(tmp_path, monkeypatch):
    def diagnostics(n_targets, seed, placement, *options):
        out = tmp_path / f"t{n_targets}_s{seed}"
        assert run(["gen", "--targets", str(n_targets), "--seed", str(seed), "--out", str(out)]) == 0
        assert run([
            "sro", "--instance", str(out / "instance.json"), "--placement", placement,
            "--out", str(out), *options,
        ]) == 0
        diag = json.loads((out / "result.json").read_text())["signals"]["s0"]["diagnostics"]
        assert type(diag["lp_pivots"]) is int and diag["lp_pivots"] > 0
        return diag

    def narrow_beam(*options):
        with monkeypatch.context() as patch:
            patch.setattr(routes, "BEAM_WIDTH", 5)
            return diagnostics(40, 7, "v0,v1,v2", *options)

    fc = narrow_beam("--oracle", "fc")
    assert fc["optimal"] is False and fc["not_optimal"] == "incomplete routes"
    fc = diagnostics(40, 7, "v0,v1,v2", "--oracle", "fc")
    assert fc["optimal"] is True and "not_optimal" not in fc
    nc = diagnostics(40, 7, "v0,v1,v2", "--oracle", "nc")
    assert nc["optimal"] is True and "not_optimal" not in nc and "search" not in nc
    nc = narrow_beam("--oracle", "nc")
    assert nc["optimal"] is False and nc["not_optimal"] == "incomplete routes"
    # v14 has 3 covering routes, so PC runs its two-resource search.
    pc = diagnostics(20, 14, "v4,v14", "--oracle", "pc")
    assert pc["optimal"] is True and "not_optimal" not in pc
    assert set(pc["search"]) == {"nodes", "upper_bound", "gap"}


def test_sro_rejects_malformed_placement_file(tmp_path, capsys):
    assert run(["gen", "--targets", "6", "--seed", "3", "--out", str(tmp_path)]) == 0
    placement = tmp_path / "placement.json"
    cases = [
        ({"size": 1}, "positions"),
        ({"positions": 3}, "positions"),
        ({"positions": [0]}, "positions"),
        (["v0"], "positions"),
        ({"positions": []}, "no vertex"),
    ]
    texts = [(json.dumps(payload), key) for payload, key in cases]
    texts.append(('{"positions": [', str(placement)))
    for text, named in texts:
        placement.write_text(text)
        code = run(["sro", "--instance", str(tmp_path / "instance.json"), "--oracle", "nc",
                    "--placement-file", str(placement), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, (text, err)
        assert named in err, (text, err)
    code = run(["sro", "--instance", str(tmp_path / "instance.json"), "--oracle", "nc",
                "--placement", ",", "--out", str(tmp_path)])
    assert code == 2 and "no vertex" in capsys.readouterr().err
    placement.write_text(json.dumps({"positions": ["v0"]}))
    assert run(["sro", "--instance", str(tmp_path / "instance.json"), "--oracle", "nc",
                "--placement-file", str(placement), "--out", str(tmp_path)]) == 0


def test_huge_integer_in_instance_names_the_file(tmp_path, capsys):
    bad = tmp_path / "huge.json"
    bad.write_text(
        '{"vertices": ["a"], "edges": [], "signals": [{"id": "s0", "probs": {"a": 1}}],'
        ' "targets": [{"id": "a", "value": 1, "deadline": ' + "9" * 5000 + "}]}"
    )
    code = run(["mincover", "--instance", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def test_bad_counts_exit_2_naming_the_flag(tmp_path, capsys):
    # --max-placements -1 used to evaluate nothing and exit 0.  So did an
    # empty bench list or a seed count below 1, writing a header-only
    # bench.csv; a repeated size or seed ran one instance twice into one run
    # directory and wrote its rows twice.  A size of 0 failed only after the
    # sizes before it had run.  A --deadline of 0 failed only after bench had
    # made its first run directory, naming target v0 instead of the flag.
    assert run(["gen", "--targets", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    inst = ["--instance", str(tmp_path / "instance.json"), "--out", str(tmp_path)]
    sro = ["sro", *inst, "--placement", "v0", "--oracle", "pc"]
    resolve = ["resolve", *inst]
    bench = ["bench", "--sizes", "8", "--seeds", "1", "--out", str(tmp_path)]
    for argv, flag in [
        (sro + ["--restarts=-2"], "--restarts"),
        (resolve + ["--max-placements=-1"], "--max-placements"),
        (resolve + ["--max-placements", "0"], "--max-placements"),
        (resolve + ["--restarts=-2"], "--restarts"),
        (bench + ["--max-placements", "0"], "--max-placements"),
        (bench + ["--restarts=-1"], "--restarts"),
        (bench + ["--seeds", "0"], "--seeds"),
        (bench + ["--seeds=-1"], "--seeds"),
        (bench + ["--seeds", ","], "--seeds"),
        (bench + ["--seeds", "2,2"], "--seeds"),
        (bench + ["--sizes", ""], "--sizes"),
        (bench + ["--sizes", "8,8"], "--sizes"),
        (bench + ["--sizes", "8,x"], "--sizes"),
        (bench + ["--sizes", "8,0"], "--sizes"),
        (bench + ["--deadline", "0"], "--deadline"),
        (["gen", "--targets", "8", "--deadline", "0", "--out", str(tmp_path)], "--deadline"),
    ]:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert flag in capsys.readouterr().err, argv
    assert not (tmp_path / "bench.csv").exists()
    assert not (tmp_path / "run_t8_s0").exists()


def test_bad_values_exit_2_naming_them(tmp_path, capsys):
    # --budget nan never bound and wrote NaN into report.json, --oracles fc,fc
    # stopped after one placement, and --avg-degree inf exited 4.
    assert run(["gen", "--targets", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    inst = ["--instance", str(tmp_path / "instance.json"), "--out", str(tmp_path)]
    cases = [
        (["gen", "--targets", "8", "--out", str(tmp_path), "--avg-degree", bad], "avg_degree")
        for bad in ("inf", "nan", "-1")
    ]
    for budget in ("nan", "inf"):
        cases += [
            (["resolve", *inst, "--budget", budget], "duration"),
            (["sro", *inst, "--placement", "v0", "--oracle", "nc", "--budget", budget], "duration"),
            (["mincover", *inst, "--budget", budget], "duration"),
        ]
    cases += [(["resolve", *inst, "--oracles", o], "more than once") for o in ("fc,fc", "fc,FC")]
    for argv, word in cases:
        assert run(argv) == 2, argv
        assert word in capsys.readouterr().err, argv
    assert not (tmp_path / "report.json").exists()


def test_bench_checks_budget_and_oracles_before_writing(tmp_path, capsys):
    # Both used to be parsed per instance, after the first run directory and
    # its instance.json had been written.
    for i, (flag, word) in enumerate(
        [(["--budget", "abc"], "duration"), (["--oracles", "fc,fc"], "more than once")]
    ):
        out = tmp_path / str(i)
        out.mkdir()
        assert run(["bench", "--sizes", "8", "--seeds", "1", *flag, "--out", str(out)]) == 2
        assert word in capsys.readouterr().err
        assert list(out.iterdir()) == []


def test_fc_mode_is_a_usage_error(tmp_path, capsys):
    # FC has one loop, certified by its exact best response, so the option
    # that chose between an exact and a heuristic loop is gone, and so is its
    # manifest key.
    assert run(["gen", "--targets", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    inst = ["--instance", str(tmp_path / "instance.json"), "--out", str(tmp_path)]
    for argv in (
        ["sro", *inst, "--placement", "v0", "--oracle", "fc"],
        ["resolve", *inst, "--oracles", "fc", "--max-placements", "1"],
        ["bench", "--sizes", "8", "--seeds", "1", "--oracles", "fc", "--max-placements", "1",
         "--out", str(tmp_path)],
    ):
        for mode in ("exact", "heuristic"):
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--fc-mode", mode])
            assert exc.value.code == 2, argv
            assert "--fc-mode" in capsys.readouterr().err, argv
        assert run(argv) == 0, argv
    for name in ("result.json", "report.json", "run_t8_s0/report.json"):
        assert "fc_mode" not in json.loads((tmp_path / name).read_text())["manifest"]["config"]


def test_beam_width_and_mincover_method_are_usage_errors(tmp_path, capsys):
    # The beam width is routes.BEAM_WIDTH and resolve always takes the auto
    # minimum cover, so neither is an option or a manifest key any more.  Nor
    # is the number of resources per guard post: a post named twice in a
    # placement is staffed twice.
    assert run(["gen", "--targets", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    inst = ["--instance", str(tmp_path / "instance.json"), "--out", str(tmp_path)]
    routes_argv = ["routes", *inst, "--start", "v0"]
    sro = ["sro", *inst, "--placement", "v0", "--oracle", "nc"]
    resolve = ["resolve", *inst, "--oracles", "nc", "--max-placements", "1"]
    for argv, extra in [
        (routes_argv, ["--beam-width", "5"]),
        (sro, ["--beam-width", "5"]),
        (resolve, ["--beam-width=100000"]),
        (resolve, ["--mincover-method", "greedy"]),
        (resolve, ["--resources-per-position", "2"]),
    ]:
        with pytest.raises(SystemExit) as exc:
            run([*argv, *extra])
        assert exc.value.code == 2, extra
        assert extra[0].split("=")[0] in capsys.readouterr().err, extra
        assert run(argv) == 0, argv
    for name in ("routes.json", "result.json", "report.json"):
        config = json.loads((tmp_path / name).read_text())["manifest"]["config"]
        assert not {"beam_width", "mincover_method", "resources_per_position"} & set(config), name


def test_sro_requires_placement(tmp_path, capsys):
    # Exactly one of --placement and --placement-file; given both, sro used
    # to ignore --placement.
    assert run(["gen", "--targets", "6", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert run(["mincover", "--instance", str(tmp_path / "instance.json"),
                "--out", str(tmp_path)]) == 0
    sro = ["sro", "--instance", str(tmp_path / "instance.json"), "--oracle", "nc",
           "--out", str(tmp_path)]
    both = ["--placement", "v0", "--placement-file", str(tmp_path / "placement.json")]
    for extra, word in [([], "--placement"), (both, "not allowed with argument")]:
        with pytest.raises(SystemExit) as exc:
            run([*sro, *extra])
        assert exc.value.code == 2, extra
        err = capsys.readouterr().err
        assert word in err and "--placement-file" in err, extra
    assert not (tmp_path / "result.json").exists()


def test_numerical_failure_exits_4(tmp_path, capsys, monkeypatch):
    def fail(prog):
        raise ArithmeticError("simplex pivot limit exceeded")

    monkeypatch.setattr(games, "lp_solve", fail)
    assert run(["gen", "--targets", "6", "--seed", "3", "--out", str(tmp_path)]) == 0
    code = run(["sro", "--instance", str(tmp_path / "instance.json"), "--oracle", "nc",
                "--placement", "v0", "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC == 4
    err = capsys.readouterr().err
    assert err.strip() == "error: numerical failure: simplex pivot limit exceeded"
    assert not (tmp_path / "result.json").exists()


def test_numerical_failure_in_resolve_and_bench_exits_4_after_writing(tmp_path, capsys,
                                                                     monkeypatch):
    # resolve used to stop at the first ArithmeticError and write nothing.
    real = pipeline.respond

    def fail_fc(setting, dist, alarm, positions, scheme, **kwargs):
        if scheme == "FC":
            raise ArithmeticError("simplex pivot limit exceeded")
        return real(setting, dist, alarm, positions, scheme, **kwargs)

    monkeypatch.setattr(pipeline, "respond", fail_fc)
    assert run(["gen", "--targets", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    code = run(["resolve", "--instance", str(tmp_path / "instance.json"), "--oracles", "fc,nc",
                "--max-placements", "2", "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC
    assert "FC on placement 0: simplex pivot limit exceeded" in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["placements_evaluated"] == 2 and set(report["best"]) == {"NC"}
    for pe in report["placements"]:
        assert pe["failed"] == {"FC": "simplex pivot limit exceeded"}
    assert (tmp_path / "trace.csv").exists()
    code = run(["bench", "--sizes", "8", "--seeds", "2", "--oracles", "fc,nc",
                "--max-placements", "2", "--out", str(tmp_path / "bench")])
    assert code == EXIT_NUMERIC
    assert (tmp_path / "bench" / "bench.csv").read_text().count(",NC,") == 2


def test_min_cover_timeout_exits_3_from_resolve_and_bench(tmp_path, monkeypatch):
    # bench used to exit 0 here: it counted only oracle timeouts.
    real = pipeline.min_cover

    def cut(setting, dist, method, time_budget=None):
        return MinCoverResult(real(setting, dist, "exact").placement, False, "exact")

    monkeypatch.setattr(pipeline, "min_cover", cut)
    assert run(["gen", "--targets", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    code = run(["resolve", "--instance", str(tmp_path / "instance.json"), "--oracles", "nc",
                "--max-placements", "2", "--out", str(tmp_path)])
    assert code == EXIT_TIMEOUT == 3
    assert json.loads((tmp_path / "report.json").read_text())["mincover"]["optimal"] is False
    code = run(["bench", "--sizes", "8", "--seeds", "1", "--oracles", "nc",
                "--max-placements", "2", "--out", str(tmp_path / "bench")])
    assert code == EXIT_TIMEOUT
    assert (tmp_path / "bench" / "bench.csv").exists()


def test_resolve_outputs_and_monotone_trace(tmp_path):
    assert run(["gen", "--targets", "10", "--seed", "4", "--out", str(tmp_path)]) == 0
    code = run([
        "resolve", "--instance", str(tmp_path / "instance.json"),
        "--oracles", "fc,pc,nc", "--budget", "30s", "--max-placements", "4",
        "--seed", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["m"] >= 1
    assert report["placements_evaluated"] >= 1
    incumbent = {}
    for entry in report["trace"]:
        prev = incumbent.get(entry["oracle"], 0.0)
        incumbent[entry["oracle"]] = max(prev, entry["value"])
    for oracle, best in report["best"].items():
        assert best["value"] == pytest.approx(incumbent[oracle])
    trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("# manifest:")
    assert trace_lines[1] == "elapsed_ms,seq,placement,oracle,value"


def test_bench_and_reaggregation_roundtrip(tmp_path):
    code = run([
        "bench", "--sizes", "6,8", "--seeds", "2", "--budget", "10s",
        "--max-placements", "2", "--oracles", "nc", "--out", str(tmp_path),
    ])
    assert code == 0
    csv_path = tmp_path / "bench.csv"
    text = csv_path.read_text()
    header = text.splitlines()[0]
    assert header == "n_targets,seed,m,eta,tau,tau_hat,oracle,value,placements_evaluated"
    assert len(text.splitlines()) == 1 + 4  # 2 sizes x 2 seeds x 1 oracle

    runs = [
        (n, seed, tmp_path / f"run_t{n}_s{seed}")
        for n in (6, 8)
        for seed in (0, 1)
    ]
    assert aggregate_bench(runs) == text
    assert (tmp_path / "bench_timing.csv").exists()
