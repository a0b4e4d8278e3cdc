import json
import math
from pathlib import Path

import pytest

from alarmpatrol import oracles, pipeline
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


def test_sro_result_says_why_not_optimal(tmp_path):
    def diagnostics(n_targets, seed, placement, *options):
        out = tmp_path / f"t{n_targets}_s{seed}"
        assert run(["gen", "--targets", str(n_targets), "--seed", str(seed), "--out", str(out)]) == 0
        assert run([
            "sro", "--instance", str(out / "instance.json"), "--placement", placement,
            "--out", str(out), *options,
        ]) == 0
        return json.loads((out / "result.json").read_text())["signals"]["s0"]["diagnostics"]

    fc = diagnostics(40, 7, "v0,v1,v2", "--oracle", "fc", "--beam-width", "5")
    assert fc["optimal"] is False and fc["not_optimal"] == "incomplete routes"
    fc = diagnostics(40, 7, "v0,v1,v2", "--oracle", "fc", "--fc-mode", "heuristic")
    assert fc["optimal"] is False and fc["not_optimal"] == "heuristic mode"
    nc = diagnostics(40, 7, "v0,v1,v2", "--oracle", "nc")
    assert nc["optimal"] is True and "not_optimal" not in nc and "search" not in nc
    nc = diagnostics(40, 7, "v0,v1,v2", "--oracle", "nc", "--beam-width", "5")
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
    # A negative beam width used to slice off the beam's last states, and
    # --max-placements -1 evaluated nothing; both exited 0.
    assert run(["gen", "--targets", "8", "--seed", "3", "--out", str(tmp_path)]) == 0
    inst = ["--instance", str(tmp_path / "instance.json"), "--out", str(tmp_path)]
    routes = ["routes", *inst, "--start", "v0"]
    sro = ["sro", *inst, "--placement", "v0", "--oracle", "pc"]
    resolve = ["resolve", *inst]
    bench = ["bench", "--sizes", "8", "--seeds", "1", "--out", str(tmp_path)]
    for argv, flag in [
        (routes + ["--beam-width", "0"], "--beam-width"),
        (routes + ["--beam-width=-3"], "--beam-width"),
        (sro + ["--restarts=-2"], "--restarts"),
        (sro + ["--beam-width", "0"], "--beam-width"),
        (resolve + ["--max-placements=-1"], "--max-placements"),
        (resolve + ["--max-placements", "0"], "--max-placements"),
        (resolve + ["--restarts=-2"], "--restarts"),
        (resolve + ["--beam-width=-3"], "--beam-width"),
        (resolve + ["--resources-per-position", "0"], "--resources-per-position"),
        (bench + ["--max-placements", "0"], "--max-placements"),
        (bench + ["--restarts=-1"], "--restarts"),
    ]:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert flag in capsys.readouterr().err, argv


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


def test_sro_requires_placement(tmp_path, capsys):
    assert run(["gen", "--targets", "6", "--seed", "3", "--out", str(tmp_path)]) == 0
    code = run(["sro", "--instance", str(tmp_path / "instance.json"), "--oracle", "nc",
                "--out", str(tmp_path)])
    assert code == 2


def test_numerical_failure_exits_4(tmp_path, capsys, monkeypatch):
    def fail(game):
        raise ArithmeticError("simplex pivot limit exceeded")

    monkeypatch.setattr(oracles, "solve_zero_sum", fail)
    assert run(["gen", "--targets", "6", "--seed", "3", "--out", str(tmp_path)]) == 0
    code = run(["sro", "--instance", str(tmp_path / "instance.json"), "--oracle", "nc",
                "--placement", "v0", "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC == 4
    err = capsys.readouterr().err
    assert err.strip() == "error: numerical failure: simplex pivot limit exceeded"
    assert not (tmp_path / "result.json").exists()


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
