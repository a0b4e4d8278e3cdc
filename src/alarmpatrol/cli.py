"""Batch command-line front end.

Subcommands: ``gen`` (instance generation), ``mincover``, ``routes``, ``sro``
(one oracle on one placement), ``resolve`` (full pipeline) and ``bench``
(batch over sizes and seeds with an aggregate CSV).  Exit codes: 0 success,
2 invalid input, 3 an exact computation timed out and an incumbent was
written, 4 a numerical failure (pivot limit, an improving LP column with no
positive entry or a failed game-value certificate): ``sro`` writes nothing,
``resolve`` and ``bench`` record the failed oracle on its placement, go on and
write their files.  All randomness flows from ``--seed``; result files are
byte reproducible for a fixed seed, wall-clock timing lives in CSV sidecars.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import fileio
from .mincover import min_cover, overlap_metrics
from .model import ModelError, all_pairs_distances
from .oracles import respond
from .pipeline import (
    BudgetTooSmall,
    GeneratorParams,
    ResolutionConfig,
    generate_instance,
    resolve,
)
from .routes import covering_routes

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_TIMEOUT = 3
EXIT_NUMERIC = 4


def parse_duration(text: str) -> float:
    """Accept plain seconds or s/m/h suffixed durations ("90", "60s", "1.5m")."""
    text = text.strip().lower()
    factor = 1.0
    if text.endswith("ms"):
        factor, text = 1e-3, text[:-2]
    elif text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        factor, text = 60.0, text[:-1]
    elif text.endswith("h"):
        factor, text = 3600.0, text[:-1]
    try:
        value = float(text) * factor
    except ValueError:
        raise ValueError(f"cannot parse duration {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"duration must be positive and finite, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    """argparse type: distinct comma-separated integers, at least one."""
    try:
        values = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("must name at least one value")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeats a value: {text!r}")
    return values


def _size_list(text: str) -> list[int]:
    """argparse type: distinct comma-separated target counts, each >= 1."""
    values = _int_list(text)
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {min(values)}")
    return values


def _seed_list(text: str) -> list[int]:
    """argparse type: a seed count (seeds 0..count-1) or a seed list."""
    if "," in text:
        return _int_list(text)
    return list(range(_int_at_least(1)(text)))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def cmd_gen(args) -> int:
    params = GeneratorParams(
        n_targets=args.targets,
        seed=args.seed,
        avg_degree=args.avg_degree,
        deadline=args.deadline,
    )
    setting, alarm = generate_instance(params)
    out = _out_dir(args)
    manifest = fileio.make_manifest(
        "gen",
        {
            "targets": args.targets,
            "avg_degree": args.avg_degree,
            "deadline": args.deadline,
        },
        args.seed,
        None,
        ["instance.json"],
    )
    fileio.save_instance(setting, alarm, out / "instance.json", manifest)
    print(f"wrote {out / 'instance.json'} ({setting.n} targets)")
    return EXIT_OK


def cmd_mincover(args) -> int:
    setting, _ = fileio.load_instance(args.instance)
    dist = all_pairs_distances(setting)
    budget = parse_duration(args.budget) if args.budget else None
    result = min_cover(setting, dist, args.method, time_budget=budget)
    metrics = overlap_metrics(result.placement, setting, dist)
    out = _out_dir(args)
    manifest = fileio.make_manifest(
        "mincover",
        {"method": args.method, "budget": args.budget},
        args.seed,
        Path(args.instance),
        ["placement.json"],
    )
    payload = fileio.placement_payload(result, setting, metrics)
    payload["manifest"] = manifest
    fileio.write_json(out / "placement.json", payload)
    print(f"m={len(result.placement)} method={result.method} optimal={result.optimal}")
    return EXIT_TIMEOUT if result.timed_out else EXIT_OK


def cmd_routes(args) -> int:
    setting, alarm = fileio.load_instance(args.instance)
    dist = all_pairs_distances(setting)
    start = setting.index_of(args.start)
    signals = [args.signal] if args.signal else list(alarm.signals)
    per_signal = {}
    for s in signals:
        support = alarm.signal_support(s)
        rs = covering_routes(setting, dist, start, support)
        per_signal[s] = fileio.route_set_payload(rs, setting)
    out = _out_dir(args)
    manifest = fileio.make_manifest(
        "routes",
        {"start": args.start, "signal": args.signal},
        args.seed,
        Path(args.instance),
        ["routes.json"],
    )
    payload = {"start": args.start, "signals": per_signal, "manifest": manifest}
    fileio.write_json(out / "routes.json", payload)
    total = sum(len(v["routes"]) for v in per_signal.values())
    print(f"wrote {out / 'routes.json'} ({total} routes)")
    return EXIT_OK


def _placement_indices(args, setting) -> list[int]:
    if args.placement_file is not None:
        payload = fileio.read_json(args.placement_file)
        ids = payload.get("positions") if isinstance(payload, dict) else None
        if not isinstance(ids, list) or not all(isinstance(v, str) for v in ids):
            raise fileio.FileFormatError("key 'positions' must be an array of vertex ids")
    else:
        ids = [x for x in args.placement.split(",") if x]
    if not ids:
        raise ValueError("the placement names no vertex")
    return [setting.index_of(v) for v in ids]


def cmd_sro(args) -> int:
    setting, alarm = fileio.load_instance(args.instance)
    dist = all_pairs_distances(setting)
    positions = _placement_indices(args, setting)
    deadline = time.monotonic() + parse_duration(args.budget) if args.budget else None
    response = respond(
        setting,
        dist,
        alarm,
        positions,
        args.oracle,
        pc_restarts=args.restarts,
        seed=args.seed,
        deadline=deadline,
    )
    out = _out_dir(args)
    manifest = fileio.make_manifest(
        "sro",
        {
            "oracle": args.oracle.upper(),
            "restarts": args.restarts,
            "placement": [setting.ids[p] for p in positions],
        },
        args.seed,
        Path(args.instance),
        ["result.json"],
    )
    payload = fileio.response_payload(response, positions, setting)
    payload["manifest"] = manifest
    fileio.write_json(out / "result.json", payload)
    print(f"{response.scheme} value={response.value:.6f}")
    timed_out = any(
        r.diagnostics.timed_out for r in response.per_signal.values()
    )
    return EXIT_TIMEOUT if timed_out else EXIT_OK


def _resolve_config(args) -> ResolutionConfig:
    return ResolutionConfig(
        time_budget=parse_duration(args.budget),
        oracles=tuple(s.strip().upper() for s in args.oracles.split(",") if s.strip()),
        seed=args.seed,
        max_placements=args.max_placements,
        pc_restarts=args.restarts,
    )


def _config_echo(config: ResolutionConfig) -> dict:
    """The run options for the manifest, which carries the seed under its own key."""
    echo = asdict(config)
    del echo["seed"]
    return echo


def _report_exit(report) -> int:
    """4 after a numerical failure (each named on stderr), else 3 after a timeout, else 0."""
    code = EXIT_TIMEOUT if report.timed_out else EXIT_OK
    for i, pe in enumerate(report.placements):
        for scheme, msg in pe.failed.items():
            print(f"error: numerical failure: {scheme} on placement {i}: {msg}", file=sys.stderr)
            code = EXIT_NUMERIC
    return code


def cmd_resolve(args) -> int:
    setting, alarm = fileio.load_instance(args.instance)
    config = _resolve_config(args)
    report = resolve(setting, alarm, config)
    out = _out_dir(args)
    manifest = fileio.make_manifest(
        "resolve",
        _config_echo(config),
        args.seed,
        Path(args.instance),
        ["report.json", "trace.csv"],
    )
    payload = fileio.report_payload(report, setting)
    payload["manifest"] = manifest
    fileio.write_json(out / "report.json", payload)
    (out / "trace.csv").write_text(fileio.trace_csv(report, manifest), encoding="utf-8")
    for scheme, entry in sorted(report.best.items()):
        print(f"{scheme}: value={entry.value:.6f} placement={list(setting.ids_of(entry.positions))}")
    print(
        f"placements={report.placements_evaluated} exhausted={report.exhausted}"
    )
    return _report_exit(report)


def aggregate_bench(runs: list[tuple[int, int, Path]]) -> str:
    """Build the aggregate CSV purely from stored per-run report files."""
    lines = ["n_targets,seed,m,eta,tau,tau_hat,oracle,value,placements_evaluated"]
    for n, seed, run_dir in sorted(runs):
        payload = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        for oracle in sorted(payload["best"]):
            entry = payload["best"][oracle]
            metrics = payload["placements"][entry["placement_index"]]["metrics"]
            lines.append(
                ",".join(
                    [
                        str(n),
                        str(seed),
                        str(payload["m"]),
                        str(metrics["eta"]),
                        repr(metrics["tau"]),
                        repr(metrics["tau_hat"]),
                        oracle,
                        repr(entry["value"]),
                        str(payload["placements_evaluated"]),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    # Parsed before the first run directory is made: a bad flag writes nothing.
    config = _resolve_config(args)
    out = _out_dir(args)
    worst = EXIT_OK
    runs: list[tuple[int, int, Path]] = []
    timings: list[tuple[int, int, float]] = []
    for n in args.sizes:
        for seed in args.seeds:
            run_dir = out / f"run_t{n}_s{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            setting, alarm = generate_instance(
                GeneratorParams(n_targets=n, seed=seed, deadline=args.deadline)
            )
            gen_manifest = fileio.make_manifest(
                "bench/gen", {"targets": n, "deadline": args.deadline}, seed, None, ["instance.json"]
            )
            fileio.save_instance(setting, alarm, run_dir / "instance.json", gen_manifest)
            t0 = time.monotonic()
            report = resolve(setting, alarm, replace(config, seed=seed))
            elapsed = time.monotonic() - t0
            manifest = fileio.make_manifest(
                "bench/resolve",
                {"targets": n, **_config_echo(config)},
                seed,
                run_dir / "instance.json",
                ["report.json"],
            )
            payload = fileio.report_payload(report, setting)
            payload["manifest"] = manifest
            fileio.write_json(run_dir / "report.json", payload)
            runs.append((n, seed, run_dir))
            timings.append((n, seed, elapsed))
            worst = max(worst, _report_exit(report))
            print(f"t={n} seed={seed}: placements={report.placements_evaluated}")
    (out / "bench.csv").write_text(aggregate_bench(runs), encoding="utf-8")
    timing = "".join(f"{n},{seed},{elapsed * 1000.0:.3f}\n" for n, seed, elapsed in timings)
    (out / "bench_timing.csv").write_text("n_targets,seed,time_ms\n" + timing, encoding="utf-8")
    print(f"wrote {out / 'bench.csv'}")
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alarmpatrol",
        description="Covering placements and alarm-response strategies for patrolling games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="root random seed")

    def run_options(p, budget):
        """The options ``_resolve_config`` reads, shared by resolve and bench."""
        p.add_argument("--oracles", default="fc,pc,nc")
        p.add_argument("--budget", default=budget)
        p.add_argument("--max-placements", type=_int_at_least(1), default=None)
        p.add_argument("--restarts", type=_int_at_least(0), default=0)

    p = sub.add_parser("gen", help="generate a random instance")
    common(p)
    p.add_argument("--targets", type=int, required=True)
    p.add_argument("--avg-degree", type=float, default=3.0)
    p.add_argument("--deadline", type=_int_at_least(1), default=None)

    p = sub.add_parser("mincover", help="minimum covering placement")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--method",
        default="auto",
        choices=["exact", "greedy", "greedy+ls", "tree", "cycle", "auto"],
    )
    p.add_argument("--budget", default=None, help="time budget, e.g. 30s")

    p = sub.add_parser("routes", help="covering routes from a start vertex")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--start", required=True, help="start vertex id")
    p.add_argument("--signal", default=None, help="restrict to one signal id")

    p = sub.add_parser("sro", help="one signal-response oracle on one placement")
    common(p)
    p.add_argument("--instance", required=True)
    placement = p.add_mutually_exclusive_group(required=True)
    placement.add_argument("--placement", help="comma-separated vertex ids, repeats allowed")
    placement.add_argument("--placement-file", help="placement.json from mincover")
    p.add_argument("--oracle", required=True, choices=["fc", "pc", "nc", "FC", "PC", "NC"])
    p.add_argument("--restarts", type=_int_at_least(0), default=0)
    p.add_argument("--budget", default=None)

    p = sub.add_parser("resolve", help="full anytime resolution flow")
    common(p)
    p.add_argument("--instance", required=True)
    run_options(p, budget="60m")

    p = sub.add_parser("bench", help="batch runs over sizes and seeds")
    common(p)
    p.add_argument("--sizes", type=_size_list, required=True,
                   help="comma-separated target counts")
    p.add_argument("--seeds", type=_seed_list, required=True,
                   help="count or comma-separated seeds")
    run_options(p, budget="60s")
    p.add_argument("--deadline", type=_int_at_least(1), default=None)

    return parser


_HANDLERS = {
    "gen": cmd_gen,
    "mincover": cmd_mincover,
    "routes": cmd_routes,
    "sro": cmd_sro,
    "resolve": cmd_resolve,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ModelError, fileio.FileFormatError, BudgetTooSmall, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
