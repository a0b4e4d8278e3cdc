"""alarmpatrol benchmark: fixed-work ``resolve`` passes over generated instances.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fc-exact --seed 1 --seconds 45 --trace 0

One process runs one workload.  Whole passes run, at least two, until the
next one would end more than half a pass after ``--seconds``.  Each pass is
preceded by set-up (a fresh import of the package plus instance
generation), repeated so that its median is taken over the whole run.  A
pass calls ``pipeline.resolve`` on every instance of the seed with
``max_placements`` set and a budget that never binds, and serialises each
report with ``fileio.report_payload`` + ``fileio.dumps``.  Every pass is checked (see
``check_instance``), and so is one small FC + PC + NC resolve made once
before the passes (``workloads.ORDER_CHECK``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` traces every pass and reports the
per-layer metrics and the estimated tracing overhead.  The last line of standard
output is one JSON object; the exit code is 1 when an output check failed
and 2 when the checkout holds no ``src/alarmpatrol``.
"""

from __future__ import annotations

import os

# numpy reads these when it is imported: one BLAS thread per process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS_PER_PASS = 10
VALUE_TOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "first_answer_s": "s",
    "eval_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class PassResult:
    wall_s: float = 0.0
    first_answers: dict[str, float] = field(default_factory=dict)
    evals: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    pc_values: list[float] = field(default_factory=list)
    report_bytes: int = 0
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def fresh_import():
    """Import ``alarmpatrol`` and its ``fileio`` from source as a new process would."""
    for name in [k for k in sys.modules if k == "alarmpatrol" or k.startswith("alarmpatrol.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("alarmpatrol.fileio")
    return sys.modules["alarmpatrol"]


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fc_value_from_joint(inst, signal: str, result) -> float:
    """1 - max_t pi_t (1 - coverage_t) over the signal's support."""
    worst = 0.0
    for t in inst.alarm.signal_support(signal):
        cover = sum(p for jr, p in result.joint.probs.items() if t in jr.covered)
        worst = max(worst, inst.setting.value[t] * (1.0 - cover))
    return 1.0 - worst


def check_instance(inst, oracles, report, captured) -> tuple[set, list[str]]:
    """Failed (placement, oracle) evaluations of one resolve, with reasons.

    ``captured`` holds what ``pipeline.respond`` returned, in call order
    (placement-major, then ``oracles``).  ``report`` is None when resolve
    raised; evaluations it never returned then count as failed.
    """
    every = {(i, s) for i in range(inst.placements) for s in oracles}
    bad: set = set()
    why: list[str] = []

    def fail(keys, reason):
        bad.update(keys)
        why.append(f"{inst.label}: {reason}")

    done = {(i // len(oracles), oracles[i % len(oracles)]) for i in range(len(captured))}
    if report is None:
        fail(every - done, "resolve raised")
    else:
        if not report.mincover.optimal or report.m != inst.m:
            fail(every, f"min cover optimal={report.mincover.optimal} m={report.m}, expected m={inst.m}")
        if report.placements_evaluated != inst.placements:
            fail(every - done, f"{report.placements_evaluated} placements evaluated")

    values: dict[int, dict[str, dict[str, float]]] = {}
    for i, resp in enumerate(captured[: len(every)]):
        idx, scheme = i // len(oracles), oracles[i % len(oracles)]
        key = (idx, scheme)
        if resp.scheme != scheme:
            fail({key}, f"placement {idx}: expected {scheme}, got {resp.scheme}")
            continue
        values.setdefault(idx, {})[scheme] = {s: r.value for s, r in resp.per_signal.items()}
        for s, res in resp.per_signal.items():
            diag = res.diagnostics
            if diag.timed_out:
                fail({key}, f"placement {idx} {scheme} {s}: timed out")
            if scheme == "FC":
                complete = all(rs.complete for rs in resp.route_sets[s])
                if not (diag.optimal and complete):
                    fail({key}, f"placement {idx} FC {s}: optimal={diag.optimal} complete={complete}")
                own = fc_value_from_joint(inst, s, res)
                if abs(own - res.value) > VALUE_TOL:
                    fail({key}, f"placement {idx} FC {s}: value {res.value!r} != {own!r} from strategy")
        if report is not None and idx < len(report.placements):
            (only,) = resp.per_signal.values()  # generator instances have one signal
            got = report.placements[idx].values.get(scheme)
            if got is None or abs(got - only.value) > VALUE_TOL:
                fail({key}, f"placement {idx} {scheme}: report value {got!r} != {only.value!r}")

    for idx, by_scheme in values.items():
        order = [s for s in ("FC", "PC", "NC") if s in by_scheme]
        for hi, lo in zip(order, order[1:]):
            for s, v_hi in by_scheme[hi].items():
                if v_hi < by_scheme[lo][s] - VALUE_TOL:
                    fail({(idx, x) for x in order},
                         f"placement {idx} {s}: {hi} {v_hi!r} < {lo} {by_scheme[lo][s]!r}")
    return bad, why


def run_pass(instances, oracles, seed, tracer=None) -> PassResult:
    pipeline = sys.modules["alarmpatrol.pipeline"]
    fileio = sys.modules["alarmpatrol.fileio"]
    ap = sys.modules["alarmpatrol"]
    out = PassResult()
    if tracer is not None:
        tracer.install()
    try:
        for inst in instances:
            config = ap.ResolutionConfig(
                oracles=oracles, max_placements=inst.placements, seed=seed
            )
            captured = []
            respond = pipeline.respond

            def capture(*args, **kwargs):
                resp = respond(*args, **kwargs)
                captured.append(resp)
                return resp

            pipeline.respond = capture
            report = None
            start = time.perf_counter()
            try:
                report = pipeline.resolve(inst.setting, inst.alarm, config)
                text = fileio.dumps(fileio.report_payload(report, inst.setting))
            except Exception:  # counted below as failed evaluations
                traceback.print_exc(file=sys.stderr)
                report = None
            finally:
                out.wall_s += time.perf_counter() - start
                pipeline.respond = respond

            bad, why = check_instance(inst, oracles, report, captured)
            for line in why:
                print("check failed:", line, file=sys.stderr)
            out.attempted += inst.placements * len(oracles)
            out.failed += len(bad)
            if report is None:
                continue
            out.digests[inst.label] = hashlib.sha256(text.encode()).hexdigest()
            out.report_bytes += len(text.encode())
            stamps: list[float] = []
            for entry in report.trace:
                if not stamps or entry.placement_index >= len(stamps):
                    stamps.append(entry.elapsed)
            if stamps:
                out.first_answers[inst.label] = stamps[0]
            out.evals.extend(b - a for a, b in zip(stamps, stamps[1:]))
            out.pc_values.extend(pe.values["PC"] for pe in report.placements if "PC" in pe.values)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        out.self_s, out.calls = tracer.self_times()
        out.counts = dict(tracer.counts)
        out.spans = tracer.spans
    return out


def per_item_medians(per_pass: list[dict]) -> list[float]:
    """Median over passes of each instance's value."""
    pooled: dict = {}
    for items in per_pass:
        for key, value in items.items():
            pooled.setdefault(key, []).append(value)
    return [statistics.median(vs) for vs in pooled.values()]


def per_layer(oracles, traced: list[PassResult]) -> dict[str, tuple[float, str]]:
    from tracer import LAYERS, span_cost

    first = traced[0]
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = (statistics.median(p.self_s.get(name, 0.0) for p in traced), "s")
        metrics[f"{name}.calls"] = (first.calls.get(name, 0), "count")
    c, calls = first.counts, first.calls
    br_calls = calls.get("oracles.best_response_ilp", 0)
    useful = c.get("oracles.fc.rows", 0) - calls.get("oracles.fc_sro", 0)
    lookups = c.get("routes.lookups", 0)
    pairs = c.get("oracles.evaluations", 0) / len(oracles)
    metrics.update({
        "oracles.br_useful_ratio": (useful / br_calls if br_calls else 0.0, "1"),
        "oracles.fc.rounds": (c.get("oracles.fc.rounds", 0), "count"),
        "oracles.fc.rows": (c.get("oracles.fc.rows", 0), "count"),
        "oracles.pc.iterations": (c.get("oracles.pc.iterations", 0), "count"),
        "oracles.nc_per_eval": (calls.get("oracles.nc_sro", 0) / pairs if pairs else 0.0, "1"),
        "lp.tableau_cells": (c.get("lp.tableau_cells", 0), "cells"),
        "games.cells": (c.get("games.cells", 0), "cells"),
        "routes.routes": (c.get("routes.routes", 0), "count"),
        "routes.incomplete": (c.get("routes.incomplete", 0), "count"),
        "routes.cache_hit_ratio": (
            (lookups - calls.get("routes.covering_routes", 0)) / lookups if lookups else 0.0, "1"),
        "mincover.m": (c.get("mincover.m", 0), "count"),
        "pipeline.placements": (c.get("pipeline.placements", 0), "count"),
        "fileio.report_bytes": (first.report_bytes, "bytes"),
        "trace.wall_s": (statistics.median(p.wall_s for p in traced), "s"),
        "trace.overhead_s": (len(first.spans) * span_cost(), "s"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alarmpatrol" / "__init__.py").is_file():
        print(f"error: no alarmpatrol package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy
    from tracer import Tracer
    from workloads import ORDER_CHECK, WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    oracles = workload.oracles

    setups: list[float] = []

    def set_up():
        for _ in range(SETUPS_PER_PASS):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                instances = build(fresh_import(), workload, args.seed)
                setups.append(time.perf_counter() - start)
            finally:
                gc.enable()
        return instances

    instances = set_up()
    print(f"provenance: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} commit={git_commit()} "
          f"workload={workload.name} seed={args.seed} trace={args.trace}")
    print("instances: " + " ".join(f"{i.label}(m={i.m},P={i.placements})" for i in instances))

    order = run_pass(build(sys.modules["alarmpatrol"], ORDER_CHECK, args.seed),
                     ORDER_CHECK.oracles, args.seed)

    passes: list[PassResult] = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if passes:
            instances = set_up()
        passes.append(run_pass(instances, oracles, args.seed, Tracer() if args.trace else None))
        longest = max(longest, time.perf_counter() - t0)
        if len(passes) >= 2 and time.perf_counter() - begin + longest / 2 > args.seconds:
            break

    attempted = order.attempted + sum(p.attempted for p in passes)
    failed = order.failed + sum(p.failed for p in passes)
    reference = passes[0].digests
    for p in passes[1:]:
        for label, digest in p.digests.items():
            if reference.get(label) != digest:
                print(f"check failed: {label}: report bytes differ between passes", file=sys.stderr)
                failed += next(i.placements for i in instances if i.label == label) * len(oracles)
    if any(p.counts != passes[0].counts or p.calls != passes[0].calls for p in passes):
        print("check failed: per-layer counts differ between traced passes", file=sys.stderr)
        failed += 1
    failed = min(failed, attempted)

    evals = [e for p in passes for e in p.evals]
    firsts = per_item_medians([p.first_answers for p in passes])
    if len(evals) < 2:
        print(f"error: too few evaluations completed ({failed} of {attempted} failed)", file=sys.stderr)
        return 1
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "first_answer_s": statistics.fmean(firsts),
            "eval_p50_ms": 1000.0 * statistics.median(evals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        shown = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    else:
        shown = per_layer(oracles, passes)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        with spans_path.open("w") as fh:
            for span in passes[-1].spans:
                fh.write(json.dumps(span) + "\n")
        print(f"spans: {len(passes[-1].spans)} of the last traced pass in {spans_path.relative_to(ROOT)}")

    print(f"passes: {len(passes)} {'traced' if args.trace else 'untraced'}; {len(setups)} set-ups; "
          f"{len(evals)} evaluations pooled over passes; {len(firsts)} first answers, each the median over passes; "
          f"order check: {order.failed} of {order.attempted} FC/PC/NC evaluations failed")
    if passes[0].pc_values:
        pc = passes[0].pc_values
        print(f"pc_value {sum(pc) / len(pc):.6f} 1 (mean PC value over {len(pc)} placements)")
    p90 = 1000.0 * statistics.quantiles(evals, n=10, method="inclusive")[8]
    print(f"eval_p90_ms {p90} ms (of {len(evals)} evaluations pooled over passes)")
    print(f"eval_fail_ratio {failed / attempted:.6f} 1 ({failed} of {attempted} evaluations failed)")
    for name, (value, unit) in shown.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
