"""Self-check of the benchmark against BENCHMARK.json.

    python3 perfbench/selfcheck.py

For each workload of BENCHMARK.json it runs ``run.py`` once with
``--trace 0`` and twice with ``--trace 1`` (the shortest run: two passes),
all with one fixed seed, and fails unless every run exits 0 with ``correct``
true, the metric names and units printed match the ``end_to_end`` and
``per_layer`` lists of BENCHMARK.json, and every per-layer metric that is
not a time repeats exactly between the two traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_UNITS = {"s", "ms"}
SEED = 1


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        results = {0: [run(name, 0)], 1: [run(name, 1), run(name, 1)]}
        for trace, outs in results.items():
            for out in outs:
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                if not out["correct"] or out["failed"]:
                    problems.append(f"{name} trace={trace}: {out['failed']} of {out['attempted']} failed")
                if got != want[trace]:
                    problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want[trace]))} "
                                    f"or their units differ from BENCHMARK.json")
        first, second = (r["metrics"] for r in results[1])
        for key, entry in first.items():
            other = second.get(key, {}).get("value")
            if entry["unit"] not in TIME_UNITS and other != entry["value"]:
                problems.append(f"{name}: count {key} differs: {entry['value']} vs {other}")
        print(f"{name}: checked", flush=True)

    for line in problems:
        print("selfcheck failed:", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
