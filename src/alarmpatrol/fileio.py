"""Instance files, result files and the run manifest.

All JSON outputs embed the run manifest under the ``manifest`` key and are
written with sorted keys so identical runs produce identical bytes.  Wall
clock measurements deliberately never enter these files; timing lives in the
separate trace/timing CSV sidecars, which are outside the determinism
contract.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__
from .mincover import CoveringPlacement, MinCoverResult, OverlapMetrics
from .model import AlarmSystem, PatrollingSetting, build_alarm, build_setting
from .oracles import OracleResult, SignalResponse
from .pipeline import ResolutionReport
from .routes import CoveringRoute, RouteSet


class FileFormatError(ValueError):
    """Malformed instance or result file; the message names the offending key."""


def dumps(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def read_json(path: Path) -> Any:
    """Parse a JSON file; bad syntax, UTF-8 or over-long integers name the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FileFormatError(f"invalid JSON in {path}: {exc}") from None


def write_json(path: Path, payload: Mapping[str, Any]) -> None:
    Path(path).write_text(dumps(payload), encoding="utf-8")


def make_manifest(
    command: str,
    config: Mapping[str, Any],
    seed: int | None,
    input_path: Path | None,
    outputs: Sequence[str],
) -> dict[str, Any]:
    """Reproducibility record carried by every output file.

    Contains no timestamps: identical manifests must imply identical outputs.
    """
    input_hash = None
    if input_path is not None:
        input_hash = hashlib.sha256(Path(input_path).read_bytes()).hexdigest()
    return {
        "command": command,
        "config": dict(config),
        "seed": seed,
        "version": __version__,
        "input_sha256": input_hash,
        "outputs": list(outputs),
    }


# -- instance files ---------------------------------------------------------

_INSTANCE_KEYS = {"vertices", "edges", "targets", "signals", "manifest"}


def instance_to_payload(setting: PatrollingSetting, alarm: AlarmSystem) -> dict[str, Any]:
    return {
        "vertices": list(setting.ids),
        "edges": [[setting.ids[u], setting.ids[v]] for u, v in setting.edges],
        "targets": [
            {
                "id": setting.ids[t],
                "value": setting.value[t],
                "deadline": setting.deadline[t],
            }
            for t in setting.targets
        ],
        "signals": [
            {
                "id": s,
                "probs": {setting.ids[t]: p for t, p in sorted(alarm.prob[s].items())},
            }
            for s in alarm.signals
        ],
    }


def _is_finite_number(x: Any) -> bool:
    """Whether ``x`` is a finite JSON number; bools and strings are not numbers."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def parse_instance(payload: Mapping[str, Any]) -> tuple[PatrollingSetting, AlarmSystem]:
    if not isinstance(payload, Mapping):
        raise FileFormatError("instance document must be a JSON object")
    for key in payload:
        if key not in _INSTANCE_KEYS:
            raise FileFormatError(f"unexpected key {key!r} in instance file")
    for key in ("vertices", "edges", "targets", "signals"):
        if key not in payload:
            raise FileFormatError(f"missing key {key!r} in instance file")

    vertices = payload["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise FileFormatError("key 'vertices' must be an array of string ids")

    edges = payload["edges"]
    if not isinstance(edges, list):
        raise FileFormatError("key 'edges' must be an array of id pairs")
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise FileFormatError(
                "key 'edges' must contain unweighted pairs of vertex ids"
            )

    targets = payload["targets"]
    if not isinstance(targets, list):
        raise FileFormatError("key 'targets' must be an array of objects")
    triples = []
    for entry in targets:
        if not isinstance(entry, Mapping) or set(entry) != {"id", "value", "deadline"}:
            raise FileFormatError(
                "key 'targets' entries must have exactly id, value and deadline"
            )
        tid, value, deadline = entry["id"], entry["value"], entry["deadline"]
        if not isinstance(tid, str):
            raise FileFormatError("key 'id' of a target must be a string vertex id")
        if not _is_finite_number(value):
            raise FileFormatError(f"key 'value' of target {tid!r} must be a finite number")
        if isinstance(deadline, bool) or not isinstance(deadline, int):
            raise FileFormatError(f"key 'deadline' of target {tid!r} must be an integer")
        triples.append((tid, value, deadline))

    signals = payload["signals"]
    if not isinstance(signals, list):
        raise FileFormatError("key 'signals' must be an array of objects")
    pairs = []
    for entry in signals:
        if not isinstance(entry, Mapping) or set(entry) != {"id", "probs"}:
            raise FileFormatError("key 'signals' entries must have exactly id and probs")
        sid, probs = entry["id"], entry["probs"]
        if not isinstance(sid, str):
            raise FileFormatError("key 'id' of a signal must be a string")
        if not isinstance(probs, Mapping) or not all(map(_is_finite_number, probs.values())):
            raise FileFormatError(
                f"key 'probs' of signal {sid!r} must map target ids to finite numbers"
            )
        pairs.append((sid, probs))

    setting = build_setting(vertices, edges, triples)
    alarm = build_alarm(setting, pairs)
    return setting, alarm


def load_instance(path: Path) -> tuple[PatrollingSetting, AlarmSystem]:
    return parse_instance(read_json(path))


def save_instance(
    setting: PatrollingSetting,
    alarm: AlarmSystem,
    path: Path,
    manifest: Mapping[str, Any] | None = None,
) -> None:
    payload = instance_to_payload(setting, alarm)
    if manifest is not None:
        payload["manifest"] = dict(manifest)
    write_json(path, payload)


# -- result payloads --------------------------------------------------------


def placement_payload(
    result: MinCoverResult, setting: PatrollingSetting, metrics: OverlapMetrics
) -> dict[str, Any]:
    return {
        "positions": list(setting.ids_of(result.placement.positions)),
        "size": len(result.placement),
        "method": result.method,
        "optimal": result.optimal,
        "metrics": {"eta": metrics.eta, "tau": metrics.tau, "tau_hat": metrics.tau_hat},
    }


def route_payload(route: CoveringRoute, setting: PatrollingSetting) -> dict[str, Any]:
    return {
        "visits": list(setting.ids_of(route.visits)),
        "arrivals": [int(a) for a in route.arrivals],
    }


def route_set_payload(rs: RouteSet, setting: PatrollingSetting) -> dict[str, Any]:
    return {
        "start": setting.ids[rs.start],
        "complete": rs.complete,
        "routes": [route_payload(r, setting) for r in rs.routes],
    }


def oracle_payload(
    result: OracleResult,
    route_sets: Sequence[RouteSet],
    setting: PatrollingSetting,
) -> dict[str, Any]:
    """Serialize one per-signal oracle result; strategies refer to route indices."""
    payload: dict[str, Any] = {
        "value": result.value,
        "diagnostics": {
            "iterations": result.diagnostics.iterations,
            "routes_generated": result.diagnostics.routes_generated,
            "lp_pivots": result.diagnostics.lp_pivots,
            "optimal": result.diagnostics.optimal,
            "timed_out": result.diagnostics.timed_out,
        },
        "route_sets": [route_set_payload(rs, setting) for rs in route_sets],
    }
    # Why the value is not certified, and PC's team-maxmin search, when present.
    if result.diagnostics.not_optimal is not None:
        payload["diagnostics"]["not_optimal"] = result.diagnostics.not_optimal
    if "search" in result.diagnostics.extra:
        payload["diagnostics"]["search"] = result.diagnostics.extra["search"]
    if result.joint is not None:
        # A route set holds each visit sequence once (``covering_routes``
        # drops repeats of the stay-at-start route), so ``index`` finds the
        # row FC chose.
        entries = [
            {"routes": [rs.routes.index(r) for rs, r in zip(route_sets, jr.routes)], "p": p}
            for jr, p in result.joint.probs.items()
        ]
        entries.sort(key=lambda e: e["routes"])
        payload["strategy"] = {"joint": entries}
    else:
        payload["strategy"] = {
            "per_resource": [
                [{"route": int(i), "p": float(x[i])} for i in np.flatnonzero(x)]
                for x in result.per_resource
            ]
        }
    return payload


def response_payload(
    response: SignalResponse,
    positions: Sequence[int],
    setting: PatrollingSetting,
) -> dict[str, Any]:
    return {
        "scheme": response.scheme,
        "placement": list(setting.ids_of(positions)),
        "value": response.value,
        "signals": {
            s: oracle_payload(res, response.route_sets[s], setting)
            for s, res in response.per_signal.items()
        },
    }


def report_payload(report: ResolutionReport, setting: PatrollingSetting) -> dict[str, Any]:
    """Deterministic part of a resolution report (no wall-clock fields)."""
    return {
        "m": report.m,
        "mincover": {
            "positions": list(setting.ids_of(report.mincover.placement.positions)),
            "method": report.mincover.method,
            "optimal": report.mincover.optimal,
        },
        "placements_evaluated": report.placements_evaluated,
        "exhausted": report.exhausted,
        "best": {
            scheme: {
                "placement_index": entry.placement_index,
                "positions": list(setting.ids_of(entry.positions)),
                "value": entry.value,
            }
            for scheme, entry in report.best.items()
        },
        "placements": [
            {
                "positions": list(setting.ids_of(pe.positions)),
                "metrics": asdict(pe.metrics),
                "values": dict(sorted(pe.values.items())),
                # Numerical failures by oracle, only where there were any.
                **({"failed": dict(sorted(pe.failed.items()))} if pe.failed else {}),
            }
            for pe in report.placements
        ],
        "trace": [
            {
                "seq": t.seq,
                "placement": t.placement_index,
                "oracle": t.oracle,
                "value": t.value,
            }
            for t in report.trace
        ],
    }


def trace_csv(report: ResolutionReport, manifest: Mapping[str, Any]) -> str:
    """Wall-clock trace export; timing data, not covered by determinism."""
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append("elapsed_ms,seq,placement,oracle,value")
    for t in report.trace:
        lines.append(
            f"{t.elapsed * 1000.0:.3f},{t.seq},{t.placement_index},{t.oracle},{t.value!r}"
        )
    return "\n".join(lines) + "\n"
