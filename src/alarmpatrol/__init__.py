"""Covering placements and alarm-response strategies for patrolling games.

The package resolves security settings where mobile defensive resources react
to spatially uncertain alarm signals: it computes minimum covering
placements, generates covering routes per signal, and solves the response
games under full, partial or no coordination, with an anytime pipeline and a
batch CLI on top.
"""

__version__ = "0.1.0"

from .games import MixedStrategy, RowGame, solve_zero_sum
from .mincover import (
    CoveringPlacement,
    MinCoverResult,
    OverlapMetrics,
    SetCoverInstance,
    cycle_min_cover,
    exact_cover,
    greedy_cover,
    local_search_improve,
    min_cover,
    overlap_metrics,
    to_set_cover,
    tree_min_cover,
)
from .model import (
    AlarmSystem,
    PatrollingSetting,
    all_pairs_distances,
    build_alarm,
    build_setting,
    reach,
)
from .oracles import (
    OracleResult,
    SignalResponse,
    aggregate_value,
    best_response_ilp,
    evaluate_profile,
    fc_sro,
    nc_sro,
    pc_sro,
    respond,
    unprotected,
)
from .pipeline import (
    GeneratorParams,
    ResolutionConfig,
    ResolutionReport,
    enumerate_placements,
    generate_instance,
    resolve,
)
from .routes import CoveringRoute, JointRoute, RouteSet, covering_routes

__all__ = [
    "AlarmSystem",
    "CoveringPlacement",
    "CoveringRoute",
    "GeneratorParams",
    "JointRoute",
    "MinCoverResult",
    "MixedStrategy",
    "OracleResult",
    "OverlapMetrics",
    "PatrollingSetting",
    "ResolutionConfig",
    "ResolutionReport",
    "RouteSet",
    "RowGame",
    "SetCoverInstance",
    "SignalResponse",
    "aggregate_value",
    "all_pairs_distances",
    "best_response_ilp",
    "build_alarm",
    "build_setting",
    "covering_routes",
    "cycle_min_cover",
    "enumerate_placements",
    "evaluate_profile",
    "exact_cover",
    "fc_sro",
    "generate_instance",
    "greedy_cover",
    "local_search_improve",
    "min_cover",
    "nc_sro",
    "overlap_metrics",
    "pc_sro",
    "reach",
    "resolve",
    "respond",
    "solve_zero_sum",
    "to_set_cover",
    "tree_min_cover",
    "unprotected",
]
