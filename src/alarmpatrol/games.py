"""Constant-sum matrix games solved by linear programming.

The defender picks a row, the attacker a column; the payoff matrix stores the
defender utility and the attacker receives one minus it.  One LP per game gives
both players' strategies: the defender's maxmin is its primal, the attacker's
minmax its duals.  Each pair is checked as a certificate of the game value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

import numpy as np

from .lp import LinearProgram, lp_solve

PROB_CLIP = 1e-9
VALUE_TOL = 1e-6


@dataclass(frozen=True)
class MatrixGame:
    """Defender-utility matrix with optional action labels."""

    payoff: np.ndarray
    row_actions: tuple[Hashable, ...] | None = None
    col_actions: tuple[Hashable, ...] | None = None

    def __post_init__(self) -> None:
        payoff = np.asarray(self.payoff, dtype=float)
        if payoff.ndim != 2 or payoff.size == 0:
            raise ValueError("payoff must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(payoff)):
            raise ValueError("payoff entries must be finite")
        object.__setattr__(self, "payoff", payoff)


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over hashable actions; stores the support only."""

    probs: dict[Any, float] = field(default_factory=dict)

    def prob(self, action: Any) -> float:
        return self.probs.get(action, 0.0)

    def support(self) -> tuple[Any, ...]:
        return tuple(self.probs)

    @classmethod
    def pure(cls, action: Any) -> "MixedStrategy":
        return cls({action: 1.0})

    @classmethod
    def from_weights(
        cls, actions: Sequence[Any], weights: Sequence[float]
    ) -> "MixedStrategy":
        """Build a distribution, clipping stray tiny weights and renormalizing."""
        w = np.asarray(weights, dtype=float)
        w = np.where(w < PROB_CLIP, 0.0, w)
        total = w.sum()
        if total <= 0.0:
            raise ValueError("mixed strategy needs positive total weight")
        w = w / total
        return cls({a: float(p) for a, p in zip(actions, w) if p > 0.0})


def solve_zero_sum(game: MatrixGame) -> tuple[MixedStrategy, MixedStrategy, float]:
    """Maxmin/minmax pair and game value for a constant-sum game.

    The row player maximizes the minimal column payoff; the column strategy is
    the attacker minmax distribution (the one row generation best-responds
    to), read from the duals of the per-column constraints.  Payoffs are
    shifted to be non-negative so the value variable can be kept
    sign-constrained.  Raises ArithmeticError unless each strategy guarantees
    the value within ``VALUE_TOL`` against every reply.
    """
    U = game.payoff
    n_rows, n_cols = U.shape
    shift = float(min(0.0, U.min()))
    Us = U - shift

    # maximize v  s.t.  v - sum_r U[r,t] x_r <= 0 per column, sum x = 1
    A_ub = np.hstack([-Us.T, np.ones((n_cols, 1))])
    A_eq = np.hstack([np.ones((1, n_rows)), np.zeros((1, 1))])
    c = np.zeros(n_rows + 1)
    c[-1] = 1.0
    row_sol = lp_solve(
        LinearProgram(c=c, A_ub=A_ub, b_ub=np.zeros(n_cols), A_eq=A_eq, b_eq=np.ones(1))
    )
    if row_sol.status != "optimal":
        raise ArithmeticError(f"row LP ended with status {row_sol.status}")

    value = float(row_sol.x[-1]) + shift
    x = row_sol.x[:n_rows]
    y = np.maximum(row_sol.duals, 0.0)
    if y.sum() <= 0.0:
        raise ArithmeticError("row LP has no positive dual weight")
    y = y / y.sum()
    gap = max(float((U @ y).max()) - value, value - float((x @ U).min()))
    if gap > VALUE_TOL:
        raise ArithmeticError(f"strategies miss the game value by {gap} > {VALUE_TOL}")

    row_actions = game.row_actions or tuple(range(n_rows))
    col_actions = game.col_actions or tuple(range(n_cols))
    row = MixedStrategy.from_weights(row_actions, x)
    col = MixedStrategy.from_weights(col_actions, y)
    return row, col, value
