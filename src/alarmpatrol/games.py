"""Constant-sum matrix games solved by linear programming.

The defender picks a row, the attacker a column; the payoff matrix stores the
defender utility and the attacker receives one minus it.  One LP per game gives
both players' strategies: the defender's maxmin is its primal, the attacker's
minmax its duals.  Each pair is checked as a certificate of the game value.

``RowGame`` keeps that LP alive while the defender gains rows, as row
generation needs.  A new row is one new LP column, inserted before the value
variable and priced against the solved tableau's basis
(``lp._SimplexState.add_column``); it enters at zero level, so the old basis
stays primal feasible and the next solve resumes phase 2 from it instead of
starting over.  ``solve`` returns the strategies as probability arrays over
the rows and the columns.

Every LP the oracles solve is a ``RowGame``'s (NC's games, PC's response
games, FC's master): zero-rhs rows, sum x = 1 and payoffs shifted to be
non-negative, the form ``lp_solve`` starts from one pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .lp import LinearProgram, lp_solve

PROB_CLIP = 1e-9
VALUE_TOL = 1e-6


def normalized(weights: Sequence[float]) -> np.ndarray:
    """Probabilities from weights: stray tiny weights clipped to 0, the rest renormalized."""
    w = np.asarray(weights, dtype=float)
    w = np.where(w < PROB_CLIP, 0.0, w)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("mixed strategy needs positive total weight")
    return w / total


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over hashable actions; stores the support only.

    FC returns its joint strategy as one, over ``JointRoute`` actions.  It
    stays only because the benchmark reads FC's strategy as ``probs``; the
    benchmark change that reads rows deletes it (ROADMAP, "One
    joint-strategy representation").
    """

    probs: dict[Any, float]


class RowGame:
    """A constant-sum game solved by one LP that rows can be added to.

    The first ``solve`` builds and solves the LP; after ``add_row`` the next
    resumes from the solved tableau.  ``pivots`` sums the pivots of every
    solve.  Payoffs are shifted by the starting matrix's minimum (when
    negative), which keeps the value variable sign-constrained: rows never
    lower the maxmin, so the shifted value stays non-negative.  The shift
    also leaves the first row's LP column no positive entry but its 1 in
    sum x = 1, which ``lp_solve``'s one-pivot start needs.
    """

    def __init__(self, payoff: np.ndarray):
        payoff = np.asarray(payoff, dtype=float)
        if payoff.ndim != 2 or payoff.size == 0:
            raise ValueError("payoff must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(payoff)):
            raise ValueError("payoff entries must be finite")
        self.payoff = payoff
        self.shift = float(min(0.0, payoff.min()))
        self.pivots = 0
        self._tableau = None

    def add_row(self, u: np.ndarray) -> None:
        """Give the defender row ``u``, one payoff per column."""
        u = np.asarray(u, dtype=float)
        if u.shape != self.payoff.shape[1:] or not np.all(np.isfinite(u)):
            raise ValueError("a row needs one finite payoff per column")
        at = len(self.payoff)
        self.payoff = np.vstack([self.payoff, u])
        if self._tableau is not None:
            # The LP column of the row: -(u - shift) in the column rows, 1 in sum x = 1.
            self._tableau.add_column(np.append(-(u - self.shift), 1.0), 0.0, at)

    def solve(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Maxmin/minmax pair and game value over the current rows.

        The row player maximizes the minimal column payoff; the column
        strategy is the attacker minmax distribution (the one row generation
        best-responds to), read from the duals of the per-column constraints.
        Both come back ``normalized``, as arrays over the rows and the
        columns.  Raises ArithmeticError unless each strategy guarantees the
        value within ``VALUE_TOL`` against every reply.
        """
        U = self.payoff
        n_rows, n_cols = U.shape
        if self._tableau is None:
            # maximize v  s.t.  v - sum_r U[r,t] x_r <= 0 per column, sum x = 1
            Us = U - self.shift
            A_ub = np.hstack([-Us.T, np.ones((n_cols, 1))])
            A_eq = np.hstack([np.ones((1, n_rows)), np.zeros((1, 1))])
            c = np.zeros(n_rows + 1)
            c[-1] = 1.0
            row_sol = lp_solve(LinearProgram(c=c, A_ub=A_ub, b_ub=np.zeros(n_cols), A_eq=A_eq))
        else:
            row_sol = self._tableau.optimize()
        self.pivots += row_sol.pivots
        self._tableau = row_sol.tableau

        value = float(row_sol.x[-1]) + self.shift
        x = row_sol.x[:n_rows]
        y = np.maximum(row_sol.duals, 0.0)
        if y.sum() <= 0.0:
            raise ArithmeticError("row LP has no positive dual weight")
        y = y / y.sum()
        gap = max(float((U @ y).max()) - value, value - float((x @ U).min()))
        if gap > VALUE_TOL:
            raise ArithmeticError(f"strategies miss the game value by {gap} > {VALUE_TOL}")

        return normalized(x), normalized(y), value


def solve_zero_sum(payoff: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``RowGame(payoff).solve()``.

    No program code calls it.  The benchmark's tracer binds it by name, so
    it is deleted together with that binding, in the benchmark change that
    also drops ``JointRoute`` and ``MixedStrategy`` (ROADMAP, "One
    joint-strategy representation").
    """
    return RowGame(payoff).solve()
