"""Dense simplex over numpy tableaus for the LPs of constant-sum games.

Solves  maximize c @ x  subject to  A_ub @ x <= b_ub,  A_eq @ x = 1,  x >= 0,
where ``A_eq`` is one row, and returns the optimal duals of the ``A_ub`` rows
with the primal.  That is a game's LP (``games.RowGame``): one row per
attacker action and the defender's mixed strategy summing to 1.  Pivoting is
Dantzig's rule with lowest-index tie-breaks, falling back to Bland's rule
after a run of degenerate pivots, so repeated solves of the same program agree
bit for bit and cycling cannot occur.

The tableau is dense and column-major, and a pivot updates only the
columns where the normalised pivot row is nonzero: on PC's response games a
median of one column in 25 and a mean of one in four.  This is exact: in
every other column a full update would subtract ``factor * 0 = ±0``, which
changes no value but at most the sign of a zero, and each updated cell
takes the same product and difference, with the same two roundings, as in a
full update.  Pricing and the ratio test do not see the sign of a zero, so
the pivots are those of a full update, and ``x`` and the duals are returned
without negative zeros, so they match it bit for bit too.

Row i's column ``n + i`` is its starting basic column: a +1 slack for an
``A_ub`` row, an artificial for the equality row.  The program is copied in
with array assignments and that identity block set by fancy index.  A
two-phase simplex would start phase 1 there; ``lp_solve`` instead pivots
``x_0`` in on the equality row, which is feasible because that row holds
``x_0``'s only positive entry and no rhs is negative, and runs phase 2 only.
On a game's LP, whose equality row is 1 at each defender row and 0 at the
value, that pivot is all of phase 1: Dantzig's rule takes ``x_0``, the ratio
test its one positive entry, and the artificial leaves.  So every later
pivot and value equals the two-phase solve's bit for bit, with one pivot
fewer, and a test pins them to a row-by-row two-phase build.  Any other
program form raises ``ValueError``: no columns, ``A_eq`` not one row whose
first entry is positive, a positive entry in ``A_ub``'s first column, or a
negative right-hand side (``-0.0`` counts as zero).

An optimal solution carries its solved tableau, which can take a new
structural column and resume phase 2 (column generation).  The tableau's
columns at the starting basis (the slacks and the artificial) hold B^-1,
so the new column a is B^-1 a read from them.  Their reduced costs are
minus the row prices, because their costs are 0, so the new column's
reduced cost is ``cost + r[starting-basis cols] @ a``.  The column enters
nonbasic, at zero level, so the basic solution and with it primal
feasibility are unchanged, and phase 2 resumes from the old basis.
The pivot limit and the degenerate-run count that switches to Bland's rule
start afresh in each resumed solve.  Phase 2 never prices the artificial.

A phase-2 column with a positive reduced cost and no positive entry would
make the program unbounded, which no game's LP is; it raises
``ArithmeticError``, as the pivot limit does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    """A game's LP: ``A_ub`` rows with rhs ``b_ub``, the one row ``A_eq @ x = 1``."""

    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray


@dataclass(frozen=True)
class LinearProgramSolution:
    x: np.ndarray
    duals: np.ndarray  # of the A_ub rows, >= -PIVOT_TOL
    pivots: int  # of phase 2, or of the one resumed phase 2
    # The solved tableau; ``add_column`` + ``resume``.
    tableau: _SimplexState | None = field(default=None, repr=False, compare=False)


def lp_solve(lp: LinearProgram) -> LinearProgramSolution:
    """Solve a game's LP from the basis phase 1's one pivot reaches."""
    c = np.asarray(lp.c, dtype=float)
    A_ub, b_ub, A_eq = (np.asarray(a, dtype=float) for a in (lp.A_ub, lp.b_ub, lp.A_eq))
    n, m1 = c.shape[0], b_ub.shape[0]
    if not all(np.all(np.isfinite(a)) for a in (c, A_ub, b_ub, A_eq)):
        raise ValueError("linear program coefficients must be finite")
    if np.any(b_ub < 0):
        raise ValueError("right-hand sides must be non-negative")
    if (n == 0 or A_ub.shape != (m1, n) or A_eq.shape != (1, n)
            or A_eq[0, 0] <= PIVOT_TOL or np.any(A_ub[:, 0] > 0)):
        raise ValueError("not a game's LP: x_0 must be positive in the one equality row only")

    m = m1 + 1
    # Row i's slack (an A_ub row) or artificial (the equality row) is column
    # n + i and starts basic.
    ncols = n + m
    basis = n + np.arange(m)
    # Column-major, so a pivot's update gathers and writes whole columns.
    T = np.zeros((m, ncols + 1), order="F")
    T[:m1, :n] = A_ub
    T[m1, :n] = A_eq
    T[:m1, -1] = b_ub
    T[m1, -1] = 1.0
    T[np.arange(m), basis] = 1.0
    # Every starting basic column costs 0, so the costs are the reduced costs.
    r = np.zeros(ncols + 1)
    r[:n] = c

    state = _SimplexState(T=T, basis=basis, r=r, switch=10 * (m + ncols))
    state.c, state.m1, state.start = c, m1, basis.copy()
    _pivot(state, m1, 0)  # phase 1 (module docstring)
    return state.optimize()


class _SimplexState:
    """A tableau, its basis and the reduced-cost row its pivots update.

    ``lp_solve`` also sets ``c`` (the structural costs), ``m1`` (the number
    of ``A_ub`` rows) and ``start`` (each row's starting basic column), which
    ``optimize`` and ``add_column`` read.
    """

    def __init__(self, T: np.ndarray, basis: np.ndarray, r: np.ndarray, switch: int):
        self.T = T
        self.basis = basis
        self.r = r
        self.degenerate = 0
        self.bland = False
        self.switch = switch
        self.pivots = 0

    def optimize(self) -> LinearProgramSolution:
        """Run phase 2 from the current feasible basis and read the solution."""
        _run(self)
        n, m1 = self.c.shape[0], self.m1
        x = np.zeros(n)
        structural = self.basis < n
        x[self.basis[structural]] = self.T[structural, -1]
        # A basic value rounded below zero reads as 0, and -0.0 as 0.0 (module
        # docstring).
        x = np.maximum(x, 0.0) + 0.0
        # Dual of inequality row i is minus the final reduced cost of its slack
        # column.  Subtracting from 0.0 leaves no -0.0.
        duals = 0.0 - self.r[n : n + m1]
        return LinearProgramSolution(x=x, duals=duals, pivots=self.pivots, tableau=self)

    def add_column(self, a: np.ndarray, cost: float, at: int) -> None:
        """Insert structural column ``at`` priced against the current basis.

        ``a`` holds the column's coefficients in the program's rows (``A_ub``
        rows, then the equality row) and ``cost`` its objective coefficient.
        The column enters nonbasic, at zero level (module docstring).
        """
        a = np.asarray(a, dtype=float)
        self.T = _with_column(self.T, at, self.T[:, self.start] @ a)
        self.r = _with_column(self.r, at, cost + self.r[self.start] @ a)
        self.c = _with_column(self.c, at, cost)
        self.basis[self.basis >= at] += 1
        self.start = self.start + (self.start >= at)

    def resume(self) -> LinearProgramSolution:
        """Re-solve after ``add_column``: phase 2 from the old basis.

        The pivot limit and the degenerate-run count start afresh, and the
        solution's ``pivots`` counts this solve's pivots alone.
        """
        self.pivots = self.degenerate = 0
        self.bland = False
        self.switch = 10 * (self.start.shape[0] + self.T.shape[1] - 1)
        return self.optimize()


def _with_column(A: np.ndarray, at: int, v) -> np.ndarray:
    """Column-major copy of ``A`` with ``v`` inserted at index ``at`` of its last axis."""
    out = np.empty(A.shape[:-1] + (A.shape[-1] + 1,), order="F")
    out[..., :at] = A[..., :at]
    out[..., at] = v
    out[..., at + 1 :] = A[..., at:]
    return out


def _pivot(state: _SimplexState, i: int, q: int) -> None:
    T = state.T
    T[i] /= T[i, q]
    factor = T[:, q].copy()
    factor[i] = 0.0
    # Only the pivot row's nonzero columns change (module docstring).
    nz = T[i].nonzero()[0]
    T.T[nz] -= T[i, nz][:, None] * factor
    T[:, q] = 0.0
    T[i, q] = 1.0
    r = state.r
    if r[q] != 0.0:
        r -= r[q] * T[i]
        r[q] = 0.0
    state.basis[i] = q


def _run(state: _SimplexState) -> None:
    """Pivot, pricing with ``state.r``, until no column improves.

    Prices every column but the last two, the artificial and the rhs.
    """
    r = state.r
    while True:
        if state.pivots > 100_000:
            raise ArithmeticError("simplex pivot limit exceeded")
        cols = r[:-2]
        if state.bland:
            pos = np.nonzero(cols > PIVOT_TOL)[0]
            if pos.size == 0:
                return
            q = int(pos[0])
        else:
            q = int(np.argmax(cols))
            if cols[q] <= PIVOT_TOL:
                return
        T = state.T
        col = T[:, q]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            raise ArithmeticError("unbounded LP: an improving column has no positive entry")
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[np.nonzero(ratios <= best + PIVOT_TOL)[0]]
        i = int(tied[np.argmin(state.basis[tied])])
        before = -r[-1]
        _pivot(state, i, q)
        state.pivots += 1
        if -r[-1] - before < 1e-12:
            state.degenerate += 1
            if state.degenerate > state.switch:
                state.bland = True
        else:
            state.degenerate = 0
