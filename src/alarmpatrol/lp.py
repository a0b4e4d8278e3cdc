"""Dense two-phase simplex over numpy tableaus.

Solves  maximize c @ x  subject to  A_ub @ x <= b_ub,  A_eq @ x = b_eq,
x >= 0, and returns the optimal duals of the ``A_ub`` rows with the primal.
Pivoting is Dantzig's rule with lowest-index tie-breaks, falling back to
Bland's rule after a run of degenerate pivots, so repeated solves of the same
program agree bit for bit and cycling cannot occur.

The tableau is dense and column-major, and a pivot updates only the
columns where the normalised pivot row is nonzero: on PC's response games a
median of one column in 25 and a mean of one in four.  This is exact: in
every other column a full update would subtract ``factor * 0 = ±0``, which
changes no value but at most the sign of a zero, and each updated cell
takes the same product and difference, with the same two roundings, as in a
full update.  Pricing and the ratio test do not see the sign of a zero, so
the pivots are those of a full update, and ``x`` and the duals are returned
without negative zeros, so they match it bit for bit too.

Every right-hand side is non-negative (``-0.0`` counts as zero); a negative
one raises ``ValueError``.  Row i's column ``n + i`` is then its starting
basic column: a +1 slack for an ``A_ub`` row, an artificial for an ``A_eq``
row.  The program is copied in with array assignments and that identity
block set by fancy index.  Phase 1's row starts from its cost row and adds
the equality rows one by one in row order, the same additions in the same
order as pricing every row against the basis (``a - (-1.0 * t)`` is
``a + t`` exactly), so the tableau, both reduced-cost rows and every pivot
equal those of a row-by-row build bit for bit; a test pins them to it.

An optimal solution carries its solved tableau, which can take a new
structural column and resume phase 2 (column generation).  The tableau's
columns at the starting basis (the slacks and the artificials) hold B^-1,
so the new column a is B^-1 a read from them.  Their phase-2 reduced costs
are minus the row prices, because their costs are 0, so the new column's
reduced cost is ``cost + r2[starting-basis cols] @ a``.  The column enters
nonbasic, at zero level, so the basic solution and with it primal
feasibility are unchanged, and phase 2 resumes from the old basis.
The pivot limit and the degenerate-run count that switches to Bland's rule
start afresh in each resumed solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7


@dataclass(frozen=True)
class LinearProgram:
    """Inequality-form LP with non-negative variables."""

    c: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None


@dataclass(frozen=True)
class LinearProgramSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None = None  # of the A_ub rows, >= -PIVOT_TOL
    pivots: int = 0  # over both phases, or of the one resumed phase 2
    # The solved tableau of an optimal solution; ``add_column`` + ``resume``.
    tableau: _SimplexState | None = field(default=None, repr=False, compare=False)


def lp_solve(lp: LinearProgram) -> LinearProgramSolution:
    """Solve an LP; statuses are propagated, never silently swallowed."""
    c = np.asarray(lp.c, dtype=float)
    n = c.shape[0]
    A_ub = np.zeros((0, n)) if lp.A_ub is None else np.asarray(lp.A_ub, dtype=float)
    b_ub = np.zeros(0) if lp.b_ub is None else np.asarray(lp.b_ub, dtype=float)
    A_eq = np.zeros((0, n)) if lp.A_eq is None else np.asarray(lp.A_eq, dtype=float)
    b_eq = np.zeros(0) if lp.b_eq is None else np.asarray(lp.b_eq, dtype=float)
    if not all(np.all(np.isfinite(a)) for a in (c, A_ub, b_ub, A_eq, b_eq)):
        raise ValueError("linear program coefficients must be finite")
    if np.any(b_ub < 0) or np.any(b_eq < 0):
        raise ValueError("right-hand sides must be non-negative")

    m1 = A_ub.shape[0]
    b = np.concatenate([b_ub, b_eq])
    m = b.shape[0]
    # Row i's slack (an A_ub row) or artificial (an A_eq row) is column n + i
    # and starts basic.
    ncols = n + m
    basis = n + np.arange(m)
    # Column-major, so a pivot's update gathers and writes whole columns.
    T = np.zeros((m, ncols + 1), order="F")
    T[:m1, :n] = A_ub
    T[m1:, :n] = A_eq
    T[:, -1] = b
    T[np.arange(m), basis] = 1.0

    # Reduced-cost rows.  Every starting basic column is a slack or an
    # artificial, where phase 2's costs are 0, so only phase 1's row is priced
    # against the starting basis: its cost row plus each equality row, in
    # row order.
    r1 = np.zeros(ncols + 1)
    r1[n + m1 : ncols] = -1.0
    for i in range(m1, m):
        r1 += T[i]
    r2 = np.zeros(ncols + 1)
    r2[:n] = c

    # Phase 1's row is updated only while phase 1 needs it.
    extra = [r1, r2] if m > m1 else [r2]
    state = _SimplexState(T=T, basis=basis, extra=extra, switch=10 * (m + ncols))
    state.c, state.m1, state.start = c, m1, basis.copy()

    if m > m1:
        # Artificials start basic and are dropped once they leave, so entering
        # candidates are always structural or slack columns.
        _run(state, r1, art_limit=n + m1)
        # Phase-1 objective is -r1[-1] (maximize minus the artificial mass).
        if r1[-1] > FEAS_TOL:
            return LinearProgramSolution(
                status="infeasible", x=None, objective=None, pivots=state.pivots
            )
        state.extra = [r2]  # nothing reads phase 1's row from here on
        # Pivot each artificial still basic out on its row's first usable
        # column; a row with none is redundant and is dropped.
        for i in np.flatnonzero(basis >= n + m1):
            cols = np.flatnonzero(np.abs(T[i, : n + m1]) > PIVOT_TOL)
            if cols.size:
                _pivot(state, i, cols[0])
        keep = basis < n + m1
        if not keep.all():
            state.T = np.asfortranarray(T[keep])
            state.basis = basis[keep]

    return state.optimize()


class _SimplexState:
    """A tableau, its basis and the reduced-cost rows its pivots update.

    ``lp_solve`` also sets ``c`` (the structural costs), ``m1`` (the number
    of ``A_ub`` rows) and ``start`` (each row's starting basic column), which
    ``optimize`` and ``add_column`` read.
    """

    def __init__(self, T: np.ndarray, basis: np.ndarray, extra: list[np.ndarray], switch: int):
        self.T = T
        self.basis = basis
        self.extra = extra
        self.degenerate = 0
        self.bland = False
        self.switch = switch
        self.pivots = 0

    def optimize(self) -> LinearProgramSolution:
        """Run phase 2 from the current feasible basis and read the solution."""
        r2 = self.extra[-1]
        n, m1 = self.c.shape[0], self.m1
        # Phase 2 prices only structural and slack columns, so artificials
        # stay out.
        if _run(self, r2, art_limit=n + m1) == "unbounded":
            return LinearProgramSolution(
                status="unbounded", x=None, objective=None, pivots=self.pivots
            )
        x = np.zeros(n)
        structural = self.basis < n
        x[self.basis[structural]] = self.T[structural, -1]
        # A basic value rounded below zero reads as 0, and -0.0 as 0.0 (module
        # docstring).
        x = np.maximum(x, 0.0) + 0.0
        # Dual of inequality row i is minus the final reduced cost of its slack
        # column.  Subtracting from 0.0 leaves no -0.0.
        duals = 0.0 - r2[n : n + m1]
        return LinearProgramSolution(
            status="optimal", x=x, objective=float(self.c @ x), duals=duals,
            pivots=self.pivots, tableau=self,
        )

    def add_column(self, a: np.ndarray, cost: float, at: int) -> None:
        """Insert structural column ``at`` priced against the current basis.

        ``a`` holds the column's coefficients in the program's rows (``A_ub``
        rows, then ``A_eq`` rows) and ``cost`` its objective coefficient.  The
        column enters nonbasic, at zero level (module docstring).
        """
        if self.T.shape[0] != self.start.shape[0]:
            raise ValueError("cannot add a column once a redundant row was dropped")
        a = np.asarray(a, dtype=float)
        r2 = self.extra[-1]
        self.T = _with_column(self.T, at, self.T[:, self.start] @ a)
        self.extra[-1] = _with_column(r2, at, cost + r2[self.start] @ a)
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
    for r in state.extra:
        if r[q] != 0.0:
            r -= r[q] * T[i]
            r[q] = 0.0
    state.basis[i] = q
    state.pivots += 1


def _run(state: _SimplexState, r: np.ndarray, art_limit: int) -> str:
    """Iterate pivots pricing with reduced-cost row ``r`` until optimal.

    ``art_limit`` caps the entering columns so artificial variables never
    re-enter the basis.  Returns "optimal" or "unbounded".
    """
    limit = art_limit
    if limit == 0:
        return "optimal"  # no column may enter
    while True:
        if state.pivots > 100_000:
            raise ArithmeticError("simplex pivot limit exceeded")
        cols = r[:limit]
        if state.bland:
            pos = np.nonzero(cols > PIVOT_TOL)[0]
            if pos.size == 0:
                return "optimal"
            q = int(pos[0])
        else:
            q = int(np.argmax(cols))
            if cols[q] <= PIVOT_TOL:
                return "optimal"
        T = state.T
        col = T[:, q]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[np.nonzero(ratios <= best + PIVOT_TOL)[0]]
        i = int(tied[np.argmin(state.basis[tied])])
        before = -r[-1]
        _pivot(state, i, q)
        if -r[-1] - before < 1e-12:
            state.degenerate += 1
            if state.degenerate > state.switch:
                state.bland = True
        else:
            state.degenerate = 0
