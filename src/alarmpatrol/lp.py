"""Dense two-phase simplex over numpy tableaus.

Solves  maximize c @ x  subject to  A_ub @ x <= b_ub,  A_eq @ x = b_eq,
x >= 0, and returns the optimal duals of the ``A_ub`` rows with the primal.
Pivoting is Dantzig's rule with lowest-index tie-breaks, falling back to
Bland's rule after a run of degenerate pivots, so repeated solves of the same
program agree bit for bit and cycling cannot occur.

The tableau is dense and column-major, and a pivot updates only the
columns where the normalised pivot row is nonzero, which on PC's response
LPs is about one column in seven.  This is exact: in every other column a
full update would subtract ``factor * 0 = ±0``, which changes no value but
at most the sign of a zero, and each updated cell takes the same product
and difference, with the same two roundings, as in a full update.  Pricing
and the ratio test do not see the sign of a zero, so the pivots are those of
a full update, and ``x`` and the duals are returned without negative zeros,
so they match it bit for bit too.

The tableau is written from two row masks: ``flip`` (rhs < 0; a -0.0 rhs is
not flipped) and ``art_rows`` (the flipped inequality rows and every equality
row, each given the next artificial column in row order).  The program is
copied in with array assignments, flipped rows are multiplied by -1.0, which
is exact, and the slacks (-1 on a flipped row, else +1), artificials and
starting basis are set by fancy index.  Phase 1's row starts from its cost
row and adds the artificial rows one by one in row order, the same additions
in the same order as pricing every row against the basis (``a - (-1.0 * t)``
is ``a + t`` exactly), so the tableau, both reduced-cost rows and every pivot
equal those of a row-by-row build bit for bit; a test pins them to it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    pivots: int = 0  # over both phases


def lp_solve(lp: LinearProgram) -> LinearProgramSolution:
    """Solve an LP; statuses are propagated, never silently swallowed."""
    c = np.asarray(lp.c, dtype=float)
    n = c.shape[0]
    A_ub = np.zeros((0, n)) if lp.A_ub is None else np.asarray(lp.A_ub, dtype=float)
    b_ub = np.zeros(0) if lp.b_ub is None else np.asarray(lp.b_ub, dtype=float)
    A_eq = np.zeros((0, n)) if lp.A_eq is None else np.asarray(lp.A_eq, dtype=float)
    b_eq = np.zeros(0) if lp.b_eq is None else np.asarray(lp.b_eq, dtype=float)
    if not (
        np.all(np.isfinite(c))
        and np.all(np.isfinite(A_ub))
        and np.all(np.isfinite(b_ub))
        and np.all(np.isfinite(A_eq))
        and np.all(np.isfinite(b_eq))
    ):
        raise ValueError("linear program coefficients must be finite")

    m1 = A_ub.shape[0]
    b = np.concatenate([b_ub, b_eq])
    m = b.shape[0]
    # Rows with a negative rhs are negated (a -0.0 rhs is not).  A negated
    # inequality row gets a -1 slack and an artificial, every equality row
    # an artificial, and each other row's +1 slack starts basic.
    flip = b < 0
    art_rows = np.concatenate([np.flatnonzero(flip[:m1]), np.arange(m1, m)])
    ub = np.arange(m1)
    art_cols = n + m1 + np.arange(art_rows.size)
    ncols = n + m1 + art_rows.size
    # Column-major, so a pivot's update gathers and writes whole columns.
    T = np.zeros((m, ncols + 1), order="F")
    T[:m1, :n] = A_ub
    T[m1:, :n] = A_eq
    T[:, -1] = b
    T[flip, :n] *= -1.0
    T[flip, -1] *= -1.0
    T[ub, n + ub] = np.where(flip[:m1], -1.0, 1.0)
    T[art_rows, art_cols] = 1.0
    basis = n + np.arange(m)
    basis[art_rows] = art_cols

    # Reduced-cost rows.  Every starting basic column is a slack or an
    # artificial, where phase 2's costs are 0, so only phase 1's row is priced
    # against the starting basis: its cost row plus each artificial row, in
    # row order.
    r1 = np.zeros(ncols + 1)
    r1[art_cols] = -1.0
    for i in art_rows:
        r1 += T[i]
    r2 = np.zeros(ncols + 1)
    r2[:n] = c

    state = _SimplexState(T=T, basis=basis, extra=[r1, r2], switch=10 * (m + ncols))

    if art_rows.size:
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

    # Phase 2 prices only structural and slack columns, so artificials stay out.
    status = _run(state, r2, art_limit=n + m1)
    if status == "unbounded":
        return LinearProgramSolution(
            status="unbounded", x=None, objective=None, pivots=state.pivots
        )

    x = np.zeros(n)
    structural = state.basis < n
    x[state.basis[structural]] = state.T[structural, -1]
    x += 0.0  # -0.0 becomes 0.0; see the module docstring
    # Dual of inequality row i is minus the final reduced cost of its slack
    # column; a row negated for its rhs also negated its slack, so the sign
    # works out the same.  Subtracting from 0.0 leaves no -0.0 either.
    duals = 0.0 - r2[n : n + m1]
    return LinearProgramSolution(
        status="optimal", x=x, objective=float(c @ x), duals=duals, pivots=state.pivots
    )


class _SimplexState:
    def __init__(self, T: np.ndarray, basis: np.ndarray, extra: list[np.ndarray], switch: int):
        self.T = T
        self.basis = basis
        self.extra = extra
        self.degenerate = 0
        self.bland = False
        self.switch = switch
        self.pivots = 0


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
