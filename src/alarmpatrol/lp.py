"""Simplex over numpy tableaus for the LPs of constant-sum games.

Solves  maximize c @ x  subject to  A_ub @ x <= b_ub,  A_eq @ x = 1,  x >= 0,
where ``A_eq`` is one row, and returns the optimal duals of the ``A_ub`` rows
with the primal.  That is a game's LP (``games.RowGame``): one row per
attacker action and the defender's mixed strategy summing to 1.  Pivoting is
Dantzig's rule with lowest-index tie-breaks, falling back to Bland's rule
after a run of degenerate pivots, so repeated solves of the same program agree
bit for bit and cycling cannot occur.

A pivot updates only the columns where the normalised pivot row is
nonzero: in the others a full update would subtract ``factor * 0 = ±0``,
changing at most the sign of a zero.  A narrow program, with no more
structural columns than rows (FC's master), keeps every row current in a
dense column-major ``T``.  A wide one (NC's and PC's games: hundreds of
routes by at most 150 targets, a few dozen pivots) keeps a partial tableau
in product form (Dantzig & Orchard-Hays, 1954): the program's arrays with
the identity block implicit, every row's rhs and reduced cost, and each
pivot's normalised row and factor column.  The entering column and a pivot
row are replayed through those pairs, from the start or the row's last
pivot, each cell taking a full update's products and differences in order
and skipping the cells where the stored row is zero.  So every entry read
is the full tableau's bit for bit, zero signs included, and so are the
pivots, ``x`` and the duals (returned without negative zeros); tests pin
them and the tableau bytes to a full-tableau simplex.

Row i's column ``n + i`` is its starting basic column: a +1 slack for an
``A_ub`` row, an artificial for the equality row.  A two-phase simplex would
start phase 1 there; ``lp_solve`` instead pivots ``x_0`` in on the equality
row, which is feasible because that row holds ``x_0``'s only positive entry
and no rhs is negative, and runs phase 2 only.  On a game's LP, whose
equality row is 1 at each defender row and 0 at the value, that pivot is all
of phase 1: Dantzig's rule takes ``x_0``, the ratio test its one positive
entry, and the artificial leaves.  So every later pivot and value equals the
two-phase solve's bit for bit, with one pivot fewer, and a test pins them to
a row-by-row two-phase build.  Any other program form raises
``ValueError``: no columns, ``A_eq`` not one row whose first entry is
positive, a positive entry in ``A_ub``'s first column, or a negative
right-hand side (``-0.0`` counts as zero).

An optimal solution carries its solved tableau, which can take a new
structural column and resume phase 2 (column generation).  The tableau's
columns at the starting basis (the slacks and the artificial) hold B^-1,
so the new column a is B^-1 a read from them.  Their reduced costs are
minus the row prices, because their costs are 0, so the new column's
reduced cost is ``cost + r[starting-basis cols] @ a``.  The column enters
nonbasic, at zero level, so the basic solution and with it primal
feasibility are unchanged, and ``optimize`` resumes phase 2 from the old
basis.  A partial tableau first replays every row and keeps them all
current from then on.  Every solve starts the pivot limit and the
degenerate-run count that switches to Bland's rule afresh.  Phase 2 never
prices the artificial.

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
    pivots: int  # of this solve's phase 2
    # The solved tableau; ``add_column`` + ``optimize``.
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
    # Every starting basic column costs 0, so the costs are the reduced costs.
    r = np.zeros(ncols + 1)
    r[:n] = c
    state = _SimplexState(basis, r)
    state.c, state.m1, state.start = c, m1, basis.copy()
    if n <= m:
        # A narrow program keeps every row current (module docstring), in a
        # column-major tableau whose pivots gather and write whole columns.
        T = np.zeros((m, ncols + 1), order="F")
        T[:m1, :n] = A_ub
        T[m1, :n] = A_eq
        T[:m1, -1] = b_ub
        T[m1, -1] = 1.0
        T[np.arange(m), basis] = 1.0
        state.T, state.rhs = T, T[:, -1]
    else:
        state.A_ub, state.A_eq, state.b = A_ub, A_eq, np.append(b_ub, 1.0)
        state.rhs = state.b.copy()
        state.etas, state.last = [], np.full(m, -1)
    _pivot(state, m1, 0, state.column(0))  # phase 1 (module docstring)
    return state.optimize()


class _SimplexState:
    """A tableau, its basis and the reduced-cost row its pivots update.

    ``lp_solve`` also sets ``c`` (the structural costs), ``m1`` (the number
    of ``A_ub`` rows), ``start`` (each row's starting basic column), ``rhs``
    and either ``T`` or a partial tableau (module docstring): ``A_ub``,
    ``A_eq`` and the starting rhs ``b``; ``etas``, per pivot its row,
    entering column, normalised row, factor column, and the row's nonzero
    columns and values; ``last``, each row's last pivot in ``etas`` or -1.
    """

    def __init__(self, basis: np.ndarray, r: np.ndarray):
        self.T = None
        self.basis = basis
        self.r = r
        self.pivots = self.degenerate = 0
        self.bland = False

    def column(self, q: int) -> np.ndarray:
        """Tableau column ``q``, every row: a view of ``T``, or replayed."""
        if self.T is not None:
            return self.T[:, q]
        n, m = self.A_eq.shape[1], len(self.basis)
        col = np.append(self.A_ub[:, q], self.A_eq[0, q]) if q < n else np.eye(1, m, q - n)[0]
        for i, entered, p, factor, _, _ in self.etas:
            if entered == q:
                col = np.eye(1, m, i)[0]
                continue
            if p[q] != 0.0:
                col -= p[q] * factor
            col[i] = p[q]
        return col

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` of a partial tableau, every column, replayed from its
        last pivot or the start."""
        s = self.last[i]
        if s >= 0:
            row = self.etas[s][2].copy()
        else:
            n = self.A_eq.shape[1]
            row = np.zeros(self.r.shape[0])
            row[:n] = self.A_ub[i] if i < self.m1 else self.A_eq[0]
            row[n + i] = 1.0
            row[-1] = self.b[i]
        for _, entered, _, factor, nz, values in self.etas[s + 1 :]:
            row[nz] -= values * factor[i]
            row[entered] = 0.0
        return row

    def optimize(self) -> LinearProgramSolution:
        """Run phase 2 afresh from the current feasible basis; read the solution."""
        self.pivots = self.degenerate = 0
        self.bland = False
        self.switch = 10 * (self.start.shape[0] + self.r.shape[0] - 1)
        _run(self)
        n, m1 = self.c.shape[0], self.m1
        x = np.zeros(n)
        structural = self.basis < n
        x[self.basis[structural]] = self.rhs[structural]
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
        The column enters nonbasic, at zero level (module docstring).  A
        partial tableau first replays every row, and keeps them current.
        """
        if self.T is None:
            self.T = np.asfortranarray([self.row(i) for i in range(len(self.basis))])
        a = np.asarray(a, dtype=float)
        self.T = _with_column(self.T, at, self.T[:, self.start] @ a)
        self.rhs = self.T[:, -1]
        self.r = _with_column(self.r, at, cost + self.r[self.start] @ a)
        self.c = _with_column(self.c, at, cost)
        self.basis[self.basis >= at] += 1
        self.start = self.start + (self.start >= at)


def _with_column(A: np.ndarray, at: int, v) -> np.ndarray:
    """Column-major copy of ``A`` with ``v`` inserted at index ``at`` of its last axis."""
    out = np.empty(A.shape[:-1] + (A.shape[-1] + 1,), order="F")
    out[..., :at] = A[..., :at]
    out[..., at] = v
    out[..., at + 1 :] = A[..., at:]
    return out


def _pivot(state: _SimplexState, i: int, q: int, col: np.ndarray) -> None:
    """Pivot on row ``i`` and column ``q``, which is ``col`` (``state.column(q)``)."""
    T = state.T
    if T is None:
        p = state.row(i)
        p /= p[q]
        factor = col  # a partial tableau's column is a fresh array
        factor[i] = 0.0
        nz = p.nonzero()[0]
        if p[-1] != 0.0:
            state.rhs -= p[-1] * factor
        state.rhs[i] = p[-1]
        state.last[i] = len(state.etas)
        state.etas.append((i, q, p, factor, nz, p[nz]))
    else:
        T[i] /= T[i, q]
        factor = T[:, q].copy()
        factor[i] = 0.0
        # Only the pivot row's nonzero columns change (module docstring).
        nz = T[i].nonzero()[0]
        T.T[nz] -= T[i, nz][:, None] * factor
        T[:, q] = 0.0
        T[i, q] = 1.0
        p = T[i]
    r = state.r
    if r[q] != 0.0:
        r -= r[q] * p
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
        col = state.column(q)
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            raise ArithmeticError("unbounded LP: an improving column has no positive entry")
        ratios = state.rhs[rows] / col[rows]
        best = ratios.min()
        tied = rows[np.nonzero(ratios <= best + PIVOT_TOL)[0]]
        i = int(tied[np.argmin(state.basis[tied])])
        before = -r[-1]
        _pivot(state, i, q, col)
        state.pivots += 1
        if -r[-1] - before < 1e-12:
            state.degenerate += 1
            if state.degenerate > state.switch:
                state.bland = True
        else:
            state.degenerate = 0
