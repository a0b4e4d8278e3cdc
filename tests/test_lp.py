import numpy as np
import pytest

from alarmpatrol import (
    GeneratorParams,
    LinearProgram,
    all_pairs_distances,
    enumerate_placements,
    fc_sro,
    games,
    generate_instance,
    lp_solve,
    min_cover,
    nc_sro,
    oracles,
    pc_sro,
)
from alarmpatrol import lp as lp_module
from helpers import dense_pivot, routes_for, rowwise_lp_solve

# Classic cycling example for Dantzig's rule; the Bland fallback must
# terminate at the optimum 1/20.
BEALE = LinearProgram(
    c=np.array([0.75, -150.0, 0.02, -6.0]),
    A_ub=np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    ),
    b_ub=np.array([0.0, 0.0, 1.0]),
)


def test_simple_bound():
    sol = lp_solve(LinearProgram(c=np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([3.0])))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)
    assert sol.x[0] == pytest.approx(3.0)


def test_infeasible_pair():
    # x <= 0 and x = 1.
    sol = lp_solve(
        LinearProgram(
            c=np.array([1.0]),
            A_ub=np.array([[1.0]]),
            b_ub=np.array([0.0]),
            A_eq=np.array([[1.0]]),
            b_eq=np.array([1.0]),
        )
    )
    assert sol.status == "infeasible"


def test_unbounded():
    sol = lp_solve(LinearProgram(c=np.array([1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([0.0])))
    assert sol.status == "unbounded"


def test_equalities():
    sol = lp_solve(
        LinearProgram(
            c=np.array([1.0, 2.0]),
            A_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([4.0]),
            A_eq=np.array([[1.0, -1.0]]),
            b_eq=np.array([0.0]),
        )
    )
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([2.0, 2.0])


def test_redundant_equalities():
    sol = lp_solve(
        LinearProgram(
            c=np.array([1.0, 1.0]),
            A_eq=np.array([[1.0, 1.0], [2.0, 2.0]]),
            b_eq=np.array([1.0, 2.0]),
        )
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)


def test_equality_rows_without_columns():
    # No column can enter: the rows hold only when every rhs is 0.
    for b_eq in ([1.0], [0.0, 2.0]):
        sol = lp_solve(LinearProgram(c=np.zeros(0), A_eq=np.zeros((len(b_eq), 0)),
                                     b_eq=np.array(b_eq)))
        assert sol.status == "infeasible" and sol.x is None
    for b_eq in ([0.0], [0.0, -0.0]):
        sol = lp_solve(LinearProgram(c=np.zeros(0), A_eq=np.zeros((len(b_eq), 0)),
                                     b_eq=np.array(b_eq)))
        assert sol.status == "optimal"
        assert sol.x.shape == (0,) and sol.objective == 0.0 and sol.pivots == 0


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        lp_solve(LinearProgram(c=np.array([np.inf])))


def test_rejects_negative_rhs():
    # One row form: every rhs >= 0, and -0.0 is zero.
    one = np.ones((1, 2))
    for b_ub, b_eq in (([-1e-300], None), (None, [-1.0]), ([1.0, -0.5], [-0.0])):
        prog = LinearProgram(
            c=np.ones(2),
            A_ub=None if b_ub is None else np.ones((len(b_ub), 2)),
            b_ub=None if b_ub is None else np.array(b_ub),
            A_eq=None if b_eq is None else one,
            b_eq=None if b_eq is None else np.array(b_eq),
        )
        with pytest.raises(ValueError, match="non-negative"):
            lp_solve(prog)
    sol = lp_solve(LinearProgram(c=np.ones(2), A_ub=one, b_ub=np.array([-0.0]),
                                 A_eq=one, b_eq=np.array([-0.0])))
    assert sol.status == "optimal" and sol.objective == 0.0


def test_beale_degenerate_instance():
    sol = lp_solve(BEALE)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.05)


def test_bit_for_bit_determinism():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = 6, 5
        lp = LinearProgram(
            c=rng.uniform(-1, 1, n),
            A_ub=rng.uniform(-1, 1, (m, n)),
            b_ub=rng.uniform(0.1, 2.0, m),
            A_eq=np.ones((1, n)),
            b_eq=np.array([1.0]),
        )
        a = lp_solve(lp)
        b = lp_solve(lp)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.objective == b.objective
            assert np.array_equal(a.x, b.x)


def test_feasible_solutions_satisfy_constraints():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n, m = 5, 4
        lp = LinearProgram(
            c=rng.uniform(-1, 1, n),
            A_ub=rng.uniform(-1, 1, (m, n)),
            b_ub=rng.uniform(0.1, 2.0, m),
            A_eq=np.ones((1, n)),
            b_eq=np.array([1.0]),
        )
        sol = lp_solve(lp)
        if sol.status != "optimal":
            continue
        assert np.all(sol.x >= -1e-7)
        assert np.all(lp.A_ub @ sol.x <= lp.b_ub + 1e-7)
        assert abs(float((lp.A_eq @ sol.x)[0]) - 1.0) <= 1e-7


def _random_lp(rng, kind):
    """Small LP of one of four kinds, every rhs >= 0.

    The feasible kinds are built around a point x0 >= 0, each row's rhs
    clipped at zero, so many rows pass through the origin, and are capped by
    sum(x) <= n.  Only contradictory equality rows make a program infeasible.
    """
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    c = rng.uniform(-1.0, 1.0, n)
    eq = {}
    if kind == "general":
        A = rng.uniform(-1.0, 1.0, (m, n))
        b = np.maximum(A @ rng.uniform(0.0, 1.0, n) + rng.uniform(0.0, 0.3, m), 0.0)
    elif kind == "degenerate":
        # Small integers, tight at an integer x0 and with a repeated row, give
        # ties and degenerate vertices.
        A = rng.integers(-2, 3, (m, n)).astype(float)
        b = np.maximum(A @ rng.integers(0, 2, n), 0.0)
        A = np.vstack([A, A[:1]])
        b = np.append(b, b[0])
    elif kind == "infeasible":
        # e @ x = s and 2 e @ x = 2 s + t for e, s, t > 0.
        A = rng.uniform(-1.0, 1.0, (m, n))
        b = rng.uniform(0.0, 1.0, m)
        e = rng.uniform(0.1, 1.0, n)
        s = rng.uniform(0.1, 1.0)
        eq = {"A_eq": np.vstack([e, 2.0 * e]),
              "b_eq": np.array([s, 2.0 * s + rng.uniform(0.1, 1.0)])}
    else:  # unbounded: x_0 enters no row and is rewarded
        A = rng.uniform(-1.0, 1.0, (m, n))
        A[:, 0] = -np.abs(A[:, 0])
        b = rng.uniform(0.0, 1.0, m)
        c[0] = 1.0
    if kind in ("general", "degenerate"):
        A = np.vstack([A, np.ones(n)])
        b = np.append(b, float(n))
    return LinearProgram(c=c, A_ub=A, b_ub=b, **eq)


def test_matches_highs_with_duals_certifying_optimality():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2024)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    zero_rhs = 0
    for trial in range(300):
        lp = _random_lp(rng, ("general", "degenerate", "infeasible", "unbounded")[trial % 4])
        rows = dict(A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq, method="highs")
        ref = optimize.linprog(-lp.c, **rows)
        if ref.status == 0:
            status = "optimal"
        else:
            # HiGHS may report an unbounded LP as infeasible, or as "infeasible
            # or unbounded"; a zero objective tells the two apart.
            zero = optimize.linprog(0 * lp.c, **rows)
            status = "unbounded" if zero.status == 0 else "infeasible"
        sol = lp_solve(lp)
        assert sol.status == status, trial
        seen[sol.status] += 1
        if sol.status != "optimal":
            assert sol.duals is None
            continue
        # Optimal programs have inequality rows only, so their duals certify.
        zero_rhs += bool((lp.b_ub == 0).any())
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)
        y = sol.duals
        assert y.shape == lp.b_ub.shape
        assert np.all(y >= -1e-9)
        assert np.all(lp.A_ub.T @ y >= lp.c - 1e-9)
        assert abs(lp.b_ub @ y - lp.c @ sol.x) <= 1e-9
    assert seen["optimal"] >= 100 and min(seen.values()) >= 50
    assert zero_rhs >= 100


def _same_as_dense_pivot(prog: LinearProgram):
    """Solve ``prog`` with the dense reference pivot and with ``lp._pivot``;
    assert the two agree bit for bit and return the latter's solution."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_pivot", dense_pivot)
        ref = lp_solve(prog)
    got = lp_solve(prog)
    _assert_bit_equal(got, ref)
    return got


def _assert_bit_equal(got, ref):
    assert (got.status, got.pivots) == (ref.status, ref.pivots)
    if ref.status == "optimal":
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.duals.tobytes() == ref.duals.tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(ref.objective).tobytes()
    else:
        assert (got.x, got.duals, got.objective) == (None, None, None)


def _mixed_lp(rng):
    """Feasible, bounded LP with zero-rhs, "eq" and redundant rows.

    Sparse small-integer rows through an integer point x0 >= 0, their rhs
    clipped at zero, give pivot rows with many zero columns, ties and
    degenerate vertices; equality rows are signed so that x0 meets them with
    a rhs >= 0, and the last is the sum of two others.
    """
    n = int(rng.integers(3, 10))
    x0 = rng.integers(0, 3, n)
    A = rng.integers(-3, 4, (int(rng.integers(2, 8)), n)) * (rng.random((1, n)) < 0.6)
    b = np.maximum(A @ x0 + rng.integers(0, 2, len(A)), 0)
    E = rng.integers(-2, 3, (int(rng.integers(2, 4)), n)) * (rng.random((1, n)) < 0.6)
    E = E * np.where(E @ x0 < 0, -1, 1)[:, None]
    E = np.vstack([E, E[0] + E[1]])
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, 3 * n)
    return LinearProgram(
        c=rng.integers(-3, 4, n).astype(float),
        A_ub=A.astype(float),
        b_ub=b.astype(float),
        A_eq=E.astype(float),
        b_eq=(E @ x0).astype(float),
    )


def test_pivot_matches_dense_update_on_random_lps():
    rng = np.random.default_rng(10)
    zero_rhs = optimal = 0
    for trial in range(300):
        if trial % 3:
            prog = _mixed_lp(rng)
        else:
            kind = ("general", "degenerate", "infeasible", "unbounded")[trial // 3 % 4]
            prog = _random_lp(rng, kind)
        sol = _same_as_dense_pivot(prog)
        zero_rhs += bool((prog.b_ub == 0).any())
        optimal += sol.status == "optimal"
    assert optimal >= 200 and zero_rhs >= 150


def test_pivot_matches_dense_update_past_bland_switch():
    rules = []
    pivot = lp_module._pivot

    def spy(state, i, q):
        rules.append(state.bland)
        pivot(state, i, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_pivot", spy)
        lp_solve(BEALE)
    assert rules[-1] and not rules[0]
    assert _same_as_dense_pivot(BEALE).pivots == len(rules)


def _placement_lps(monkeypatch, n_targets, seed, sros):
    """The LPs each of ``sros`` solves at the generator instance's first
    placement, as ``resolve`` picks it: one list per oracle.  Each oracle
    gets fresh route sets, so it solves their NC games itself."""
    setting, alarm = generate_instance(GeneratorParams(n_targets=n_targets, seed=seed))
    dist = all_pairs_distances(setting)
    cover = min_cover(setting, dist).placement
    placement = next(enumerate_placements(setting, dist, len(cover.positions), initial=cover))
    (signal,) = alarm.signals
    programs = []

    def record(prog):
        programs[-1].append(prog)
        return lp_solve(prog)

    monkeypatch.setattr(games, "lp_solve", record)
    for sro in sros:
        programs.append([])
        sro(routes_for(setting, dist, placement.positions, alarm.signal_support(signal)), setting)
    monkeypatch.undo()
    return programs


@pytest.mark.parametrize("n_targets, seed", [(150, 11), (100, 42)])
def test_pivot_matches_dense_update_on_pc_and_nc_lps(n_targets, seed, monkeypatch):
    # The response games and NC games PC solves, one cold LP each.
    real, responses = oracles._response_game, []

    def count(I, weights):
        responses.append(I.shape)
        return real(I, weights)

    monkeypatch.setattr(oracles, "_response_game", count)
    (programs,) = _placement_lps(monkeypatch, n_targets, seed, (pc_sro,))
    assert len(responses) >= 2 and len(programs) > len(responses)
    for prog in programs:
        assert _same_as_dense_pivot(prog).status == "optimal"


def _phase_starts(solve, prog):
    """Solve ``prog`` with ``solve``; also return, for each phase, the bytes of
    the tableau, basis and reduced-cost row it starts from."""
    starts = []
    run = lp_module._run

    def spy(state, r, art_limit):
        starts.append((state.T.tobytes(), state.basis.tobytes(), r.tobytes()))
        return run(state, r, art_limit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_run", spy)
        return solve(prog), starts


def _same_as_rowwise(prog: LinearProgram):
    """Solve ``prog`` with ``lp_solve`` and with the row-by-row reference;
    assert both phases start from the same bytes and the results agree bit
    for bit, and return the former's solution."""
    got, got_starts = _phase_starts(lp_solve, prog)
    ref, ref_starts = _phase_starts(rowwise_lp_solve, prog)
    assert got_starts == ref_starts
    _assert_bit_equal(got, ref)
    return got


def _row_kinds_lp(rng):
    """LP over small integers that mixes every row kind the tableau tells apart.

    Inequality rows have positive, 0.0 and -0.0 rhs, or there are none;
    equality rows are signed so that an integer point x0 >= 0 meets them with
    a rhs >= 0, and the last is the sum of two others, so a feasible program
    keeps an artificial basic after phase 1 and drops its row.  One program
    in five adds 1 to that last rhs, which contradicts the others, and an
    inequality rhs below the row's value at x0 can cut x0 off; without the
    cap on sum(x) the objective can grow without bound.
    """
    n = int(rng.integers(2, 8))
    x0 = rng.integers(0, 3, n)
    E = rng.integers(-2, 3, (int(rng.integers(2, 4)), n))
    E = E * np.where(E @ x0 < 0, -1, 1)[:, None]
    E = np.vstack([E, E[0] + E[1]])
    b_eq = (E @ x0).astype(float)
    if rng.random() < 0.2:
        b_eq[-1] += 1.0
    prog = {"c": rng.integers(-3, 4, n).astype(float), "A_eq": E.astype(float), "b_eq": b_eq}
    if rng.random() < 0.75:
        A = rng.integers(-3, 4, (int(rng.integers(1, 7)), n)) * (rng.random((1, n)) < 0.7)
        b = np.maximum(A @ x0 + rng.integers(-1, 2, len(A)), 0).astype(float)
        b[rng.random(len(b)) < 0.3] = -0.0
        if rng.random() < 0.5:
            A = np.vstack([A, np.ones(n)])
            b = np.append(b, 3.0 * n)
        prog.update(A_ub=A.astype(float), b_ub=b)
    return LinearProgram(**prog)


def _many_eq_rows_lp(rng):
    """Bounded LP with 8 to 12 float equality rows through a point x0 >= 0.

    Phase 1's row then sums 8 or more artificial rows whose entries round,
    so the order of that sum shows in the last bits; with more equality rows
    than columns some are redundant and dropped.  One program in five asks
    the first equality row to also equal its rhs plus 1, which no x meets.
    """
    n = int(rng.integers(3, 15))
    x0 = rng.uniform(0.0, 1.0, n)
    A = rng.uniform(-1.0, 0.5, (int(rng.integers(2, 10)), n))
    b = np.maximum(A @ x0 + rng.uniform(0.0, 0.2, len(A)), 0.0)
    E = rng.uniform(0.0, 1.0, (int(rng.integers(8, 13)), n))
    b_eq = E @ x0
    if rng.random() < 0.2:
        E = np.vstack([E, E[0]])
        b_eq = np.append(b_eq, b_eq[0] + 1.0)
    return LinearProgram(
        c=rng.uniform(-1.0, 1.0, n),
        A_ub=np.vstack([A, np.ones(n)]),
        b_ub=np.append(b, float(n)),
        A_eq=E,
        b_eq=b_eq,
    )


def test_masked_tableau_matches_rowwise_build_on_random_lps():
    rng = np.random.default_rng(14)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    signed_zero_rhs = zero_rhs = many_eq = no_ub = 0
    for trial in range(800):
        if trial % 4 == 0:
            prog = _random_lp(rng, ("general", "degenerate", "infeasible", "unbounded")[trial // 4 % 4])
        elif trial % 4 == 1:
            prog = _mixed_lp(rng)
        elif trial % 4 == 2:
            prog = _row_kinds_lp(rng)
        else:
            prog = _many_eq_rows_lp(rng)
        seen[_same_as_rowwise(prog).status] += 1
        if prog.A_ub is None:
            no_ub += 1
        else:
            signed_zero_rhs += bool(np.signbit(prog.b_ub[prog.b_ub == 0.0]).any())
            zero_rhs += bool((~np.signbit(prog.b_ub[prog.b_ub == 0.0])).any())
        many_eq += prog.A_eq is not None and len(prog.A_eq) >= 8
    assert min(seen.values()) >= 60, seen
    assert min(signed_zero_rhs, zero_rhs, many_eq, no_ub) >= 30


def test_masked_tableau_matches_rowwise_build_on_edge_programs():
    # No rows at all; only -0.0 rhs, so phase 1 never runs; and Beale's
    # cycling example, which reaches the Bland fallback.
    for prog in (
        LinearProgram(c=np.array([0.0, -1.0])),
        LinearProgram(c=np.array([1.0])),
        LinearProgram(c=np.array([1.0, 1.0]), A_ub=np.array([[1.0, 0.0], [0.0, 1.0]]),
                      b_ub=np.array([-0.0, -0.0])),
        BEALE,
    ):
        _same_as_rowwise(prog)


def test_masked_tableau_matches_rowwise_build_on_oracle_lps(monkeypatch):
    # Every LP NC and PC solve, and FC's NC games and first-round master LP,
    # which are FC's only cold solves: its later rounds resume that LP.
    for n_targets, seed in ((25, 0), (40, 7)):
        nc, pc, fc = _placement_lps(monkeypatch, n_targets, seed, (nc_sro, pc_sro, fc_sro))
        assert len(pc) > len(nc) >= 1
        assert len(fc) == len(nc) + 1
        for prog in nc + pc + fc:
            assert _same_as_rowwise(prog).status == "optimal"


# -- Resuming a solved tableau ---------------------------------------------------


def _columns(prog: LinearProgram, cols) -> LinearProgram:
    """``prog`` restricted to structural columns ``cols``, in that order."""
    return LinearProgram(
        c=prog.c[cols],
        A_ub=None if prog.A_ub is None else prog.A_ub[:, cols],
        b_ub=prog.b_ub,
        A_eq=None if prog.A_eq is None else prog.A_eq[:, cols],
        b_eq=prog.b_eq,
    )


def _rows_of(prog: LinearProgram, j: int) -> np.ndarray:
    """Column ``j`` of the program's rows: ``A_ub`` rows, then ``A_eq`` rows."""
    parts = [A[:, j] for A in (prog.A_ub, prog.A_eq) if A is not None]
    return np.concatenate(parts)


def test_added_columns_resume_to_the_cold_optimum():
    # Solve a program over some of its columns, then insert the others one at
    # a time at random positions, resuming after each: every resumed solve
    # must reach a cold solve's status and optimum, and count its own pivots.
    rng = np.random.default_rng(15)
    resumed = moved = unbounded = dropped = zero_start = 0
    pivot = lp_module._pivot
    calls = []

    def spy(state, i, q):
        calls.append(q)
        pivot(state, i, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_pivot", spy)
        for trial in range(1200):
            if trial % 3 == 0:
                prog = _random_lp(rng, ("general", "degenerate", "unbounded")[trial // 3 % 3])
            elif trial % 3 == 1:
                prog = _row_kinds_lp(rng)
            else:
                prog = _many_eq_rows_lp(rng)
            n = len(prog.c)
            order = [int(j) for j in rng.permutation(n)]
            # No program without columns has equality rows only (nothing to price).
            k = int(rng.integers(0 if prog.A_ub is not None else 1, n))
            zero_start += k == 0
            cols = order[:k]
            sol = lp_solve(_columns(prog, cols))
            if sol.status != "optimal":
                continue
            state = sol.tableau
            if state.T.shape[0] < len(state.start):
                with pytest.raises(ValueError):
                    state.add_column(_rows_of(prog, order[k]), prog.c[order[k]], 0)
                dropped += 1
                continue
            for j in order[k:]:
                at = int(rng.integers(0, len(cols) + 1))
                state.add_column(_rows_of(prog, j), prog.c[j], at)
                cols.insert(at, j)
                del calls[:]
                sol = state.resume()
                assert sol.pivots == len(calls)
                ref = lp_solve(_columns(prog, cols))
                assert sol.status == ref.status, trial
                resumed += 1
                moved += sol.pivots > 0
                unbounded += sol.status == "unbounded"
                if sol.status != "optimal":
                    break
                assert sol.objective == pytest.approx(ref.objective, abs=1e-9), trial
                sub = _columns(prog, cols)
                assert np.all(sol.x >= 0.0)
                if sub.A_ub is not None:
                    assert np.all(sub.A_ub @ sol.x <= sub.b_ub + 1e-7)
                if sub.A_eq is not None:
                    assert np.allclose(sub.A_eq @ sol.x, sub.b_eq, atol=1e-7)
    assert resumed >= 300 and moved >= 100 and unbounded >= 20
    assert dropped >= 50 and zero_start >= 200


def test_columns_added_to_the_starting_basis_resume_bit_for_bit():
    # A program of <= rows with b >= 0 starts from its slack basis.  Solving
    # it with no columns leaves that basis, so adding every column in order
    # and resuming once must take the cold solve's pivots, bit for bit; on
    # Beale's example the resumed solve crosses the Bland switch.
    rng = np.random.default_rng(16)
    programs = [BEALE]
    for _ in range(60):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        A = rng.integers(-2, 3, (m, n)).astype(float)
        programs.append(LinearProgram(
            c=rng.integers(-3, 4, n).astype(float),
            A_ub=np.vstack([A, np.ones(n)]),
            b_ub=np.append(rng.integers(0, 3, m).astype(float), float(n)),
        ))
    rules = []
    pivot = lp_module._pivot

    def spy(state, i, q):
        rules.append(state.bland)
        pivot(state, i, q)

    for prog in programs:
        n = len(prog.c)
        state = lp_solve(_columns(prog, [])).tableau
        for j in range(n):
            state.add_column(prog.A_ub[:, j], prog.c[j], j)
        del rules[:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module, "_pivot", spy)
            got = state.resume()
        _assert_bit_equal(got, lp_solve(prog))
        if prog is BEALE:
            assert rules[-1] and not rules[0]
            # The next resumed solve starts from Dantzig's rule and no pivots.
            state.add_column(np.zeros(3), -1.0, n)
            again = state.resume()
            assert again.pivots == 0 and not state.bland and state.degenerate == 0
            assert again.objective == got.objective
