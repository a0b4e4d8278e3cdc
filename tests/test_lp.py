import numpy as np
import pytest

from alarmpatrol import (
    GeneratorParams,
    RowGame,
    all_pairs_distances,
    enumerate_placements,
    fc_sro,
    games,
    generate_instance,
    min_cover,
    nc_sro,
    oracles,
    pc_sro,
)
from alarmpatrol import lp as lp_module
from alarmpatrol.lp import LinearProgram, lp_solve
from helpers import dense_pivot, routes_for, rowwise_lp_solve

# Beale's classic cycling example for Dantzig's rule, behind an x_0 that is
# nonzero in the equality row only: the start pivot makes x_0 basic at 1 and
# leaves Beale's program to phase 2, where the Bland fallback must terminate
# at the optimum 1/20.
BEALE = LinearProgram(
    c=np.array([0.0, 0.75, -150.0, 0.02, -6.0]),
    A_ub=np.array(
        [
            [0.0, 0.25, -60.0, -0.04, 9.0],
            [0.0, 0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
        ]
    ),
    b_ub=np.array([0.0, 0.0, 1.0]),
    A_eq=np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]),
)

GAME_KINDS = ("dense", "degenerate", "sparse", "coverage")


def _random_game(rng, kind, max_rows=7, max_cols=7):
    """Payoff matrix of one of four kinds.

    Dense payoffs are uniform on [-1, 1], so most games are shifted; small
    integers with a repeated row and a repeated column give ties and
    degenerate vertices; sparse integer payoffs give pivot rows with many
    zero columns; coverage payoffs are 1 where a row covers a column and
    1 - pi otherwise, as the oracles' games are.
    """
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    if kind == "dense":
        return rng.uniform(-1.0, 1.0, (rows, cols))
    if kind == "degenerate":
        U = rng.integers(-2, 3, (rows, cols)).astype(float)
        U = np.vstack([U, U[:1]])
        return np.hstack([U, U[:, :1]])
    if kind == "sparse":
        return (rng.integers(-3, 4, (rows, cols)) * (rng.random((rows, cols)) < 0.4)).astype(float)
    pi = rng.uniform(0.1, 1.0, cols)
    return np.where(rng.random((rows, cols)) < 0.4, 1.0, 1.0 - pi)


def _game_lp(U) -> LinearProgram:
    """The LP ``RowGame(U)`` solves cold."""
    programs = []

    def record(prog):
        programs.append(prog)
        return lp_solve(prog)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(games, "lp_solve", record)
        RowGame(U).solve()
    (prog,) = programs
    return prog


def test_simple_bound():
    # maximize v with v <= 3 x_0 and x_0 = 1: the 1 x 1 game of payoff 3.
    sol = lp_solve(LinearProgram(c=np.array([0.0, 1.0]), A_ub=np.array([[-3.0, 1.0]]),
                                 b_ub=np.array([0.0]), A_eq=np.array([[1.0, 0.0]])))
    assert sol.x == pytest.approx([1.0, 3.0])
    assert sol.duals == pytest.approx([1.0])


def test_unbounded():
    # x_1 is rewarded and enters no row but the equality row, where it has 0.
    prog = LinearProgram(c=np.array([0.0, 1.0]), A_ub=np.array([[-1.0, -1.0]]),
                         b_ub=np.array([0.0]), A_eq=np.array([[1.0, 0.0]]))
    with pytest.raises(ArithmeticError, match="no positive entry"):
        lp_solve(prog)


def test_equalities():
    # maximize x_0 + 2 x_1 with x_1 <= x_0 and x_0 + x_1 = 1.
    sol = lp_solve(LinearProgram(c=np.array([1.0, 2.0]), A_ub=np.array([[-1.0, 1.0]]),
                                 b_ub=np.array([0.0]), A_eq=np.array([[1.0, 1.0]])))
    assert sol.x == pytest.approx([0.5, 0.5])
    # Every cost negative: the row still binds, as phase 2 never prices its
    # artificial, whose reduced cost is then positive.
    sol = lp_solve(LinearProgram(c=np.array([-1.0, -2.0]), A_ub=np.array([[-1.0, 1.0]]),
                                 b_ub=np.array([0.0]), A_eq=np.array([[1.0, 1.0]])))
    assert sol.x.tolist() == [1.0, 0.0]


def test_infeasible_pair():
    # x_0 <= 0 and x_0 = 1: a game's LP is feasible at x = e_0, so a program
    # with x_0 in an A_ub row is not one and is rejected, not solved.
    for row in ([1.0], [1e-300]):
        prog = LinearProgram(c=np.array([1.0]), A_ub=np.array([row]), b_ub=np.array([0.0]),
                             A_eq=np.array([[1.0]]))
        with pytest.raises(ValueError, match="game"):
            lp_solve(prog)


def test_redundant_equalities():
    # Two proportional equality rows: a game's LP has exactly one, sum x = 1.
    prog = LinearProgram(c=np.ones(2), A_ub=np.zeros((0, 2)), b_ub=np.zeros(0),
                         A_eq=np.array([[1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(ValueError, match="game"):
        lp_solve(prog)


def test_equality_rows_without_columns():
    # A game has at least one strategy, so a program without columns is
    # rejected whatever its rows.
    for rows in (0, 1, 2):
        prog = LinearProgram(c=np.zeros(0), A_ub=np.zeros((rows, 0)), b_ub=np.zeros(rows),
                             A_eq=np.zeros((1, 0)))
        with pytest.raises(ValueError, match="game"):
            lp_solve(prog)


def test_rejects_programs_outside_the_game_form():
    # Every accepted program is feasible at x = e_0 and its phase 1 is one
    # pivot; the rest raise ValueError before a tableau is built.
    one = np.ones((1, 2))
    game = dict(c=np.ones(2), A_ub=-one, b_ub=np.zeros(1), A_eq=one)
    for changes in (
        {"A_eq": np.zeros((0, 2))},  # no equality row
        {"A_eq": np.array([[0.0, 1.0]])},  # x_0 not in the equality row
        {"A_eq": np.array([[-1.0, 1.0]])},
        {"A_ub": np.ones((2, 2))},  # rows and rhs disagree
    ):
        with pytest.raises(ValueError, match="game"):
            lp_solve(LinearProgram(**{**game, **changes}))
    sol = lp_solve(LinearProgram(**game))
    assert sol.x.tolist() == [1.0, 0.0] and sol.pivots == 0


def test_rejects_non_finite():
    for field in ("c", "A_ub", "A_eq"):
        game = dict(c=np.ones(2), A_ub=-np.ones((1, 2)), b_ub=np.zeros(1), A_eq=np.ones((1, 2)))
        game[field] = np.where(np.arange(2) == 1, np.inf, game[field])
        with pytest.raises(ValueError, match="finite"):
            lp_solve(LinearProgram(**game))


def test_rejects_negative_rhs():
    # Every rhs >= 0, and -0.0 is zero.
    for b_ub in ([-1e-300], [1.0, -0.5]):
        prog = LinearProgram(c=np.ones(2), A_ub=-np.ones((len(b_ub), 2)), b_ub=np.array(b_ub),
                             A_eq=np.ones((1, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            lp_solve(prog)
    sol = lp_solve(LinearProgram(c=np.ones(2), A_ub=-np.ones((1, 2)), b_ub=np.array([-0.0]),
                                 A_eq=np.ones((1, 2))))
    assert sol.x.sum() == 1.0


def test_beale_degenerate_instance():
    sol = lp_solve(BEALE)
    assert float(BEALE.c @ sol.x) == pytest.approx(0.05)


def test_bit_for_bit_determinism():
    rng = np.random.default_rng(7)
    for trial in range(40):
        prog = _game_lp(_random_game(rng, GAME_KINDS[trial % 4]))
        a = lp_solve(prog)
        b = lp_solve(prog)
        _assert_bit_equal(a, b)


def test_feasible_solutions_satisfy_constraints():
    rng = np.random.default_rng(13)
    for trial in range(60):
        prog = _game_lp(_random_game(rng, GAME_KINDS[trial % 4]))
        sol = lp_solve(prog)
        assert np.all(sol.x >= 0.0) and np.all(sol.duals >= -1e-9)
        assert np.all(prog.A_ub @ sol.x <= prog.b_ub + 1e-7)
        assert abs(float((prog.A_eq @ sol.x)[0]) - 1.0) <= 1e-7


def test_matches_highs_with_duals_certifying_optimality():
    # The value agrees with HiGHS, and each side's strategy, ours and HiGHS's,
    # guarantees the other's value: both minmax strategies are optimal.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2024)
    shifted = 0
    for trial in range(300):
        U = _random_game(rng, GAME_KINDS[trial % 4])
        rows, cols = U.shape
        # maximize v  s.t.  v <= x @ U[:, t] per column, sum x = 1, v free.
        ref = optimize.linprog(
            np.append(np.zeros(rows), -1.0),
            A_ub=np.hstack([-U.T, np.ones((cols, 1))]), b_ub=np.zeros(cols),
            A_eq=np.append(np.ones(rows), 0.0)[None], b_eq=[1.0],
            bounds=[(0, None)] * rows + [(None, None)], method="highs",
        )
        assert ref.status == 0
        x_ref, y_ref = ref.x[:-1], -ref.ineqlin.marginals
        x, y, value = RowGame(U).solve()
        shifted += bool(U.min() < 0.0)
        assert value == pytest.approx(-ref.fun, abs=1e-9), trial
        for p, q in ((x, y), (x_ref, y_ref)):
            assert np.all(p >= -1e-9) and np.all(q >= -1e-9)
            assert abs(p.sum() - 1.0) <= 1e-9 and abs(q.sum() - 1.0) <= 1e-9
            assert (p @ U).min() >= -ref.fun - 1e-9, trial
            assert (U @ q).max() <= value + 1e-9, trial
    assert shifted >= 100


def _same_as_dense_pivot(prog: LinearProgram):
    """Solve ``prog`` with the dense reference pivot and with ``lp._pivot``;
    assert the two agree bit for bit and return the latter's solution."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_pivot", dense_pivot)
        ref = lp_solve(prog)
    got = lp_solve(prog)
    _assert_bit_equal(got, ref)
    return got


def _assert_bit_equal(got, ref, start_pivots=0):
    """Same x and duals bytes; ``ref`` took ``start_pivots`` more pivots."""
    assert got.pivots + start_pivots == ref.pivots
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.duals.tobytes() == ref.duals.tobytes()


def test_pivot_matches_dense_update_on_random_lps():
    rng = np.random.default_rng(10)
    pivots = 0
    for trial in range(300):
        prog = _game_lp(_random_game(rng, GAME_KINDS[trial % 4], 9, 9))
        pivots += _same_as_dense_pivot(prog).pivots
    assert pivots >= 600


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
    # The start pivot is phase 1's; ``pivots`` counts phase 2's.
    assert _same_as_dense_pivot(BEALE).pivots == len(rules) - 1


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
        _same_as_dense_pivot(prog)


def _phase_starts(solve, prog):
    """Solve ``prog`` with ``solve``; also return, for each run of the pivoting
    loop, the bytes of the tableau, basis and reduced-cost row it starts from."""
    starts = []
    run = lp_module._run

    def spy(state):
        starts.append((state.T.tobytes(), state.basis.tobytes(), state.r.tobytes()))
        return run(state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_run", spy)
        return solve(prog), starts


def _same_as_rowwise(prog: LinearProgram):
    """Solve ``prog`` with ``lp_solve`` and with the two-phase row-by-row
    reference; assert that ``lp_solve``'s phase 2 starts from the bytes the
    reference's starts from, after its phase 1 of one pivot, and that the
    results agree bit for bit; return ``lp_solve``'s solution."""
    got, got_starts = _phase_starts(lp_solve, prog)
    ref, ref_starts = _phase_starts(rowwise_lp_solve, prog)
    assert len(ref_starts) == 2 and got_starts == ref_starts[1:]
    _assert_bit_equal(got, ref, start_pivots=1)
    return got


def test_masked_tableau_matches_rowwise_build_on_random_lps():
    rng = np.random.default_rng(14)
    moved = 0
    for trial in range(800):
        prog = _game_lp(_random_game(rng, GAME_KINDS[trial % 4], 9, 9))
        moved += _same_as_rowwise(prog).pivots > 1
    assert moved >= 450


def test_masked_tableau_matches_rowwise_build_on_edge_programs():
    # A 1 x 1 game, a game of one row and of one column, a game whose zero rows
    # have -0.0 rhs, and Beale's cycling example, which reaches the Bland
    # fallback.
    zero_rhs = _game_lp(np.array([[0.3, 0.5], [0.6, 0.1]]))
    for prog in (
        _game_lp(np.array([[0.5]])),
        _game_lp(np.array([[0.5, -0.5, 0.2]])),
        _game_lp(np.array([[0.5], [-0.5], [0.2]])),
        LinearProgram(c=zero_rhs.c, A_ub=zero_rhs.A_ub, b_ub=-zero_rhs.b_ub, A_eq=zero_rhs.A_eq),
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
            _same_as_rowwise(prog)


# -- Resuming a solved tableau ---------------------------------------------------


def _columns(prog: LinearProgram, cols) -> LinearProgram:
    """``prog`` restricted to structural columns ``cols``, in that order."""
    return LinearProgram(c=prog.c[cols], A_ub=prog.A_ub[:, cols], b_ub=prog.b_ub,
                         A_eq=prog.A_eq[:, cols])


def _rows_of(prog: LinearProgram, j: int) -> np.ndarray:
    """Column ``j`` of the program's rows: ``A_ub`` rows, then the equality row."""
    return np.append(prog.A_ub[:, j], prog.A_eq[0, j])


def test_added_columns_resume_to_the_cold_optimum():
    # Solve a game over some of its rows, then insert the others one at a
    # time at random positions among them, resuming after each: every
    # resumed solve must reach a cold solve's value and count its own pivots.
    rng = np.random.default_rng(15)
    resumed = moved = 0
    pivot = lp_module._pivot
    calls = []

    def spy(state, i, q):
        calls.append(q)
        pivot(state, i, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_pivot", spy)
        for trial in range(400):
            prog = _game_lp(_random_game(rng, GAME_KINDS[trial % 4], 9, 9))
            n = len(prog.c) - 1  # the rows; column n is the value
            order = [int(j) for j in rng.permutation(n)]
            k = int(rng.integers(1, n + 1))
            cols = order[:k] + [n]
            state = lp_solve(_columns(prog, cols)).tableau
            for j in order[k:]:
                at = int(rng.integers(0, len(cols)))
                state.add_column(_rows_of(prog, j), prog.c[j], at)
                cols.insert(at, j)
                del calls[:]
                sol = state.optimize()
                assert sol.pivots == len(calls)
                sub = _columns(prog, cols)
                ref = lp_solve(sub)
                assert sol.x[-1] == pytest.approx(ref.x[-1], abs=1e-9), trial
                resumed += 1
                moved += sol.pivots > 0
                assert np.all(sol.x >= 0.0)
                assert np.all(sub.A_ub @ sol.x <= sub.b_ub + 1e-7)
                assert abs(float(sub.A_eq[0] @ sol.x) - 1.0) <= 1e-7
    assert resumed >= 600 and moved >= 200


def test_columns_added_to_the_starting_basis_resume_bit_for_bit():
    # The one-pivot start leaves x_0 basic and every slack; so does a solve
    # of the program over x_0 alone.  Adding every other column in order and
    # resuming once must take the cold solve's pivots, bit for bit, and agree
    # with the two-phase reference; on Beale's example the resumed solve
    # crosses the Bland switch.
    rng = np.random.default_rng(16)
    programs = [BEALE] + [_game_lp(_random_game(rng, GAME_KINDS[t % 4])) for t in range(80)]
    rules = []
    pivot = lp_module._pivot

    def spy(state, i, q):
        rules.append(state.bland)
        pivot(state, i, q)

    for prog in programs:
        n = len(prog.c)
        state = lp_solve(_columns(prog, [0])).tableau
        for j in range(1, n):
            state.add_column(_rows_of(prog, j), prog.c[j], j)
        del rules[:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module, "_pivot", spy)
            got = state.optimize()
        _assert_bit_equal(got, lp_solve(prog))
        _assert_bit_equal(got, rowwise_lp_solve(prog), start_pivots=1)
        if prog is BEALE:
            assert rules[-1] and not rules[0]
            # The next resumed solve starts from Dantzig's rule and no pivots.
            state.add_column(np.zeros(4), -1.0, n)
            again = state.optimize()
            assert again.pivots == 0 and not state.bland and state.degenerate == 0
            assert again.x[:n].tobytes() == got.x.tobytes()
