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
    sol = lp_solve(
        LinearProgram(
            c=np.array([1.0]),
            A_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([0.0, -1.0]),
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


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        lp_solve(LinearProgram(c=np.array([np.inf])))


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
    """Small LP of one of four kinds.

    The feasible kinds are built around a point x0 >= 0, so many of their
    rows have a negative rhs, and are capped by sum(x) <= n.
    """
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    c = rng.uniform(-1.0, 1.0, n)
    if kind == "general":
        A = rng.uniform(-1.0, 1.0, (m, n))
        b = A @ rng.uniform(0.0, 1.0, n) + rng.uniform(0.0, 0.3, m)
    elif kind == "degenerate":
        # Small integers, tight at an integer x0 and with a repeated row, give
        # ties and degenerate vertices.
        A = rng.integers(-2, 3, (m, n)).astype(float)
        b = A @ rng.integers(0, 2, n)
        A = np.vstack([A, A[:1]])
        b = np.append(b, b[0])
    elif kind == "infeasible":
        # x_0 <= 1 and x_0 >= 2 written as -x_0 <= -2.
        A = rng.uniform(-1.0, 1.0, (m, n))
        b = rng.uniform(-0.5, 1.0, m)
        A = np.vstack([A, np.eye(n)[0], -np.eye(n)[0]])
        b = np.append(b, [1.0, -2.0])
    else:  # unbounded: x_0 enters no row and is rewarded
        A = rng.uniform(-1.0, 1.0, (m, n))
        A[:, 0] = -np.abs(A[:, 0])
        b = rng.uniform(-0.5, 1.0, m)
        c[0] = 1.0
    if kind in ("general", "degenerate"):
        A = np.vstack([A, np.ones(n)])
        b = np.append(b, float(n))
    return LinearProgram(c=c, A_ub=A, b_ub=b)


def test_matches_highs_with_duals_certifying_optimality():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2024)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    negative_rhs = 0
    for trial in range(300):
        lp = _random_lp(rng, ("general", "degenerate", "infeasible", "unbounded")[trial % 4])
        ref = optimize.linprog(-lp.c, A_ub=lp.A_ub, b_ub=lp.b_ub, method="highs")
        if ref.status == 0:
            status = "optimal"
        else:
            # HiGHS may report an unbounded LP as infeasible, or as "infeasible
            # or unbounded"; a zero objective tells the two apart.
            zero = optimize.linprog(0 * lp.c, A_ub=lp.A_ub, b_ub=lp.b_ub, method="highs")
            status = "unbounded" if zero.status == 0 else "infeasible"
        sol = lp_solve(lp)
        assert sol.status == status, trial
        seen[sol.status] += 1
        if sol.status != "optimal":
            assert sol.duals is None
            continue
        negative_rhs += bool((lp.b_ub < 0).any())
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)
        y = sol.duals
        assert y.shape == lp.b_ub.shape
        assert np.all(y >= -1e-9)
        assert np.all(lp.A_ub.T @ y >= lp.c - 1e-9)
        assert abs(lp.b_ub @ y - lp.c @ sol.x) <= 1e-9
    assert seen["optimal"] >= 100 and min(seen.values()) >= 50
    assert negative_rhs >= 100


def test_duals_of_negated_rows():
    # maximize x0 + x1  s.t.  x0 + 2 x1 <= 4,  -x0 <= -1 (x0 >= 1),
    # x0 <= 3: x = (3, 1/2), the first and third rows bind with duals 1/2 and
    # 1/2, and the negated row is slack.
    sol = lp_solve(
        LinearProgram(
            c=np.array([1.0, 1.0]),
            A_ub=np.array([[1.0, 2.0], [-1.0, 0.0], [1.0, 0.0]]),
            b_ub=np.array([4.0, -1.0, 3.0]),
        )
    )
    assert sol.x == pytest.approx([3.0, 0.5])
    assert sol.duals == pytest.approx([0.5, 0.0, 0.5])


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
    """Feasible, bounded LP with "ge", "eq" and redundant rows.

    Sparse small-integer rows through an integer point x0 >= 0 give pivot
    rows with many zero columns, ties and degenerate vertices; the last
    equality row is the sum of two others.
    """
    n = int(rng.integers(3, 10))
    x0 = rng.integers(0, 3, n)
    A = rng.integers(-3, 4, (int(rng.integers(2, 8)), n)) * (rng.random((1, n)) < 0.6)
    b = A @ x0 + rng.integers(0, 2, len(A))
    E = rng.integers(-2, 3, (int(rng.integers(2, 4)), n)) * (rng.random((1, n)) < 0.6)
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
    negative_rhs = optimal = 0
    for trial in range(300):
        if trial % 3:
            prog = _mixed_lp(rng)
        else:
            kind = ("general", "degenerate", "infeasible", "unbounded")[trial // 3 % 4]
            prog = _random_lp(rng, kind)
        sol = _same_as_dense_pivot(prog)
        negative_rhs += bool((prog.b_ub < 0).any())
        optimal += sol.status == "optimal"
    assert optimal >= 200 and negative_rhs >= 150


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
    placement, as ``resolve`` picks it: one list per oracle."""
    setting, alarm = generate_instance(GeneratorParams(n_targets=n_targets, seed=seed))
    dist = all_pairs_distances(setting)
    cover = min_cover(setting, dist).placement
    placement = next(enumerate_placements(setting, dist, len(cover.positions), initial=cover))
    (signal,) = alarm.signals
    sets = routes_for(setting, dist, placement.positions, alarm.signal_support(signal))
    programs = []

    def record(prog):
        programs[-1].append(prog)
        return lp_solve(prog)

    monkeypatch.setattr(oracles, "lp_solve", record)
    monkeypatch.setattr(games, "lp_solve", record)
    for sro in sros:
        programs.append([])
        sro(sets, setting)
    monkeypatch.undo()
    return programs


@pytest.mark.parametrize("n_targets, seed", [(150, 11), (100, 42)])
def test_pivot_matches_dense_update_on_pc_and_nc_lps(n_targets, seed, monkeypatch):
    # The response LPs and NC games PC solves.
    (programs,) = _placement_lps(monkeypatch, n_targets, seed, (pc_sro,))
    responses = sum(prog.c[-1] < 0.0 for prog in programs)  # NC games maximize +v
    assert responses >= 2 and len(programs) > responses
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

    Inequality rows have positive, negative and -0.0 rhs, or there are none;
    equality rows have negative rhs and the last is the sum of two others, so
    a feasible program keeps an artificial basic after phase 1 and drops its
    row.  A shifted rhs can make the rows contradict, and without the cap on
    sum(x) the objective can grow without bound.
    """
    n = int(rng.integers(2, 8))
    x0 = rng.integers(0, 3, n)
    E = rng.integers(-2, 3, (int(rng.integers(2, 4)), n))
    E = np.vstack([E, E[0] + E[1]]) * rng.choice([-1, 1], (len(E) + 1, 1))
    prog = {"c": rng.integers(-3, 4, n).astype(float), "A_eq": E.astype(float),
            "b_eq": (E @ x0).astype(float)}
    if rng.random() < 0.75:
        A = rng.integers(-3, 4, (int(rng.integers(1, 7)), n)) * (rng.random((1, n)) < 0.7)
        b = (A @ x0 + rng.integers(-1, 2, len(A))).astype(float)
        b[rng.random(len(b)) < 0.3] = -0.0
        if rng.random() < 0.5:
            A = np.vstack([A, np.ones(n)])
            b = np.append(b, 3.0 * n)
        prog.update(A_ub=A.astype(float), b_ub=b)
    return LinearProgram(**prog)


def _negated_rows_lp(rng):
    """Bounded LP whose many float rows mostly have a negative rhs.

    Phase 1's row then sums 8 or more artificial rows whose entries round,
    so the order of that sum shows in the last bits.  One program in five
    asks a positive row to sum to -1, which no x >= 0 meets.
    """
    n = int(rng.integers(3, 9))
    A = rng.uniform(-1.0, 0.5, (int(rng.integers(10, 25)), n))
    b = A @ rng.uniform(0.0, 1.0, n) + rng.uniform(0.0, 0.2, len(A))
    return LinearProgram(
        c=rng.uniform(-1.0, 1.0, n),
        A_ub=np.vstack([A, np.ones(n)]),
        b_ub=np.append(b, float(n)),
        A_eq=rng.uniform(0.5, 1.0, (1, n)),
        b_eq=np.array([-1.0]) if rng.random() < 0.2 else np.array([1.0]),
    )


def test_masked_tableau_matches_rowwise_build_on_random_lps():
    rng = np.random.default_rng(14)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    zero_rhs = negative_rhs = negative_eq_rhs = no_ub = 0
    for trial in range(800):
        if trial % 4 == 0:
            prog = _random_lp(rng, ("general", "degenerate", "infeasible", "unbounded")[trial // 4 % 4])
        elif trial % 4 == 1:
            prog = _mixed_lp(rng)
        elif trial % 4 == 2:
            prog = _row_kinds_lp(rng)
        else:
            prog = _negated_rows_lp(rng)
        seen[_same_as_rowwise(prog).status] += 1
        if prog.A_ub is None:
            no_ub += 1
        else:
            zero_rhs += bool(np.signbit(prog.b_ub[prog.b_ub == 0.0]).any())
            negative_rhs += bool((prog.b_ub < 0).any())
        negative_eq_rhs += prog.A_eq is not None and bool((prog.b_eq < 0).any())
    assert min(seen.values()) >= 60, seen
    assert min(zero_rhs, negative_rhs, negative_eq_rhs, no_ub) >= 30


def test_masked_tableau_matches_rowwise_build_on_edge_programs():
    # No rows at all; only -0.0 rhs, which are not negated, so phase 1 never
    # runs; and Beale's cycling example, which reaches the Bland fallback.
    for prog in (
        LinearProgram(c=np.array([0.0, -1.0])),
        LinearProgram(c=np.array([1.0])),
        LinearProgram(c=np.array([1.0, 1.0]), A_ub=np.array([[1.0, 0.0], [0.0, 1.0]]),
                      b_ub=np.array([-0.0, -0.0])),
        BEALE,
    ):
        _same_as_rowwise(prog)


def test_masked_tableau_matches_rowwise_build_on_oracle_lps(monkeypatch):
    per_oracle = _placement_lps(monkeypatch, 25, 0, (nc_sro, pc_sro, fc_sro))
    assert min(map(len, per_oracle)) >= 1
    for prog in sum(per_oracle, []):
        assert _same_as_rowwise(prog).status == "optimal"
