import numpy as np
import pytest

from alarmpatrol import (
    GeneratorParams,
    LinearProgram,
    all_pairs_distances,
    enumerate_placements,
    games,
    generate_instance,
    lp_solve,
    min_cover,
    oracles,
    pc_sro,
)
from alarmpatrol import lp as lp_module
from helpers import dense_pivot, routes_for

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
    assert (got.status, got.pivots) == (ref.status, ref.pivots)
    if ref.status == "optimal":
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.duals.tobytes() == ref.duals.tobytes()
        assert got.objective == ref.objective
    return got


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


@pytest.mark.parametrize("n_targets, seed", [(150, 11), (100, 42)])
def test_pivot_matches_dense_update_on_pc_and_nc_lps(n_targets, seed, monkeypatch):
    # The response LPs and NC games PC solves at the generator instance's
    # first placement, as ``resolve`` picks it.
    setting, alarm = generate_instance(GeneratorParams(n_targets=n_targets, seed=seed))
    dist = all_pairs_distances(setting)
    cover = min_cover(setting, dist).placement
    placement = next(enumerate_placements(setting, dist, len(cover.positions), initial=cover))
    (signal,) = alarm.signals
    sets = routes_for(setting, dist, placement.positions, alarm.signal_support(signal))
    programs = []

    def record(prog):
        programs.append(prog)
        return lp_solve(prog)

    monkeypatch.setattr(oracles, "lp_solve", record)
    monkeypatch.setattr(games, "lp_solve", record)
    pc_sro(sets, setting)
    monkeypatch.undo()
    responses = sum(prog.c[-1] < 0.0 for prog in programs)  # NC games maximize +v
    assert responses >= 2 and len(programs) > responses
    for prog in programs:
        assert _same_as_dense_pivot(prog).status == "optimal"
