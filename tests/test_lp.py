import numpy as np
import pytest

from alarmpatrol import LinearProgram, lp_solve


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
    # Classic cycling example for Dantzig's rule; the Bland fallback must
    # terminate at the optimum 1/20.
    c = np.array([0.75, -150.0, 0.02, -6.0])
    A = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    sol = lp_solve(LinearProgram(c=c, A_ub=A, b_ub=b))
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
