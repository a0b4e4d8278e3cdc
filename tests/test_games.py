import dataclasses

import numpy as np
import pytest

from alarmpatrol import MatrixGame, MixedStrategy, games, lp_solve, solve_zero_sum
from helpers import support_enumeration_value


def test_matching_pennies_protection_game():
    # r1 protects t1 only, r2 protects t2 only, both values 1: the fair coin
    # is the unique equilibrium with value 1/2 (closed-form LP solution).
    game = MatrixGame(np.array([[1.0, 0.0], [0.0, 1.0]]))
    row, col, value = solve_zero_sum(game)
    assert value == pytest.approx(0.5, abs=1e-9)
    assert row.prob(0) == pytest.approx(0.5, abs=1e-9)
    assert col.prob(1) == pytest.approx(0.5, abs=1e-9)


def test_dominant_row():
    game = MatrixGame(np.array([[1.0, 1.0, 1.0], [0.2, 0.9, 0.4]]))
    row, _, value = solve_zero_sum(game)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert row.probs == {0: 1.0}


def test_random_games_match_support_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(60):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        U = rng.uniform(0.0, 1.0, (rows, cols))
        _, _, value = solve_zero_sum(MatrixGame(U))
        assert value == pytest.approx(support_enumeration_value(U), abs=1e-6)


def test_duality_gap_small():
    rng = np.random.default_rng(5)
    for _ in range(30):
        U = rng.uniform(0, 1, (5, 5))
        row, col, value = solve_zero_sum(MatrixGame(U))
        x = np.array([row.prob(i) for i in range(5)])
        y = np.array([col.prob(j) for j in range(5)])
        # Guarantees of the two strategies straddle the value.
        assert (x @ U).min() >= value - 1e-7
        assert (U @ y).max() <= value + 1e-7


@pytest.mark.parametrize(
    "changes",
    [
        {"duals": np.array([1.0, 0.0, 0.0])},
        {"duals": np.zeros(3)},
        {"duals": np.ones(3)},
        {"x": np.array([1.0, 0.0, 0.5])},
    ],
)
def test_corrupted_solution_fails_the_certificate(monkeypatch, changes):
    # The maxmin of this game is (1/2, 1/2) and the minmax (1/2, 1/2, 0), with
    # value 1/2; each corrupted strategy lets the other player beat the value,
    # or carries no weight at all.
    def corrupt(lp):
        return dataclasses.replace(lp_solve(lp), **changes)

    monkeypatch.setattr(games, "lp_solve", corrupt)
    with pytest.raises(ArithmeticError):
        solve_zero_sum(MatrixGame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])))


def test_scaling_payoffs():
    rng = np.random.default_rng(9)
    U = rng.uniform(0, 1, (4, 4))
    row1, col1, v1 = solve_zero_sum(MatrixGame(U))
    row2, col2, v2 = solve_zero_sum(MatrixGame(3.0 * U))
    assert v2 == pytest.approx(3.0 * v1, abs=1e-7)
    assert set(row1.probs) == set(row2.probs)
    assert set(col1.probs) == set(col2.probs)


def test_strategy_cleanup():
    sigma = MixedStrategy.from_weights(["a", "b", "c"], [0.5, 1e-12, 0.5])
    assert set(sigma.probs) == {"a", "c"}
    assert sum(sigma.probs.values()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        MixedStrategy.from_weights(["a"], [0.0])


def test_row_support_no_larger_than_columns():
    # Positive payoffs keep the value variable basic, so the returned basic
    # solution can spread over at most one row per column constraint.
    rng = np.random.default_rng(21)
    for _ in range(20):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(1, 5))
        U = rng.uniform(0.01, 1, (rows, cols))
        row, _, _ = solve_zero_sum(MatrixGame(U))
        assert len(row.probs) <= cols


def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        MatrixGame(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        MatrixGame(np.array([[np.nan]]))
