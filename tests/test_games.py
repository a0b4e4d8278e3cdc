import dataclasses

import numpy as np
import pytest

from alarmpatrol import RowGame, games
from alarmpatrol.games import VALUE_TOL, normalized
from alarmpatrol.lp import lp_solve
from helpers import support_enumeration_value


def test_matching_pennies_protection_game():
    # r1 protects t1 only, r2 protects t2 only, both values 1: the fair coin
    # is the unique equilibrium with value 1/2 (closed-form LP solution).
    x, y, value = RowGame(np.array([[1.0, 0.0], [0.0, 1.0]])).solve()
    assert value == pytest.approx(0.5, abs=1e-9)
    assert x[0] == pytest.approx(0.5, abs=1e-9)
    assert y[1] == pytest.approx(0.5, abs=1e-9)


def test_dominant_row():
    x, _, value = RowGame(np.array([[1.0, 1.0, 1.0], [0.2, 0.9, 0.4]])).solve()
    assert value == pytest.approx(1.0, abs=1e-9)
    assert x.tolist() == [1.0, 0.0]


def test_random_games_match_support_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(60):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        U = rng.uniform(0.0, 1.0, (rows, cols))
        _, _, value = RowGame(U).solve()
        assert value == pytest.approx(support_enumeration_value(U), abs=1e-6)


def test_duality_gap_small():
    rng = np.random.default_rng(5)
    for _ in range(30):
        U = rng.uniform(0, 1, (5, 5))
        x, y, value = RowGame(U).solve()
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
        RowGame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])).solve()


def test_scaling_payoffs():
    rng = np.random.default_rng(9)
    U = rng.uniform(0, 1, (4, 4))
    x1, y1, v1 = RowGame(U).solve()
    x2, y2, v2 = RowGame(3.0 * U).solve()
    assert v2 == pytest.approx(3.0 * v1, abs=1e-7)
    assert np.array_equal(x1 > 0.0, x2 > 0.0)
    assert np.array_equal(y1 > 0.0, y2 > 0.0)


def test_strategy_cleanup():
    x = normalized([0.5, 1e-12, 0.5])
    assert x.tolist() == [0.5, 0.0, 0.5]
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        normalized([0.0])


def test_row_support_no_larger_than_columns():
    # Positive payoffs keep the value variable basic, so the returned basic
    # solution can spread over at most one row per column constraint.
    rng = np.random.default_rng(21)
    for _ in range(20):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(1, 5))
        U = rng.uniform(0.01, 1, (rows, cols))
        x, _, _ = RowGame(U).solve()
        assert np.count_nonzero(x) <= cols


def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        RowGame(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        RowGame(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        RowGame(np.ones(3))


def _assert_certified(U, x, y, value):
    """Both strategies guarantee ``value`` within ``VALUE_TOL`` on ``U``."""
    assert x.shape == (len(U),) and y.shape == (U.shape[1],)
    assert x.sum() == pytest.approx(1.0) and y.sum() == pytest.approx(1.0)
    assert (x @ U).min() >= value - VALUE_TOL
    assert (U @ y).max() <= value + VALUE_TOL


def test_row_game_matches_cold_solves_as_rows_grow(monkeypatch):
    # Payoffs from a few levels give tied rows, repeated rows and degenerate
    # pivots; a third of the games have a level below their starting rows'
    # minimum, which the fixed shift must absorb.  After every added row the
    # resumed value equals a cold solve over the same rows.
    rng = np.random.default_rng(31)
    cold_solves = []
    real = games.lp_solve

    def spy(prog):
        cold_solves.append(prog)
        return real(prog)

    monkeypatch.setattr(games, "lp_solve", spy)
    resumed = repeats = below_shift = 0
    for trial in range(240):
        levels = rng.choice([0.0, 0.2, 0.25, 0.5, 0.7, 1.0], int(rng.integers(2, 4)), replace=False)
        n_cols = int(rng.integers(1, 9))
        start = int(rng.integers(1, 4))
        U = rng.choice(levels, (start, n_cols))
        if trial % 3 == 0:
            levels = np.append(levels, -0.5)
        game = RowGame(U)
        for k in range(int(rng.integers(4, 16))):
            if k:
                if rng.random() < 0.2:
                    u = U[int(rng.integers(0, len(U)))]
                    repeats += 1
                else:
                    u = rng.choice(levels, n_cols)
                below_shift += u.min() < game.shift
                U = np.vstack([U, u])
                game.add_row(u)
                resumed += 1
            del cold_solves[:]
            x, y, value = game.solve()
            assert len(cold_solves) == (k == 0)
            _, _, ref = RowGame(U).solve()
            assert abs(value - ref) <= 1e-12, trial
            _assert_certified(U, x, y, value)
    assert resumed >= 1500 and repeats >= 200 and below_shift >= 100


def test_row_game_solves_to_arrays_and_rejects_bad_rows():
    game = RowGame(np.array([[1.0, 0.0]]))
    game.solve()
    game.add_row(np.array([0.0, 1.0]))
    x, y, value = game.solve()
    assert value == pytest.approx(0.5)
    assert x == pytest.approx([0.5, 0.5]) and y == pytest.approx([0.5, 0.5])
    for bad in (np.array([1.0]), np.array([np.nan, 1.0]), np.ones((1, 2))):
        with pytest.raises(ValueError):
            game.add_row(bad)
