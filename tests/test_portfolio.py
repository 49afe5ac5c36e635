import math

import numpy as np
import pytest

from qsoftbayes import portfolio
from qsoftbayes.ensembles import make_rng, uniform_returns
from qsoftbayes.linalg import DomainError, ValidationError
from qsoftbayes.portfolio import (
    SolverError,
    _soft_bayes_lockstep,
    best_fixed_portfolio,
    learning_rate,
    ops_regret_bound,
    run_ops_game,
    soft_bayes_step,
    validate_return_stream,
    validate_returns,
)


class TestSoftBayesStep:

    def test_uniform_returns_are_a_fixed_point(self):
        w = np.array([0.5, 0.5])
        out = soft_bayes_step(w, np.ones(2), 0.3)
        assert np.array_equal(out, w)

    def test_hand_evaluated_step(self):
        out = soft_bayes_step(np.array([0.5, 0.5]), np.array([2.0, 0.0]), 0.5)
        assert np.allclose(out, [0.75, 0.25], atol=1e-15)

    def test_vertex_with_positive_return_is_absorbing(self):
        w = np.array([1.0, 0.0])
        out = soft_bayes_step(w, np.array([3.0, 5.0]), 0.5)
        assert np.array_equal(out, w)
        out = soft_bayes_step(w, np.array([3.0, 5.0]), 0.7)
        assert np.allclose(out, w, atol=1e-15)

    def test_simplex_preserved_without_renormalization(self):
        """Iterating thousands of steps must not drift off the simplex."""
        rng = make_rng(21)
        for dim in (2, 5):
            w = np.full(dim, 1.0 / dim)
            for _ in range(2000):
                w = soft_bayes_step(w, rng.random(dim), 0.1)
                assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-9

    def test_step_is_the_factor_form_bit_for_bit(self):
        rng = make_rng(27)
        for dim in (2, 3, 16, 33):
            for _ in range(50):
                w = rng.random(dim)
                w /= w.sum()
                a = rng.random(dim) * rng.integers(0, 2, dim)  # some returns are 0
                a[0] += 0.5
                eta = float(rng.uniform(0.001, 0.999))
                expected = w * ((1 - eta) + (eta / np.dot(a, w)) * a)
                assert soft_bayes_step(w, a, eta).tobytes() == expected.tobytes()

    def test_zero_return_coordinate_decays_exactly(self):
        w = np.array([0.25, 0.75])
        a = np.array([0.0, 2.0])
        out = soft_bayes_step(w, a, 0.4)
        assert out[0] == (1 - 0.4) * w[0]

    def test_eta_out_of_range(self):
        w = np.array([0.5, 0.5])
        for eta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                soft_bayes_step(w, np.ones(2), eta)

    def test_degenerate_return_rejected(self):
        with pytest.raises(DomainError) as err:
            soft_bayes_step(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert "degenerate" in str(err.value)


class TestLearningRate:

    def test_frozen_value(self):
        assert learning_rate(2, 100) == pytest.approx(0.05559745130606961, rel=1e-15)

    def test_eta_bar_identity_at_special_horizon(self):
        # horizon chosen so that rounds*dim = 4 log 2, giving eta/(1-eta) = 1/2
        eta = learning_rate(2, 2 * math.log(2))
        assert eta == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert eta / (1 - eta) == pytest.approx(0.5, rel=1e-14)

    def test_decreasing_in_horizon(self):
        rates = [learning_rate(4, T) for T in (1, 10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert 0 < rates[-1] < rates[0] < 1

    def test_degenerate_dimension(self):
        with pytest.raises(DomainError):
            learning_rate(1, 100)

    def test_bad_horizon(self):
        with pytest.raises(DomainError):
            learning_rate(2, 0)


class TestRegretBound:

    def test_frozen_values(self):
        assert ops_regret_bound(2, 8) == pytest.approx(7.353584069821527, rel=1e-15)
        assert ops_regret_bound(2, 1) == pytest.approx(3.0479672255908947, rel=1e-15)

    def test_increasing_in_horizon(self):
        values = [ops_regret_bound(2, T) for T in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_a_vector_of_horizons_gives_the_scalar_values(self, dim):
        horizons = np.arange(1, 5001)
        assert ops_regret_bound(dim, horizons).tolist() == \
            [ops_regret_bound(dim, t) for t in range(1, 5001)]

    def test_a_vector_with_a_horizon_below_one_is_refused(self):
        with pytest.raises(DomainError, match="rounds must be at least 1, got 0"):
            ops_regret_bound(2, np.arange(0, 4))


def portfolios(returns: np.ndarray, eta: float) -> np.ndarray:
    """The (T, D) portfolios a chain of `soft_bayes_step` announces, from uniform."""
    w = [np.full(returns.shape[1], 1.0 / returns.shape[1])]
    for a in returns[:-1]:
        w.append(soft_bayes_step(w[-1], a, eta))
    return np.array(w)


class TestRunOpsGame:

    def test_all_ones_stream_has_zero_loss(self):
        transcript = run_ops_game(np.ones((5, 3)), eta=0.2)
        assert np.array_equal(transcript.losses, np.zeros(5))
        assert np.array_equal(portfolios(np.ones((5, 3)), 0.2), np.full((5, 3), 1 / 3))

    def test_two_hand_evaluated_rounds(self):
        stream = np.array([[2.0, 0.0], [2.0, 0.0]])
        transcript = run_ops_game(stream, eta=0.5)
        assert np.allclose(portfolios(stream, 0.5), [[0.5, 0.5], [0.75, 0.25]], atol=1e-15)
        assert transcript.losses[0] == pytest.approx(0.0, abs=1e-15)
        assert transcript.losses[1] == pytest.approx(-0.4054651081081644, rel=1e-14)

    def test_transcript_equals_a_loop_of_the_step(self):
        returns = uniform_returns(make_rng(26), 300, 5)
        transcript = run_ops_game(returns)
        for t, (a, w) in enumerate(zip(returns, portfolios(returns, transcript.eta))):
            assert transcript.losses[t] == -math.log(float(np.dot(a, w)))

    @pytest.mark.parametrize("streams, eta", [(1, None), (3, None), (3, 0.3)])
    def test_lockstep_streams_equal_games_played_alone(self, streams, eta):
        stack = np.stack([uniform_returns(make_rng(seed), 257, 7) for seed in range(streams)])
        played, losses = _soft_bayes_lockstep(stack, eta)
        for s in range(streams):
            alone = run_ops_game(stack[s], eta)
            assert played == alone.eta
            assert losses[s].tobytes() == alone.losses.tobytes()
            chain = portfolios(stack[s], played)
            assert losses[s].tolist() == [-math.log(float(np.dot(a, w)))
                                          for a, w in zip(stack[s], chain)]

    @pytest.mark.parametrize("dim", [2, 3, 7, 16, 33])
    def test_vecdot_payoffs_equal_dot(self, dim):
        """The lockstep loop's stacked payoffs are `np.dot`'s, bit for bit."""
        rng = make_rng(dim)
        a, w = rng.random((4, 50, dim)), rng.random((4, dim))
        for t in range(50):
            stacked = np.vecdot(a[:, t], w)
            assert stacked.tolist() == [float(np.dot(a[s, t], w[s])) for s in range(4)]

    def test_zero_payoff_keeps_its_message(self):
        """eta = 0.999999 drives the second weight to 0 within 60 rounds of
        no return on it; the next round pays only on it."""
        stream = np.array([[0.5, 0.0]] * 60 + [[0.0, 1.0]])
        with pytest.raises(DomainError) as err:
            run_ops_game(stream, eta=0.999999)
        assert str(err.value) == "degenerate return: <a, w> = 0.0"

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.1, 1.5])
    def test_eta_out_of_range(self, eta):
        with pytest.raises(DomainError, match="eta"):
            run_ops_game(np.ones((4, 2)), eta=eta)

    def test_default_eta_is_the_tuned_rate(self):
        transcript = run_ops_game(np.ones((7, 4)))
        assert transcript.eta == learning_rate(4, 7)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValidationError):
            run_ops_game(np.ones((0, 3)))

    def test_invalid_round_reported_with_index(self):
        stream = np.ones((3, 2))
        stream[1] = 0.0
        with pytest.raises(ValidationError) as err:
            run_ops_game(stream)
        assert "round 2" in str(err.value)

    def test_regret_within_bound_on_random_streams(self):
        """Realized regret against the certified comparator stays below the
        worst-case guarantee when the tuned rate is used."""
        rng = make_rng(22)
        for dim in (2, 4, 8):
            for _ in range(4):
                returns = uniform_returns(rng, 200, dim)
                transcript = run_ops_game(returns)
                comp = best_fixed_portfolio(returns)
                regret = transcript.total_loss - comp.loss
                assert regret <= ops_regret_bound(dim, 200)


class TestValidateHelpers:

    def test_returns_checks(self):
        validate_returns(np.array([0.0, 2.0]))
        with pytest.raises(ValidationError):
            validate_returns(np.array([0.0, 0.0]))
        with pytest.raises(ValidationError):
            validate_returns(np.array([-1.0, 2.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="non-finite"):
                validate_returns(np.array([bad, 2.0]))


def per_row_validation(returns: np.ndarray) -> str | None:
    """Reference: `validate_returns` on each row in turn; the first error."""
    for t, row in enumerate(returns):
        try:
            validate_returns(row)
        except ValidationError as exc:
            return f"round {t + 1}: {exc}"
    return None


class TestValidateReturnStream:

    @pytest.mark.parametrize("bad_rows", [
        {}, {7: [0.0, 0.0, 0.0]}, {3: [0.5, -1e-300, 0.5], 9: [0.0, 0.0, 0.0]},
        {5: [np.nan, 1.0, 1.0]}, {2: [0.0, 0.0, 0.0], 4: [np.inf, 1.0, 1.0]},
        {0: [-0.0, 0.0, 0.0]},
    ], ids=["valid", "zero", "negative-first", "nan", "zero-before-inf", "negative-zeros"])
    def test_names_the_first_failing_round_as_the_per_row_check_does(self, bad_rows):
        returns = uniform_returns(make_rng(5), 12, 3)
        for t, row in bad_rows.items():
            returns[t] = row
        expected = per_row_validation(returns)
        if expected is None:
            assert validate_return_stream(returns) is not None
            return
        for consumer in (validate_return_stream, run_ops_game, best_fixed_portfolio):
            with pytest.raises(ValidationError) as err:
                consumer(returns)
            assert str(err.value) == expected

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 2, 2)])
    def test_rejects_a_stream_that_is_not_a_nonempty_table(self, shape):
        with pytest.raises(ValidationError, match="nonempty"):
            validate_return_stream(np.ones(shape))


class TestBestFixedPortfolio:

    def test_all_ones_is_solved_immediately(self):
        result = best_fixed_portfolio(np.ones((6, 3)))
        assert result.loss == pytest.approx(0.0, abs=1e-12)
        assert result.gap <= 1e-8
        assert (result.iterations, result.restarts, result.backtracks) == (0, 0, 0)

    def test_counts_restarts_and_backtracks(self, monkeypatch):
        """From the uniform start the unit step overshoots the vertex-heavy
        optimum: the solver halves it and restarts its momentum, and each
        halving or restart costs one more projection."""
        projections = []
        project = portfolio._simplex_projection
        monkeypatch.setattr(portfolio, "_simplex_projection",
                            lambda v: projections.append(v) or project(v))
        result = best_fixed_portfolio(np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 7))
        assert result.restarts >= 1 and result.backtracks >= 1
        assert result.iterations < len(projections) <= (
            result.iterations + result.restarts + result.backtracks)

    def test_bernoulli_closed_form(self):
        """Counts (3, 7) of the two vertices give weights (0.3, 0.7)."""
        returns = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 7)
        result = best_fixed_portfolio(returns)
        assert np.allclose(result.weights, [0.3, 0.7], atol=1e-6)
        assert result.loss == pytest.approx(6.108643020548935, abs=1e-8)

    def test_matches_dense_grid_search(self):
        """A 1e-3 simplex grid over D=3 cannot beat the solver by more than
        the grid resolution effect."""
        rng = make_rng(23)
        returns = uniform_returns(rng, 20, 3)
        result = best_fixed_portfolio(returns)
        step = 1e-3
        ticks = np.arange(0.0, 1.0 + step / 2, step)
        grid = []
        for w0 in ticks:
            w1 = np.arange(0.0, 1.0 - w0 + step / 2, step)
            w2 = 1.0 - w0 - w1
            grid.append(np.column_stack([np.full_like(w1, w0), w1, w2]))
        grid = np.vstack(grid)
        payoffs = grid @ returns.T
        feasible = payoffs.min(axis=1) > 0
        grid_best = float((-np.log(payoffs[feasible])).sum(axis=1).min())
        assert result.loss <= grid_best + 1e-12
        assert abs(result.loss - grid_best) <= 1e-4

    def test_iteration_cap_raises_with_best_gap(self):
        returns = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 7)
        with pytest.raises(SolverError) as err:
            best_fixed_portfolio(returns, tol=1e-12, max_iters=1)
        assert math.isfinite(err.value.gap)
        assert err.value.iterations == 1

    def test_rejects_zero_round(self):
        returns = np.ones((3, 2))
        returns[2] = 0.0
        with pytest.raises(ValidationError) as err:
            best_fixed_portfolio(returns)
        assert "round 3" in str(err.value)

    @pytest.mark.parametrize("tol, max_iters", [(1e-8, 50), (1e-10, 100)])
    def test_twenty_thousand_rounds_are_certified_in_few_steps(self, tol, max_iters):
        returns = uniform_returns(make_rng(0), 20000, 16)
        result = best_fixed_portfolio(returns, tol=tol, max_iters=max_iters)
        G = returns.T @ (1.0 / (returns @ result.weights))
        assert result.gap == float(G.max()) - 20000 <= tol
        assert result.loss == -float(np.log(returns @ result.weights).sum())
        assert np.all(result.weights >= 0.0)
        assert abs(float(result.weights.sum()) - 1.0) <= 1e-9

    def test_column_that_never_pays_gets_exactly_zero_weight(self):
        returns = uniform_returns(make_rng(24), 500, 5)
        returns[:, 2] = 0.0
        result = best_fixed_portfolio(returns)
        assert result.weights[2] == 0.0
        assert np.all(np.delete(result.weights, 2) > 0.0)
        assert result.gap <= 1e-8

    def test_dominating_column_gives_a_vertex_with_zero_gap(self):
        returns = uniform_returns(make_rng(25), 300, 4)
        returns[:, 1] = 1.5 * returns.max(axis=1)
        result = best_fixed_portfolio(returns)
        assert np.array_equal(result.weights, [0.0, 1.0, 0.0, 0.0])
        assert result.gap == 0.0
        assert result.loss == -float(np.log(returns[:, 1]).sum())

    def test_single_round_puts_all_weight_on_the_best_columns(self):
        result = best_fixed_portfolio(np.array([[0.3, 0.9, 0.2]]))
        assert np.array_equal(result.weights, [0.0, 1.0, 0.0])
        assert result.gap == 0.0
        assert result.loss == -math.log(0.9)
        tie = best_fixed_portfolio(np.array([[0.2, 0.2, 0.1]]))
        assert tie.weights[2] == 0.0 and tie.gap <= 1e-8
