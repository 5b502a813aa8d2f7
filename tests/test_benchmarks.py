import numpy as np
import pytest

from opcast import (ConfigurationError, DimensionError, FittingError,
                    fit_varx, predict_varx)

from oracles import fit_varx_pairs, predict_varx_row


def _simulate_varx(rng, n, intercept, phi, beta, noise=0.1):
    """Draw from a known VARX(q) with i.i.d. N(0,1) exogenous inputs."""
    m = len(intercept)
    q = len(phi)
    g_dim = np.asarray(beta).shape[1]
    ys = [np.zeros(m) for _ in range(q)]
    pairs = [(ys[j], np.zeros(g_dim)) for j in range(q)]
    for _ in range(n):
        g = rng.normal(size=g_dim)
        y = np.asarray(intercept, dtype=float).copy()
        for j in range(q):
            y = y + np.asarray(phi[j]) @ pairs[-1 - j][0]
        y = y + np.asarray(beta) @ g + noise * rng.normal(size=m)
        pairs.append((y, g))
    return pairs[q:] if q else pairs


def _arrays(pairs):
    """The ``(n, m)`` responses and ``(n, g)`` exogenous rows of ``pairs``."""
    return np.array([y for y, _ in pairs]), np.array([g for _, g in pairs])


class TestVarxFit:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(17)
        intercept = [1.0, -0.5]
        phi = [np.array([[0.5, 0.1], [0.0, 0.4]])]
        beta = np.array([[0.8], [-0.3]])
        pairs = _simulate_varx(rng, 3000, intercept, phi, beta, noise=0.05)
        model = fit_varx(*_arrays(pairs), q=1)
        np.testing.assert_allclose(model.intercept, intercept, atol=0.02)
        np.testing.assert_allclose(model.phi[0], phi[0], atol=0.02)
        np.testing.assert_allclose(model.beta, beta, atol=0.02)
        np.testing.assert_allclose(model.sigma_eta,
                                   0.05 ** 2 * np.eye(2), atol=5e-4)

    def test_exact_data_gives_exact_fit(self):
        rng = np.random.default_rng(18)
        phi = [np.array([[0.6]])]
        pairs = _simulate_varx(rng, 200, [2.0], phi, np.array([[1.5]]),
                               noise=0.0)
        model = fit_varx(*_arrays(pairs), q=1)
        assert model.intercept[0] == pytest.approx(2.0, abs=1e-9)
        assert model.phi[0][0, 0] == pytest.approx(0.6, abs=1e-9)
        assert model.sigma_eta[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(19)
        pairs = _simulate_varx(rng, 300, [0.5], [np.array([[0.7]])],
                               np.array([[0.2]]))
        model = fit_varx(*_arrays(pairs), q=1)
        ys = np.array([y for y, _ in pairs])
        X = np.column_stack([np.ones(len(pairs) - 1), ys[:-1],
                             [g for _, g in pairs[1:]]])
        coef = np.concatenate([model.intercept, model.phi[0][0],
                               model.beta[0]])
        resid = ys[1:, 0] - X @ coef
        assert np.abs(X.T @ resid).max() < 1e-8 * np.abs(X).max() * \
            np.abs(ys).max() * len(pairs)

    def test_dof_denominator(self):
        # tiny exact case solved by hand: n_rows - p_cols in the divisor
        pairs = [(np.array([v]), np.array([gv])) for v, gv in
                 [(0.0, 0.0), (1.0, 1.0), (3.0, 0.0), (2.0, 1.0),
                  (5.0, 0.5), (1.5, 0.2), (4.0, 0.9)]]
        model = fit_varx(*_arrays(pairs), q=1)
        ys = np.array([y[0] for y, _ in pairs])
        X = np.column_stack([np.ones(6), ys[:-1],
                             [g[0] for _, g in pairs[1:]]])
        coef, _, _, _ = np.linalg.lstsq(X, ys[1:], rcond=None)
        resid = ys[1:] - X @ coef
        expected = resid @ resid / (6 - 3)
        assert model.sigma_eta[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_rank_deficiency_names_columns(self):
        # a constant exogenous column duplicates the intercept
        rng = np.random.default_rng(20)
        pairs = [(rng.normal(size=1), np.array([1.0])) for _ in range(50)]
        with pytest.raises(FittingError) as err:
            fit_varx(*_arrays(pairs), q=0)
        assert "const" in str(err.value) and "g[0]" in str(err.value)

    def test_too_few_rows(self):
        pairs = [(np.zeros(2), np.zeros(1))] * 5
        with pytest.raises(FittingError, match="observations"):
            fit_varx(*_arrays(pairs), q=1)

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            fit_varx(np.zeros((0, 1)), np.zeros((0, 1)), q=1)
        with pytest.raises(ConfigurationError):
            fit_varx(np.zeros((1, 1)), np.zeros((1, 1)), q=-1)
        with pytest.raises(DimensionError):
            fit_varx(np.zeros((2, 2)), np.zeros((3, 1)), q=0)

    def test_a_boolean_is_not_a_lag_order(self):
        rng = np.random.default_rng(25)
        y, g = rng.normal(size=(50, 2)), rng.normal(size=(50, 1))
        with pytest.raises(ConfigurationError, match="lag order must be a non-negative "
                                                     "integer, got True"):
            fit_varx(y, g, True)

    def test_q_zero_is_regression_on_exogenous_only(self):
        rng = np.random.default_rng(24)
        pairs = []
        for _ in range(200):
            g = rng.normal(size=2)
            pairs.append((np.array([1.0 + 2.0 * g[0] - g[1]]), g))
        model = fit_varx(*_arrays(pairs), q=0)
        assert model.phi == ()
        np.testing.assert_allclose(model.beta, [[2.0, -1.0]], atol=1e-9)
        np.testing.assert_allclose(model.intercept, [1.0], atol=1e-9)


class TestVarxPredict:
    def test_one_step_mean(self):
        model = fit_varx(*_arrays(_simulate_varx(np.random.default_rng(25), 500,
                                                 [1.0], [np.array([[0.5]])],
                                                 np.array([[2.0]]))), q=1)
        y_hat, cov = predict_varx(model, [np.array([[3.0]])], [[0.5]])
        expected = model.intercept + model.phi[0] @ np.array([3.0]) \
            + model.beta @ np.array([0.5])
        np.testing.assert_allclose(y_hat[0], expected)
        np.testing.assert_array_equal(cov, model.sigma_eta)

    def test_lag_ordering_most_recent_first(self):
        rng = np.random.default_rng(26)
        phi = [np.array([[0.7]]), np.array([[-0.3]])]
        pairs = _simulate_varx(rng, 2000, [0.0], phi, np.array([[1.0]]),
                               noise=0.01)
        model = fit_varx(*_arrays(pairs), q=2)
        y_hat, _ = predict_varx(model, [np.array([[1.0]]), np.array([[0.0]])],
                                [[0.0]])
        assert y_hat[0, 0] == pytest.approx(0.7, abs=0.02)
        y_hat, _ = predict_varx(model, [np.array([[0.0]]), np.array([[1.0]])],
                                [[0.0]])
        assert y_hat[0, 0] == pytest.approx(-0.3, abs=0.02)

    def test_dimension_checks(self):
        model = fit_varx(*_arrays(_simulate_varx(np.random.default_rng(27), 100,
                                                 [0.0], [np.array([[0.5]])],
                                                 np.array([[1.0]]))), q=1)
        with pytest.raises(DimensionError):
            predict_varx(model, [], [[0.0]])
        with pytest.raises(DimensionError):
            predict_varx(model, [np.zeros((1, 2))], [[0.0]])
        with pytest.raises(DimensionError):
            predict_varx(model, [np.zeros((1, 1))], [[0.0, 1.0]])
        with pytest.raises(DimensionError):  # one lag row per forecast row
            predict_varx(model, [np.zeros((2, 1))], [[0.0]])


def _random_design(rng, n, m, g_dim):
    return rng.normal(size=(n, m)), rng.normal(size=(n, g_dim))


class TestVarxAgainstRowOracle:
    """The array forms against the pair fit and one-row forecast they replace."""

    @pytest.mark.parametrize("q", range(6))
    @pytest.mark.parametrize("m", [1, 2])
    def test_fit_is_bitwise_the_pair_fit(self, q, m):
        rng = np.random.default_rng(10 * q + m)
        y, g = _random_design(rng, 60 + 7 * q, m, 3)
        got, expected = fit_varx(y, g, q), fit_varx_pairs(list(zip(y, g)), q)
        assert got.q == expected.q
        for name in ("intercept", "beta", "sigma_eta"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name
        assert len(got.phi) == q
        assert all(np.array_equal(a, b) for a, b in zip(got.phi, expected.phi))

    @pytest.mark.parametrize("y, g, q", [
        (np.zeros((0, 2)), np.zeros((0, 1)), 1),                        # empty
        (np.ones((9, 1)), np.ones((9, 1)), -1),                         # lag order
        (np.ones((9, 1)), np.ones((9, 1)), 1.5),
        (np.array([[1.0], [np.nan]] * 5), np.ones((10, 1)), 0),        # y not finite
        (np.ones((10, 1)), np.array([[1.0], [np.inf]] * 5), 0),        # g not finite
        (np.zeros((5, 2)), np.zeros((5, 1)), 1),                        # too few rows
        (np.arange(50.0)[:, None] ** 0.5, np.ones((50, 1)), 0),         # collinear
    ])
    def test_refuses_what_the_pair_fit_refuses(self, y, g, q):
        with pytest.raises(Exception) as expected:
            fit_varx_pairs(list(zip(y, g)), q)
        with pytest.raises(type(expected.value)) as got:
            fit_varx(y, g, q)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("y, g", [(np.ones(9), np.ones((9, 1))),   # not (n, m)
                                      (np.ones((9, 1)), np.ones((8, 1)))])  # rows differ
    def test_refuses_rows_that_do_not_pair_up(self, y, g):
        with pytest.raises(DimensionError, match="inconsistent dimensions"):
            fit_varx(y, g, 0)

    @pytest.mark.parametrize("q", range(6))
    @pytest.mark.parametrize("m", [1, 2])
    def test_batched_forecast_is_bitwise_the_row_forecast(self, q, m):
        rng = np.random.default_rng(100 + 10 * q + m)
        for _ in range(20):
            g_dim = int(rng.integers(1, 6))
            model = fit_varx(*_random_design(rng, 40 + 7 * q, m, g_dim), q)
            lags = [rng.normal(size=(30, m)) * 10.0 ** rng.integers(-3, 4) for _ in range(q)]
            g = rng.normal(size=(30, g_dim))
            y_hat, sigma = predict_varx(model, lags, g)
            assert y_hat.shape == (30, m)
            assert np.array_equal(sigma, model.sigma_eta) and sigma is not model.sigma_eta
            for r in range(30):
                expected, _ = predict_varx_row(model, [lag[r] for lag in lags], g[r])
                assert np.array_equal(y_hat[r], expected), r
