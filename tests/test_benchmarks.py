import numpy as np
import pytest

from opcast import (ConfigurationError, DimensionError, FittingError,
                    NumericError, fit_varx, persistence_forecast, predict_varx)


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


class TestPersistence:
    def test_returns_copy_of_previous(self):
        prev = np.array([1.0, 2.0])
        out = persistence_forecast(prev)
        np.testing.assert_array_equal(out, prev)
        out[0] = 99.0
        assert prev[0] == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            persistence_forecast([np.nan])


class TestVarxFit:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(17)
        intercept = [1.0, -0.5]
        phi = [np.array([[0.5, 0.1], [0.0, 0.4]])]
        beta = np.array([[0.8], [-0.3]])
        pairs = _simulate_varx(rng, 3000, intercept, phi, beta, noise=0.05)
        model = fit_varx(pairs, q=1)
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
        model = fit_varx(pairs, q=1)
        assert model.intercept[0] == pytest.approx(2.0, abs=1e-9)
        assert model.phi[0][0, 0] == pytest.approx(0.6, abs=1e-9)
        assert model.sigma_eta[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(19)
        pairs = _simulate_varx(rng, 300, [0.5], [np.array([[0.7]])],
                               np.array([[0.2]]))
        model = fit_varx(pairs, q=1)
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
        model = fit_varx(pairs, q=1)
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
            fit_varx(pairs, q=0)
        assert "const" in str(err.value) and "g[0]" in str(err.value)

    def test_too_few_rows(self):
        pairs = [(np.zeros(2), np.zeros(1))] * 5
        with pytest.raises(FittingError, match="observations"):
            fit_varx(pairs, q=1)

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            fit_varx([], q=1)
        with pytest.raises(ConfigurationError):
            fit_varx([(np.zeros(1), np.zeros(1))], q=-1)
        bad = [(np.zeros(2), np.zeros(1)), (np.zeros(3), np.zeros(1))]
        with pytest.raises(DimensionError):
            fit_varx(bad, q=0)

    def test_q_zero_is_regression_on_exogenous_only(self):
        rng = np.random.default_rng(24)
        pairs = []
        for _ in range(200):
            g = rng.normal(size=2)
            pairs.append((np.array([1.0 + 2.0 * g[0] - g[1]]), g))
        model = fit_varx(pairs, q=0)
        assert model.phi == ()
        np.testing.assert_allclose(model.beta, [[2.0, -1.0]], atol=1e-9)
        np.testing.assert_allclose(model.intercept, [1.0], atol=1e-9)


class TestVarxPredict:
    def test_one_step_mean(self):
        model = fit_varx(_simulate_varx(np.random.default_rng(25), 500,
                                        [1.0], [np.array([[0.5]])],
                                        np.array([[2.0]])), q=1)
        y_hat, cov = predict_varx(model, [np.array([3.0])], [0.5])
        expected = model.intercept + model.phi[0] @ np.array([3.0]) \
            + model.beta @ np.array([0.5])
        np.testing.assert_allclose(y_hat, expected)
        np.testing.assert_array_equal(cov, model.sigma_eta)

    def test_lag_ordering_most_recent_first(self):
        rng = np.random.default_rng(26)
        phi = [np.array([[0.7]]), np.array([[-0.3]])]
        pairs = _simulate_varx(rng, 2000, [0.0], phi, np.array([[1.0]]),
                               noise=0.01)
        model = fit_varx(pairs, q=2)
        y_hat, _ = predict_varx(model, [np.array([1.0]), np.array([0.0])],
                                [0.0])
        assert y_hat[0] == pytest.approx(0.7, abs=0.02)
        y_hat, _ = predict_varx(model, [np.array([0.0]), np.array([1.0])],
                                [0.0])
        assert y_hat[0] == pytest.approx(-0.3, abs=0.02)

    def test_dimension_checks(self):
        model = fit_varx(_simulate_varx(np.random.default_rng(27), 100,
                                        [0.0], [np.array([[0.5]])],
                                        np.array([[1.0]])), q=1)
        with pytest.raises(DimensionError):
            predict_varx(model, [], [0.0])
        with pytest.raises(DimensionError):
            predict_varx(model, [np.zeros(2)], [0.0])
        with pytest.raises(DimensionError):
            predict_varx(model, [np.zeros(1)], [0.0, 1.0])
