import warnings

import numpy as np
import pytest


from opcast import (AdaptiveState, ConditioningWarning, ConfigurationError,
                    DimensionError, NumericError)
from opcast.estimator import COND_CHECK_EVERY, stacked, stacked_pass

from oracles import batch_oracle


def _run(state, history):
    for u, y in history:
        state.update(u, y)
    return state


def _random_history(rng, n, p, m, scale=1.0):
    H_true = rng.normal(size=(p, m))
    out = []
    for _ in range(n):
        u = rng.normal(size=p)
        y = u @ H_true + scale * rng.normal(size=m)
        out.append((u, y))
    return out


class TestScalarGolden:
    def test_first_observation(self):
        # lam=1, u=[1], y=[2]: gamma=1, denom=2, H=0+1*2/2=1,
        # Sigma=0-(0-4/2)/1=2, P=(1-1/2)/1=0.5
        state = AdaptiveState(1, 1, forgetting=1.0)
        state.update([1.0], [2.0])
        assert state.gamma == 1.0
        assert state.H[0, 0] == pytest.approx(1.0)
        assert state.Sigma[0, 0] == pytest.approx(2.0)
        assert state.P[0, 0] == pytest.approx(0.5)

    def test_innovation_uses_coefficients_from_before_the_update(self):
        # second update with u=[1], y=[2] again: e = 2 - 1*1 = 1 measured
        # against H from step one, NOT against the post-update H (which
        # would give e = 2/3 and a different Sigma).
        state = AdaptiveState(1, 1, forgetting=1.0)
        state.update([1.0], [2.0])
        state.update([1.0], [2.0])
        assert state.gamma == 2.0
        # denom = 1 + 0.5 = 1.5; H = 1 + 0.5*1/1.5 = 4/3
        assert state.H[0, 0] == pytest.approx(4.0 / 3.0)
        # Sigma = 2 - (2 - 1/1.5)/2 = 4/3
        assert state.Sigma[0, 0] == pytest.approx(4.0 / 3.0)
        # P = 0.5 - 0.25/1.5 = 1/3
        assert state.P[0, 0] == pytest.approx(1.0 / 3.0)

    def test_effective_sample_size_counts_observations_without_forgetting(self):
        state = AdaptiveState(1, 1, forgetting=1.0)
        for k in range(1, 200):
            state.update([1.0], [float(k)])
            assert state.gamma == float(k)

    def test_effective_sample_size_geometric_limit(self):
        lam = 0.99
        state = AdaptiveState(1, 1, forgetting=lam)
        n = 112
        _run(state, [([1.0], [0.0])] * n)
        assert state.gamma == pytest.approx((1 - lam ** n) / (1 - lam))


class TestAgainstBatchOracle:
    def test_matches_direct_solves(self):
        rng = np.random.default_rng(21)
        for lam in (1.0, 0.99, 0.95):
            p, m, n = 4, 2, 120
            history = _random_history(rng, n, p, m)
            state = _run(AdaptiveState(p, m, forgetting=lam), history)
            oracle = batch_oracle(history, lam)
            np.testing.assert_allclose(state.H, oracle.H, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(state.P, oracle.P, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(state.Sigma, oracle.Sigma,
                                       rtol=1e-9, atol=1e-9)
            assert state.gamma == pytest.approx(oracle.gamma, rel=1e-12)

    def test_wrong_update_order_diverges(self):
        # measuring the innovation against the post-update coefficients is
        # a nearby wrong implementation; the oracle must reject it.
        rng = np.random.default_rng(22)
        history = _random_history(rng, 60, 3, 2)
        lam = 0.99

        p, m = 3, 2
        H = np.zeros((p, m))
        Sigma = np.zeros((m, m))
        P = np.eye(p)
        gamma = 0.0
        for u, y in history:
            u = np.asarray(u, float)
            y = np.asarray(y, float)
            gamma = 1.0 + lam * gamma
            Pu = P @ u
            denom = lam + u @ Pu
            H = H + np.outer(Pu, y - u @ H) / denom
            e_post = y - u @ H
            Sigma = Sigma - (Sigma - lam * np.outer(e_post, e_post) / denom) / gamma
            P = (P - np.outer(Pu, Pu) / denom) / lam

        oracle = batch_oracle(history, lam)
        assert np.linalg.norm(Sigma - oracle.Sigma) > 1e-3

    def test_priors_are_honored(self):
        rng = np.random.default_rng(23)
        history = _random_history(rng, 30, 2, 1)
        prior_H = rng.normal(size=(2, 1))
        prior_P = np.array([[2.0, 0.3], [0.3, 1.0]])
        res = batch_oracle(history, 1.0, prior_H=prior_H, prior_P=prior_P)
        # the oracle's first innovation must be measured against prior_H
        e0 = history[0][1] - history[0][0] @ prior_H
        assert res.gamma == 30.0
        assert np.isfinite(res.Sigma).all()
        assert abs(float(e0[0])) > 0  # sanity: priors actually differ from 0

    def test_oracle_rejects_empty_history(self):
        with pytest.raises(ConfigurationError):
            batch_oracle([], 1.0)


class TestPredictionAndCovariance:
    def test_covariance_is_psd_and_symmetric(self):
        rng = np.random.default_rng(31)
        state = _run(AdaptiveState(3, 2, forgetting=0.97),
                     _random_history(rng, 150, 3, 2))
        cov = state.covariance()
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= 0.0

    def test_covariance_is_a_copy_of_sigma(self):
        rng = np.random.default_rng(33)
        state = _run(AdaptiveState(3, 2, forgetting=0.97),
                     _random_history(rng, 40, 3, 2))
        cov = state.covariance()
        np.testing.assert_array_equal(cov, state.Sigma)
        cov[0, 0] = -1.0
        assert state.Sigma[0, 0] > 0.0

    def test_tiny_negative_eigenvalue_kept_on_restore(self):
        doc = AdaptiveState(1, 2, forgetting=1.0).to_dict()
        doc["Sigma"] = [[1.0, 0.0], [0.0, -1e-12]]
        state = AdaptiveState.from_dict(doc)
        np.testing.assert_array_equal(state.covariance(), doc["Sigma"])
        assert state.to_dict() == doc

    def test_clearly_negative_eigenvalue_raises(self):
        doc = AdaptiveState(1, 2, forgetting=1.0).to_dict()
        doc["Sigma"] = [[1.0, 0.0], [0.0, -1e-6]]
        with pytest.raises(NumericError, match="negative eigenvalue"):
            AdaptiveState.from_dict(doc)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(32)
        H_true = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 0.0]])
        state = AdaptiveState(3, 2, forgetting=1.0)
        for _ in range(4000):
            u = rng.normal(size=3)
            state.update(u, u @ H_true + 0.1 * rng.normal(size=2))
        np.testing.assert_allclose(state.H, H_true, atol=0.02)
        np.testing.assert_allclose(state.covariance(),
                                   0.01 * np.eye(2), atol=0.003)


class TestValidation:
    def test_forgetting_bounds(self):
        with pytest.raises(ConfigurationError):
            AdaptiveState(1, 1, forgetting=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveState(1, 1, forgetting=1.2)
        AdaptiveState(1, 1, forgetting=1.0)

    def test_dimension_mismatch(self):
        state = AdaptiveState(2, 1, forgetting=1.0)
        with pytest.raises(DimensionError):
            state.update([1.0], [1.0])
        with pytest.raises(DimensionError):
            state.update([1.0, 2.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        state = AdaptiveState(1, 1, forgetting=1.0)
        with pytest.raises(NumericError):
            state.update([np.nan], [1.0])
        with pytest.raises(NumericError):
            state.update([1.0], [np.inf])

    @pytest.mark.parametrize("u, y, error", [
        ([1.0, np.nan, 0.5], [1.0, 2.0], NumericError),
        ([1.0, 0.0, np.inf], [1.0, 2.0], NumericError),
        ([1.0, 0.0, 0.5], [-np.inf, 2.0], NumericError),
        ([1.0, 0.0, 0.5], [1.0, np.nan], NumericError),
        ([1.0, 0.0], [1.0, 2.0], DimensionError),
        ([1.0, 0.0, 0.5], [1.0], DimensionError),
        ([[1.0, 0.0], [0.5, 1.0]], [1.0, 2.0], DimensionError),
    ])
    def test_rejected_update_leaves_state_untouched(self, u, y, error):
        rng = np.random.default_rng(3)
        state = _run(AdaptiveState(3, 2, forgetting=0.97),
                     _random_history(rng, 20, 3, 2))
        before = (state.H.copy(), state.P.copy(), state.Sigma.copy(),
                  state.gamma, state.n_updates)
        with pytest.raises(error):
            state.update(u, y)
        after = (state.H, state.P, state.Sigma, state.gamma, state.n_updates)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(new, old)

    def test_conditioning_warning_fires_on_schedule(self):
        # a one-directional predictor makes P blow up along the unseen axis
        # (0.6**-50 ~ 1e11); the check runs every COND_CHECK_EVERY updates
        assert COND_CHECK_EVERY == 50
        state = AdaptiveState(2, 1, forgetting=0.6)
        for _ in range(COND_CHECK_EVERY - 1):
            state.update([1.0, 0.0], [1.0])
        with pytest.warns(ConditioningWarning, match="after 50 updates"):
            state.update([1.0, 0.0], [1.0])

    def test_non_positive_denominator_leaves_state_untouched(self):
        rng = np.random.default_rng(5)
        state = _run(AdaptiveState(2, 2, forgetting=0.97),
                     _random_history(rng, 10, 2, 2))
        state.P = -np.eye(2)
        before = (state.H.copy(), state.P.copy(), state.Sigma.copy(),
                  state.gamma, state.n_updates)
        with pytest.raises(NumericError, match="not positive"):
            state.update([1.0, 2.0], [0.5, 0.5])
        after = (state.H, state.P, state.Sigma, state.gamma, state.n_updates)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(new, old)


class TestSerialization:
    def test_roundtrip_preserves_behaviour(self):
        rng = np.random.default_rng(41)
        history = _random_history(rng, 40, 3, 2)
        state = _run(AdaptiveState(3, 2, forgetting=0.98), history)
        clone = AdaptiveState.from_dict(state.to_dict())
        u_next = rng.normal(size=3)
        np.testing.assert_array_equal(u_next @ clone.H, u_next @ state.H)
        y_next = rng.normal(size=2)
        state.update(u_next, y_next)
        clone.update(u_next, y_next)
        np.testing.assert_array_equal(clone.H, state.H)
        np.testing.assert_array_equal(clone.P, state.P)
        assert clone.gamma == state.gamma

    def test_shape_check_on_restore(self):
        doc = AdaptiveState(2, 1, forgetting=1.0).to_dict()
        doc["H"] = [[1.0], [2.0], [3.0]]
        with pytest.raises(DimensionError):
            AdaptiveState.from_dict(doc)

    def test_conditioning_knobs_are_not_serialized(self):
        rng = np.random.default_rng(42)
        state = _run(AdaptiveState(3, 2, forgetting=0.98),
                     _random_history(rng, 40, 3, 2))
        doc = state.to_dict()
        assert "cond_check_every" not in doc and "cond_threshold" not in doc
        assert AdaptiveState.from_dict(doc).to_dict() == doc
        # older documents carry them; they are ignored
        old = dict(doc, cond_check_every=0, cond_threshold=1e3)
        assert AdaptiveState.from_dict(old).to_dict() == doc

    @pytest.mark.parametrize("name, cell", [
        ("H", (1, 0)), ("Sigma", (0, 0)), ("P", (0, 1))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, name, cell, bad):
        rng = np.random.default_rng(43)
        doc = _run(AdaptiveState(2, 1, forgetting=0.98),
                   _random_history(rng, 10, 2, 1)).to_dict()
        doc[name][cell[0]][cell[1]] = bad
        with pytest.raises(NumericError, match=name):
            AdaptiveState.from_dict(doc)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0, "3.5", True, None])
    def test_bad_gamma_rejected(self, gamma):
        doc = AdaptiveState(2, 1, forgetting=1.0).to_dict()
        doc["gamma"] = gamma
        with pytest.raises(NumericError, match="gamma"):
            AdaptiveState.from_dict(doc)

    def test_asymmetric_sigma_rejected(self):
        doc = AdaptiveState(1, 2, forgetting=1.0).to_dict()
        doc["Sigma"] = [[1.0, 0.2], [0.1, 1.0]]
        with pytest.raises(NumericError, match="symmetric"):
            AdaptiveState.from_dict(doc)

    def test_asymmetric_precision_proxy_rejected(self):
        doc = AdaptiveState(2, 1, forgetting=1.0).to_dict()
        doc["P"] = [[1.0, 0.5], [0.0, 1.0]]
        with pytest.raises(NumericError, match="precision proxy P is not symmetric"):
            AdaptiveState.from_dict(doc)

    def test_symmetric_indefinite_precision_proxy_is_kept(self):
        # only symmetry is checked: a wound-up P need not pass a definiteness test
        doc = AdaptiveState(2, 1, forgetting=1.0).to_dict()
        doc["P"] = [[-1.0, 0.5], [0.5, -1.0]]
        assert AdaptiveState.from_dict(doc).P.tolist() == doc["P"]

    @pytest.mark.parametrize("n_updates", [-3.7, -1, 2.5, np.nan, np.inf, "7", None, True])
    def test_n_updates_must_be_a_non_negative_integer(self, n_updates):
        doc = AdaptiveState(2, 1, forgetting=1.0).to_dict()
        doc["n_updates"] = n_updates
        with pytest.raises(NumericError, match="n_updates"):
            AdaptiveState.from_dict(doc)

    @pytest.mark.parametrize("name, value", [
        ("n_predictors", 2.7), ("n_predictors", "2"), ("n_predictors", -2),
        ("n_responses", True), ("n_responses", 1.5), ("n_responses", np.nan),
        ("forgetting", "1.0"), ("forgetting", False)])
    def test_dimensions_and_forgetting_must_be_numbers_of_their_kind(self, name, value):
        # the check n_updates passes through, for the other scalars of a state
        doc = AdaptiveState(2, 1, forgetting=1.0).to_dict()
        doc[name] = value
        with pytest.raises(NumericError, match=name):
            AdaptiveState.from_dict(doc)

    @pytest.mark.parametrize("n_updates", [0, 7, 7.0, np.int64(7)])
    def test_integral_n_updates_accepted(self, n_updates):
        doc = AdaptiveState(2, 1, forgetting=1.0).to_dict()
        doc["n_updates"] = n_updates
        state = AdaptiveState.from_dict(doc)
        assert state.n_updates == int(n_updates) and type(state.n_updates) is int


class TestPrecisionSymmetry:
    def test_update_keeps_p_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        state = AdaptiveState(6, 2, forgetting=0.9)
        for u, y in _random_history(rng, 300, 6, 2, scale=3.0):
            state.update(u, y)
            assert np.array_equal(state.P, state.P.T)


def _sequential(states, inputs, responses):
    """The oracle: ``_update`` state by state, row by row, on copies; also
    each state's forecast ``u @ H`` and variances before each update."""
    out, caught, forecasts = [], [], []
    for j, (st, X, Y) in enumerate(zip(states, inputs, responses)):
        st = AdaptiveState.from_dict(st.to_dict())
        forecasts.append(([], []))
        for k, (u, y) in enumerate(zip(X, Y)):
            forecasts[-1][0].append(u @ st.H)
            forecasts[-1][1].append(st.Sigma.diagonal().copy())
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                st._update(u, y)
            caught += [(j, k, str(w.message)) for w in seen
                       if w.category is ConditioningWarning]
        out.append(st)
    return out, caught, forecasts


def _stack(inputs, responses):
    X, active = stacked(inputs)
    return X, stacked(responses)[0], active


class TestStackedPass:
    """stacked_pass against the record-by-record update it replaces."""

    @staticmethod
    def _case(rng, p, m, lam, lengths, prior_updates=0):
        states, inputs, responses = [], [], []
        for length in sorted(lengths, reverse=True):
            st = AdaptiveState(p, m, lam)
            if prior_updates:
                _run(st, _random_history(rng, prior_updates, p, m))
            states.append(st)
            history = _random_history(rng, length, p, m, scale=float(rng.uniform(0.1, 3.0)))
            inputs.append(np.array([u for u, _ in history]))
            responses.append(np.array([y for _, y in history]))
        return states, inputs, responses

    @pytest.mark.parametrize("p, m", [(1, 1), (2, 1), (4, 2), (5, 1), (9, 2), (14, 2),
                                      (12, 1), (17, 3)])
    def test_bitwise_equal_to_the_update(self, p, m):
        rng = np.random.default_rng(100 * p + m)
        lengths = rng.integers(1, 140, size=int(rng.integers(1, 9)))
        states, inputs, responses = self._case(rng, p, m, 0.97, lengths,
                                               prior_updates=int(rng.integers(0, 60)))
        before = [st.to_dict() for st in states]
        expected, caught, forecasts = _sequential(states, inputs, responses)
        commit, warned, refused, mean, var = stacked_pass(states, *_stack(inputs, responses))
        assert [st.to_dict() for st in states] == before  # nothing written yet
        assert refused == {} and sorted(warned) == caught
        for j, (means, variances) in enumerate(forecasts):  # pre-update, bit for bit
            assert np.array_equal(mean[:len(means), j], means)
            assert np.array_equal(var[:len(means), j], variances)
        commit()
        assert [st.to_dict() for st in states] == [st.to_dict() for st in expected]
        for st in states:
            assert st.P.flags.c_contiguous and np.array_equal(st.P, st.P.T)

    def test_conditioning_warnings_at_the_same_updates(self):
        # one-directional inputs wind P up; prior counts shift the schedule
        rng = np.random.default_rng(3)
        states, inputs, responses = [], [], []
        for length, prior in ((130, 0), (120, 17), (75, 49), (20, 0)):
            st = AdaptiveState(3, 1, 0.6)
            _run(st, [([1.0, 0.5, 0.0], [1.0])] * prior)
            states.append(st)
            inputs.append(np.column_stack((np.ones(length), 0.5 + rng.normal(size=length),
                                           np.zeros(length))))
            responses.append(rng.normal(size=(length, 1)))
        expected, caught, _ = _sequential(states, inputs, responses)
        commit, warned, *_ = stacked_pass(states, *_stack(inputs, responses))
        assert len(caught) >= 5 and sorted(warned) == caught
        commit()
        assert [st.to_dict() for st in states] == [st.to_dict() for st in expected]

    def test_a_refused_state_is_reported_and_nothing_is_written(self):
        rng = np.random.default_rng(4)
        states, inputs, responses = self._case(rng, 3, 2, 0.95, [40, 30, 25])
        states[1].P = -np.eye(3)
        before = [st.to_dict() for st in states]
        with pytest.raises(NumericError) as refused:
            _run(AdaptiveState.from_dict(states[1].to_dict()),
                 zip(inputs[1], responses[1]))
        _, _, refusals, *_ = stacked_pass(states, *_stack(inputs, responses))
        assert refusals == {1: (0, str(refused.value))}
        assert [st.to_dict() for st in states] == before

    def test_stacked_pads_and_counts_the_running_sequences(self):
        out, active = stacked([np.ones((3, 2)), 2 * np.ones((1, 2)), 3 * np.ones((1, 2))])
        assert out.shape == (3, 3, 2) and active == [3, 1, 1]
        assert out[:, 0].tolist() == [[1.0, 1.0]] * 3
        assert out[1:, 1:].tolist() == [[[0.0, 0.0]] * 2] * 2
