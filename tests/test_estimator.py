import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opcast import (AdaptiveState, ConditioningWarning, ConfigurationError,
                    DimensionError, InputError, NumericError)
from opcast.estimator import (COND_CHECK_EVERY, COND_THRESHOLD, _cond, _cond_message,
                              restore_states, stacked, stacked_pass, state_stacks)

from oracles import batch_oracle


def _run(state, history):
    for u, y in history:
        state.update(u, y)
    return state


def _fields(state):
    """A state's every field as plain values, for exact comparison."""
    return (state.n_predictors, state.n_responses, state.forgetting, state.gamma,
            state.n_updates, state.H.tolist(), state.Sigma.tolist(), state.P.tolist())


def _restored(doc, p, m, forgetting=1.0):
    """The states of a ``state_stacks`` document of ``(p, m)`` states."""
    return restore_states(doc, [str(i) for i in range(len(doc["gamma"]))], p, m, forgetting, "u")


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

    def test_update_returns_the_moments_it_learned_against(self):
        # the third update predicts u'H = 4/3 under Sigma = 4/3, both from
        # before it learns, and leaves the returned Sigma as it was
        state = _run(AdaptiveState(1, 1, forgetting=1.0), [([1.0], [2.0])] * 2)
        H, Sigma = state.H.copy(), state.Sigma.copy()
        pred, used = state.update([1.0], [2.0])
        assert np.array_equal(pred, np.array([1.0]) @ H)
        assert np.array_equal(used, Sigma) and not np.array_equal(state.Sigma, Sigma)

    def test_an_update_is_formed_before_it_is_taken(self):
        # _update forms the next fields and warns what is due, moving nothing;
        # committing them is the update
        u, y = np.array([1.0, 0.0]), np.array([1.0])
        state = _run(AdaptiveState(2, 1, 0.6), [(u, y)] * (COND_CHECK_EVERY - 1))
        twin, before = copy.deepcopy(state), _fields(state)
        with pytest.warns(ConditioningWarning, match="after 50 updates") as formed:
            fields, learned = state._update(u, y)
        assert _fields(state) == before
        with pytest.warns(ConditioningWarning) as seen:
            pred, used = twin.update(u, y)
        assert [str(w.message) for w in seen] == [str(w.message) for w in formed]
        vars(state).update(fields)
        assert _fields(state) == _fields(twin)
        assert [a.tobytes() for a in learned] == [pred.tobytes(), used.tobytes()]

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
        doc = state_stacks([AdaptiveState(1, 2, forgetting=1.0)])
        doc["Sigma"] = [[[1.0, 0.0], [0.0, -1e-12]]]
        [state] = _restored(doc, 1, 2)
        np.testing.assert_array_equal(state.covariance(), doc["Sigma"][0])
        assert state_stacks([state]) == doc

    def test_clearly_negative_eigenvalue_raises(self):
        doc = state_stacks([AdaptiveState(1, 2, forgetting=1.0)] * 2)
        doc["Sigma"][1] = [[1.0, 0.0], [0.0, -1e-6]]
        with pytest.raises(NumericError, match="negative eigenvalues for pattern '1', got -1e-06"):
            _restored(doc, 1, 2)

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

    @pytest.mark.parametrize("dims, forgetting", [
        ((2.7, 1), 0.9), ((3, 1.5), 0.9), ((True, 1), 0.9), ((3, "1"), 0.9), ((0, 1), 0.9),
        ((3, 1), "0.9"), ((3, 1), True), ((3, 1), float("nan"))],
        ids=["fractional-p", "fractional-m", "bool-p", "str-m", "zero-p",
             "str-forgetting", "bool-forgetting", "nan-forgetting"])
    def test_only_numbers_are_dimensions_and_forgetting(self, dims, forgetting):
        with pytest.raises(ConfigurationError):
            AdaptiveState(*dims, forgetting)

    def test_a_whole_float_is_a_dimension(self):
        state = AdaptiveState(3.0, np.int64(2), np.float64(0.9))
        assert (state.n_predictors, state.n_responses, state.forgetting) == (3, 2, 0.9)
        assert type(state.n_predictors) is int and state.P.shape == (3, 3)

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
        (["1.0", "0.0", "0.5"], [1.0, 2.0], InputError),  # float() would parse these
        ([1.0, 0.0, 0.5], [1.0, b"2.0"], InputError),
        ([1.0, 0.0, 0.5], [1.0, 2.0 + 0j], InputError),
        (np.array(["1.0", "0.0", "0.5"], dtype=object), [1.0, 2.0], InputError),
        ([1.0, None, 0.5], [1.0, 2.0], NumericError),  # None is a missing number
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
    """``restore_states`` of ``state_stacks``: one stack per field, checked whole."""

    def test_roundtrip_preserves_behaviour(self):
        rng = np.random.default_rng(41)
        history = _random_history(rng, 40, 3, 2)
        state = _run(AdaptiveState(3, 2, forgetting=0.98), history)
        [clone] = _restored(state_stacks([state]), 3, 2, 0.98)
        assert _fields(clone) == _fields(state)
        u_next = rng.normal(size=3)
        np.testing.assert_array_equal(u_next @ clone.H, u_next @ state.H)
        y_next = rng.normal(size=2)
        state.update(u_next, y_next)
        clone.update(u_next, y_next)
        np.testing.assert_array_equal(clone.H, state.H)
        np.testing.assert_array_equal(clone.P, state.P)
        assert clone.gamma == state.gamma

    def test_the_states_are_views_into_the_stacks(self):
        rng = np.random.default_rng(44)
        states = [_run(AdaptiveState(2, 1, 0.9), _random_history(rng, n, 2, 1)) for n in (3, 8)]
        restored = _restored(state_stacks(states), 2, 1, 0.9)
        assert [_fields(st) for st in restored] == [_fields(st) for st in states]
        assert restored[0].P.base is restored[1].P.base is not None
        before = _fields(restored[1])
        restored[0].update([1.0, 2.0], [0.5])  # an update replaces the arrays it changes
        assert _fields(restored[1]) == before

    def test_an_empty_stack_restores_no_state(self):
        doc = state_stacks([])
        assert doc == {"H": [], "Sigma": [], "P": [], "gamma": [], "n_updates": []}
        assert restore_states(doc, [], 3, 2, 0.9, "v") == []

    def test_shape_check_on_restore(self):
        doc = state_stacks([AdaptiveState(2, 1, forgetting=1.0)])
        doc["H"] = [[[1.0], [2.0], [3.0]]]
        with pytest.raises(DimensionError, match=r"u H has shape \(1, 3, 1\), not \(1, 2, 1\)"):
            _restored(doc, 2, 1)

    @pytest.mark.parametrize("name, value", [
        ("H", [[[1.0], [2.0]]] * 2), ("Sigma", [[1.0]]), ("P", [[[1.0, 0.0], [0.0, 1.0]]] * 2),
        ("P", [[1.0, 0.0], [0.0, 1.0]]), ("Sigma", []), ("H", [[[1.0, 2.0]]]),
        ("gamma", [0.0, 0.0]), ("n_updates", [])],
        ids=["two-H", "flat-Sigma", "two-P", "flat-P", "empty-Sigma", "wide-H",
             "two-gamma", "no-n-updates"])
    def test_a_stack_of_another_length_or_shape_is_refused(self, name, value):
        # the shapes and lengths of the stacks give the dimensions and the state count
        doc = state_stacks([AdaptiveState(2, 1, forgetting=1.0)])
        doc[name] = value
        match = name if name in ("H", "Sigma", "P") else "list 1"
        with pytest.raises(DimensionError, match=match):
            restore_states(doc, ["0"], 2, 1, 1.0, "u")

    def test_conditioning_knobs_are_not_serialized(self):
        rng = np.random.default_rng(42)
        state = _run(AdaptiveState(3, 2, forgetting=0.98),
                     _random_history(rng, 40, 3, 2))
        doc = state_stacks([state])
        assert sorted(doc) == ["H", "P", "Sigma", "gamma", "n_updates"]
        assert state_stacks(_restored(doc, 3, 2, 0.98)) == doc
        # other keys, as earlier documents' cond_check_every, are ignored
        old = dict(doc, cond_check_every=[0], cond_threshold=[1e3])
        assert state_stacks(_restored(old, 3, 2, 0.98)) == doc

    @pytest.mark.parametrize("name, cell", [
        ("H", (1, 0)), ("Sigma", (0, 0)), ("P", (0, 1))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, name, cell, bad):
        rng = np.random.default_rng(43)
        doc = state_stacks([_run(AdaptiveState(2, 1, forgetting=0.98),
                                 _random_history(rng, n, 2, 1)) for n in (10, 4)])
        doc[name][1][cell[0]][cell[1]] = bad
        with pytest.raises(NumericError, match=f"{name} contains non-finite values for "
                                               "pattern '1'"):
            _restored(doc, 2, 1, 0.98)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0, "3.5", True, None])
    def test_bad_gamma_rejected(self, gamma):
        doc = state_stacks([AdaptiveState(2, 1, forgetting=1.0)] * 3)
        doc["gamma"][2] = gamma
        with pytest.raises(NumericError, match="gamma .* for pattern '2'"):
            _restored(doc, 2, 1)

    def test_asymmetric_sigma_rejected(self):
        doc = state_stacks([AdaptiveState(1, 2, forgetting=1.0)])
        doc["Sigma"] = [[[1.0, 0.2], [0.1, 1.0]]]
        with pytest.raises(NumericError, match="noise covariance is not symmetric"):
            _restored(doc, 1, 2)

    def test_asymmetric_precision_proxy_rejected(self):
        doc = state_stacks([AdaptiveState(2, 1, forgetting=1.0)])
        doc["P"] = [[[1.0, 0.5], [0.0, 1.0]]]
        with pytest.raises(NumericError, match="precision proxy P is not symmetric"):
            _restored(doc, 2, 1)

    def test_symmetric_indefinite_precision_proxy_is_kept(self):
        # only symmetry is checked: a wound-up P need not pass a definiteness test
        doc = state_stacks([AdaptiveState(2, 1, forgetting=1.0)])
        doc["P"] = [[[-1.0, 0.5], [0.5, -1.0]]]
        assert _restored(doc, 2, 1)[0].P.tolist() == doc["P"][0]

    @pytest.mark.parametrize("n_updates", [-3.7, -1, 2.5, np.nan, np.inf, "7", None, True])
    def test_n_updates_must_be_a_non_negative_integer(self, n_updates):
        doc = state_stacks([AdaptiveState(2, 1, forgetting=1.0)])
        doc["n_updates"] = [n_updates]
        with pytest.raises(NumericError, match="n_updates"):
            _restored(doc, 2, 1)

    @pytest.mark.parametrize("n_updates", [0, 7, 7.0, np.int64(7)])
    def test_integral_n_updates_accepted(self, n_updates):
        doc = state_stacks([AdaptiveState(2, 1, forgetting=1.0)])
        doc["n_updates"] = [n_updates]
        [state] = _restored(doc, 2, 1)
        assert state.n_updates == int(n_updates) and type(state.n_updates) is int

    def test_the_unchecked_prior_is_the_checked_constructors_state(self):
        assert _fields(AdaptiveState.prior(3, 2, 0.9)) == _fields(AdaptiveState(3, 2, 0.9))
        assert _fields(AdaptiveState.trusted(0.9, np.zeros((3, 2)), np.zeros((2, 2)),
                                             np.eye(3))) == _fields(AdaptiveState(3, 2, 0.9))


class TestPrecisionSymmetry:
    def test_update_keeps_p_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        state = AdaptiveState(6, 2, forgetting=0.9)
        for u, y in _random_history(rng, 300, 6, 2, scale=3.0):
            state.update(u, y)
            assert np.array_equal(state.P, state.P.T)


def _spd(rng, p, log_cond):
    """An exactly symmetric positive definite ``(p, p)`` matrix of condition number
    about ``10 ** log_cond``, at a random scale and in random directions."""
    Q = np.linalg.qr(rng.normal(size=(p, p)))[0]
    P = (Q * np.logspace(0.0, -log_cond, p) * 10.0 ** rng.uniform(-6, 6)) @ Q.T
    return (P + P.T) / 2.0


class TestConditioningScreen:
    """``_cond`` skips the SVD only where no warning is due."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 9),
           log_conds=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=5),
           fault=st.sampled_from([None, "nan", "inf", "indefinite", "singular"]))
    def test_skips_only_what_the_exact_cond_passes(self, seed, p, log_conds, fault):
        rng = np.random.default_rng(seed)
        P = np.stack([_spd(rng, p, log_cond) for log_cond in log_conds])
        if fault is not None:  # in one matrix of the stack
            bad = P[rng.integers(len(P))]
            bad[0, 0] = {"nan": np.nan, "inf": np.inf, "indefinite": -abs(bad[0, 0]) - 1.0,
                         "singular": 0.0}[fault]
            if fault == "singular":
                bad[0, :] = bad[:, 0] = 0.0
        faulty = ~np.isfinite(P).all(axis=(1, 2))  # whose SVD may not converge
        with np.errstate(all="ignore"):  # the SVD of a singular matrix
            got, exact = _cond(P), np.full(len(P), np.inf)
            exact[~faulty] = np.linalg.cond(P[~faulty])
        assert got.shape == (len(P),) and (got[faulty] == np.inf).all()
        assert faulty.any() == (fault in ("nan", "inf"))
        skipped = not np.array_equal(got, exact, equal_nan=True)
        if skipped:  # the bound, where the exact cond is below the threshold
            assert (got == COND_THRESHOLD / 10).all() and (exact <= COND_THRESHOLD).all()
        assert [_cond_message(c, 50) for c in got] == [_cond_message(c, 50) for c in exact]
        if fault is not None:
            assert not skipped
        elif max(log_conds) <= 5.0:  # far below the threshold: the SVD is skipped
            assert (got == COND_THRESHOLD / 10).all()

    def test_a_skipped_check_warns_as_the_exact_cond(self):
        # a P that the screen bounds gives no message; one it does not gives the
        # exact cond's message
        well, ill = np.eye(3), np.diag([1.0, 1.0, 1e-9])
        assert _cond(well) == COND_THRESHOLD / 10 and _cond(ill) == np.linalg.cond(ill)
        assert _cond_message(_cond(well), COND_CHECK_EVERY) is None
        assert _cond_message(_cond(ill), COND_CHECK_EVERY) == (
            f"precision proxy condition number {1e9:.3e} exceeds {COND_THRESHOLD:.1e} "
            f"after {COND_CHECK_EVERY} updates")

    def test_a_non_finite_p_warns_inf_in_both_paths_then_refuses(self):
        # a finite gain denominator can still leave P non-finite: with P's cells
        # near overflow (where ~70,000 unexcited updates at lam = 0.99 take them),
        # Pu_i Pu_j overflows and the 50th update leaves P -inf, whose due check
        # reads cond = inf with no SVD; the next update refuses its -inf denominator
        start = AdaptiveState.trusted(0.9, np.zeros((2, 1)), np.zeros((1, 1)), 1e300 * np.eye(2),
                                      n_updates=COND_CHECK_EVERY - 1)
        X, Y = np.array([[1.0, 0.5], [1.0, 0.5]]), np.array([[1.0], [2.0]])
        message = (f"precision proxy condition number inf exceeds {COND_THRESHOLD:.1e} "
                   f"after {COND_CHECK_EVERY} updates")
        state = copy.deepcopy(start)
        with np.errstate(all="ignore"):
            with pytest.warns(ConditioningWarning) as seen:
                state.update(X[0], Y[0])
            assert not np.isfinite(state.P).any() and [str(w.message) for w in seen] == [message]
            with pytest.raises(NumericError, match="gain denominator .* is -inf") as refusal:
                state.update(X[1], Y[1])
            _, reported, _ = stacked_pass([([copy.deepcopy(start)], *_stack([X], [Y]))])
        assert [(j, k, type(event), str(event)) for _, j, k, event in reported] == [
            (0, 0, str, message), (0, 1, NumericError, str(refusal.value))]


class TestFiniteGain:
    """A gain denominator that overflows to inf is refused where it arises."""

    def test_an_overflowing_denominator_is_refused_at_its_own_step(self):
        # u'Pu of u = [1e200, 1e200] against P = I overflows: the update and
        # the stacked pass refuse that step, naming inf, and nothing moves;
        # that overflow is the refusal, so no RuntimeWarning comes first
        rng = np.random.default_rng(21)
        start = _run(AdaptiveState(2, 1, 0.95), _random_history(rng, 5, 2, 1))
        start.P = np.eye(2)
        X, Y = np.array([[1.0, 0.5], [1e200, 1e200], [1.0, 0.5]]), np.array([[1.0], [2.0], [3.0]])
        state = _run(copy.deepcopy(start), [(X[0], Y[0])])
        before = _fields(state)
        with pytest.raises(NumericError) as refusal:
            state.update(X[1], Y[1])
        _, reported, _ = stacked_pass([([copy.deepcopy(start)], *_stack([X], [Y]))])
        assert str(refusal.value) == "gain denominator lam + u'Pu is inf, not positive and finite"
        assert _fields(state) == before
        assert [(j, k, str(event)) for _, j, k, event in reported] == [
            (0, 1, str(refusal.value))]


def _sequential(states, inputs, responses):
    """The oracle: ``_update`` state by state, row by row, on copies; also
    the ``(u @ H, Sigma)`` before each update that ``_update`` returns."""
    out, caught, forecasts = [], [], []
    for j, (st, X, Y) in enumerate(zip(states, inputs, responses)):
        st = copy.deepcopy(st)
        forecasts.append(([], []))
        for k, (u, y) in enumerate(zip(X, Y)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                pred, Sigma = st.update(u, y)
            forecasts[-1][0].append(pred)
            forecasts[-1][1].append(Sigma)
            caught += [(j, k, str(w.message)) for w in seen
                       if w.category is ConditioningWarning]
        out.append(st)
    return out, caught, forecasts


def _stack(inputs, responses):
    return (*stacked(inputs), stacked(responses)[0])


def _one_group(states, inputs, responses):
    """``stacked_pass`` of one group, its warnings as ``(state, step, message)``."""
    commit, warned, [(mean, cov)] = stacked_pass([(states, *_stack(inputs, responses))],
                                                 moments=True)
    return commit, [(j, k, message) for _, j, k, message in warned], mean, cov


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
        before = [_fields(st) for st in states]
        expected, caught, forecasts = _sequential(states, inputs, responses)
        commit, warned, mean, cov = _one_group(states, inputs, responses)
        assert [_fields(st) for st in states] == before  # nothing written yet
        assert sorted(warned) == caught
        for j, (means, covariances) in enumerate(forecasts):  # pre-update, bit for bit
            assert np.array_equal(mean[:len(means), j], means)
            assert np.array_equal(cov[:len(means), j], covariances)
        commit()
        assert [_fields(st) for st in states] == [_fields(st) for st in expected]
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
        commit, warned, *_ = _one_group(states, inputs, responses)
        assert len(caught) >= 5 and sorted(warned) == caught
        commit()
        assert [_fields(st) for st in states] == [_fields(st) for st in expected]

    def test_states_checked_at_the_same_step_warn_as_checked_one_by_one(self):
        # three states hit the schedule together (prior counts 0, 0 and 50);
        # only the one-directional inputs wind P up, so one batched check of
        # several states must give exactly the per-state messages
        rng = np.random.default_rng(8)
        states, inputs, responses = [], [], []
        for length, prior, narrow in ((120, 0, True), (110, 0, False), (100, 50, False)):
            st = AdaptiveState(3, 2, 0.6)
            _run(st, _random_history(rng, prior, 3, 2))
            states.append(st)
            X = rng.normal(size=(length, 3))
            if narrow:
                X[:, 2] = 0.0
            inputs.append(X)
            responses.append(rng.normal(size=(length, 2)))
        expected, due = [], {}
        for j, (st, X, Y) in enumerate(zip(states, inputs, responses)):
            st = copy.deepcopy(st)
            for k, (u, y) in enumerate(zip(X, Y)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ConditioningWarning)
                    st.update(u, y)
                if st.n_updates % COND_CHECK_EVERY == 0:
                    due.setdefault(k, []).append(j)
                    message = _cond_message(_cond(st.P), st.n_updates)
                    if message is not None:
                        expected.append((j, k, message))
        assert due[49] == due[99] == [0, 1, 2]
        assert [j for j, _, _ in expected] == [0, 0]
        _, warned, *_ = _one_group(states, inputs, responses)
        assert warned == expected

    def test_a_refused_state_is_reported_and_nothing_is_written(self):
        rng = np.random.default_rng(4)
        states, inputs, responses = self._case(rng, 3, 2, 0.95, [40, 30, 25])
        states[1].P = -np.eye(3)
        before = [_fields(st) for st in states]
        with pytest.raises(NumericError, match="gain denominator") as update:
            _run(copy.deepcopy(states[1]),
                 zip(inputs[1], responses[1]))
        _, reported, _ = stacked_pass([(states, *_stack(inputs, responses))])
        assert [(g, j, k, type(refusal), str(refusal)) for g, j, k, refusal in reported] \
            == [(0, 1, 0, NumericError, str(update.value))]
        assert [_fields(st) for st in states] == before

    def test_each_refused_state_is_reported_with_its_own_denominator(self):
        # states 0 and 2 refuse at step 0 with denominators of their own;
        # the pass reports each with its own, as its update refuses it
        rng = np.random.default_rng(5)
        states, inputs, responses = self._case(rng, 2, 1, 0.95, [9, 8, 7])
        states[0].P, states[2].P = -np.eye(2), -3.0 * np.eye(2)
        denominators = [st.forgetting + u @ st.P @ u for st, u in zip(states, (
            inputs[0][0], inputs[1][0], inputs[2][0]))]
        assert denominators[2] < denominators[0] <= 0.0 < denominators[1]
        expected = []
        for j in (0, 2):
            with pytest.raises(NumericError) as update:
                copy.deepcopy(states[j]).update(inputs[j][0], responses[j][0])
            expected.append((j, 0, NumericError, str(update.value)))
        _, reported, *_ = _one_group(states, inputs, responses)
        assert [(j, k, type(refusal), str(refusal)) for j, k, refusal in reported] == expected
        assert expected[0][3] != expected[1][3]

    def test_stacked_pads_and_counts_the_running_sequences(self):
        out, active = stacked([np.ones((3, 2)), 2 * np.ones((1, 2)), 3 * np.ones((1, 2))])
        assert out.shape == (3, 3, 2) and active == [3, 1, 1]
        assert out[:, 0].tolist() == [[1.0, 1.0]] * 3
        assert out[1:, 1:].tolist() == [[[0.0, 0.0]] * 2] * 2


class TestRaggedPass:
    """stacked_pass over groups of several shapes at once, against ``_update``
    record by record."""

    @staticmethod
    def _group(rng, p, m, lengths, narrow=False):
        """States of one shape with prior updates (0-60, shifting the check
        schedule) and mixed forgetting factors, longest first, and their
        histories; ``narrow`` inputs wind ``P`` up so that checks warn."""
        states, inputs, responses = [], [], []
        for length in sorted(lengths, reverse=True):
            st = _run(AdaptiveState(p, m, float(rng.choice([0.6, 0.95, 0.99]))),
                      _random_history(rng, int(rng.integers(0, 61)), p, m))
            X = rng.normal(size=(length, p))
            if narrow:
                X[:, -1] = 0.0
            states.append(st)
            inputs.append(X)
            responses.append(rng.normal(size=(length, m)))
        return states, inputs, responses

    @staticmethod
    def _oracle(groups):
        """Per group the ``_sequential`` states and moments, and the warnings
        as ``(group, state, step, message)``."""
        expected, caught, forecasts = [], [], []
        for g, group in enumerate(groups):
            done, warned, moments = _sequential(*group)
            expected.append([_fields(st) for st in done])
            caught += [(g, j, k, message) for j, k, message in warned]
            forecasts.append(moments)
        return expected, caught, forecasts

    @staticmethod
    def _pass(groups, moments=True):
        return stacked_pass([(states, *_stack(inputs, responses))
                             for states, inputs, responses in groups], moments)

    def test_bitwise_equal_to_the_update_over_mixed_shapes(self):
        rng = np.random.default_rng(11)
        groups = [self._group(rng, 3, 1, [230, 120, 57, 50, 49, 2, 1, 1], narrow=True),
                  self._group(rng, 5, 2, [140, 99, 3]),
                  self._group(rng, 2, 3, [1]),
                  self._group(rng, 4, 1, [210, 100, 100, 51], narrow=True)]
        before = [[_fields(st) for st in states] for states, _, _ in groups]
        expected, caught, forecasts = self._oracle(groups)
        commit, warned, moments = self._pass(groups)
        assert [[_fields(st) for st in states] for states, _, _ in groups] == before
        assert len(caught) >= 5 and sorted(warned) == caught
        for (mean, cov), per_state in zip(moments, forecasts):
            for j, (means, covariances) in enumerate(per_state):
                assert np.array_equal(mean[:len(means), j], means)
                assert np.array_equal(cov[:len(means), j], covariances)
        commit()
        assert [[_fields(st) for st in states] for states, _, _ in groups] == expected

    def test_a_refusal_in_the_second_group_at_its_step(self):
        # zero inputs leave P = -I untouched but for 1/lam, so the state
        # refuses its first non-zero input, at step 6: the pass reports the
        # update's refusal there, after all six steps before it, every other
        # state runs on bit for bit as alone in the shared buffers (its
        # neighbours on both sides among them), and no state refuses when
        # it ends before
        rng = np.random.default_rng(6)
        first, second = self._group(rng, 2, 1, [40, 9]), self._group(rng, 3, 2, [30, 12, 9])
        second[0][1].P = -np.eye(3)
        second[1][1][:6] = 0.0
        second[1][1][6:] = 1.0
        state = copy.deepcopy(second[0][1])
        _run(state, zip(second[1][1][:6], second[2][1][:6]))
        with pytest.raises(NumericError, match="gain denominator") as update:
            state.update(second[1][1][6], second[2][1][6])
        before = [[_fields(st) for st in states] for states, _, _ in (first, second)]
        _, reported, moments = self._pass([first, second])
        refused = [event for event in reported if not isinstance(event[3], str)]
        assert [(g, j, k, type(refusal), str(refusal)) for g, j, k, refusal in refused] \
            == [(1, 1, 6, NumericError, str(update.value))]
        assert [[_fields(st) for st in states] for states, _, _ in (first, second)] == before
        second[1][1], second[2][1] = second[1][1][:6], second[2][1][:6]
        _, caught, forecasts = self._oracle([first, second])  # the refused state: its 6 steps
        assert sorted(event for event in reported if isinstance(event[3], str)) == caught
        for (mean, cov), per_state in zip(moments, forecasts):
            for j, (means, covariances) in enumerate(per_state):
                assert np.array_equal(mean[:len(means), j], means)
                assert np.array_equal(cov[:len(means), j], covariances)
        assert all(isinstance(event[3], str) for event in self._pass([first, second])[1])

    @pytest.mark.parametrize("together", [True, False])
    def test_finished_states_never_overflow(self, together):
        # a 5-step chain beside a 20,000-step one at lam = 0.95, in one group
        # or in two: under raising floating-point errors, the finished state
        # stays finite for the long one's steps and ends where _update leaves it
        rng = np.random.default_rng(20000)
        long_, short = (([AdaptiveState(2, 1, 0.95)], [rng.normal(size=(n, 2))],
                         [rng.normal(size=(n, 1))]) for n in (20000, 5))
        groups = [tuple(a + b for a, b in zip(long_, short))] if together else [long_, short]
        with np.errstate(all="raise"):
            expected, caught, _ = self._oracle(groups)
            commit, warned, _ = self._pass(groups, moments=False)
        assert sorted(warned) == caught
        commit()
        assert [[_fields(st) for st in states] for states, _, _ in groups] == expected
