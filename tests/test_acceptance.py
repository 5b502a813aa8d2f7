"""Release acceptance gate.

Each test here covers one release criterion end to end, with tolerances
pinned in the assertions. On success a single line per criterion goes to
stdout (visible with ``pytest -rA`` or ``-s``); on failure the assertion
message carries the measured value.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from opcast import (
    AdaptiveState,
    DirichletTable,
    FeatureConfig,
    IoHmmModel,
    ModelConfig,
    SyntheticSpec,
    combine,
    compute_indices,
    derive_time_variables,
    emit_report,
    fit_auto_k,
    fit_varx,
    generate_synthetic,
    leave_one_week_out,
)
from opcast.features import classification_vector
from opcast.metrics import cell_scores, columns

from oracles import batch_oracle


def _report(label: str, detail: str) -> None:
    print(f"acceptance [{label}]: PASS ({detail})")


# -- 1. published table rows -------------------------------------------------

GOLDEN_ROWS = (
    # base durations                      derived durations        rates
    {"OT": 9.60, "SBT": 0.0, "DT": 2.62, "PLT": 0.05, "QLT": 0.53,
     "LT": 9.60, "OpT": 6.98, "NOpT": 6.93, "VT": 6.40,
     "lo": 1.0, "av": 0.73, "pf": 0.99, "qu": 0.92, "oee": 0.67},
    {"OT": 9.69, "SBT": 0.0, "DT": 2.52, "PLT": 0.37, "QLT": 0.0,
     "LT": 9.69, "OpT": 7.17, "NOpT": 6.80, "VT": 6.80,
     "lo": 1.0, "av": 0.74, "pf": 0.95, "qu": 1.0, "oee": 0.70},
)

DURATION_TOL = 0.01
RATE_TOL = 0.005


def test_a01_golden_time_table_rows():
    start = time.perf_counter()
    worst_dur = worst_rate = 0.0
    for row in GOLDEN_ROWS:
        derived = derive_time_variables(row["OT"], row["SBT"], row["DT"],
                                        row["PLT"], row["QLT"])
        for name in ("LT", "OpT", "NOpT", "VT"):
            err = abs(getattr(derived, name) - row[name])
            worst_dur = max(worst_dur, err)
            assert err <= DURATION_TOL, f"{name}: off by {err:.4f}"
        idx = compute_indices(row["OT"], derived.LT, derived.OpT,
                              derived.NOpT, derived.VT)
        for name in ("lo", "av", "pf", "qu", "oee"):
            err = abs(getattr(idx, name) - row[name])
            worst_rate = max(worst_rate, err)
            assert err <= RATE_TOL, f"{name}: off by {err:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report("golden-table-rows",
            f"max duration err {worst_dur:.4f} <= {DURATION_TOL}, "
            f"max rate err {worst_rate:.4f} <= {RATE_TOL}, {elapsed:.3f}s")


# -- 2. recursion against direct solves --------------------------------------

def _rel_frob(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.linalg.norm(want)
    return np.linalg.norm(got - want) / (scale if scale > 0 else 1.0)


def test_a02_recursion_matches_batch_solves():
    rng = np.random.default_rng(20230802)
    start = time.perf_counter()
    lambdas = (1.0, 0.99, 0.95)
    cases = 0
    worst = 0.0
    for i in range(102):
        lam = lambdas[i % len(lambdas)]
        p = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(20, 201))
        U = rng.standard_normal((n, p))
        H_true = rng.standard_normal((p, m))
        Y = U @ H_true + 0.1 * rng.standard_normal((n, m))
        state = AdaptiveState(p, m, lam)
        for u, y in zip(U, Y):
            state.update(u, y)
        oracle = batch_oracle(list(zip(U, Y)), lam)
        for got, want in ((state.H, oracle.H), (state.P, oracle.P),
                          (state.Sigma, oracle.Sigma)):
            err = _rel_frob(got, want)
            worst = max(worst, err)
            assert err <= 1e-8, \
                f"case {i} (lam={lam}, n={n}, p={p}, m={m}): rel err {err:.2e}"
        cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 100
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report("recursion-vs-batch",
            f"{cases} cases, worst rel Frobenius {worst:.2e} <= 1e-08, "
            f"{elapsed:.2f}s")


# -- 3. effective sample size without forgetting -----------------------------

def test_a03_effective_sample_size_counts_n():
    state = AdaptiveState(1, 1, forgetting=1.0)
    for n in range(1, 10_001):
        state.update([1.0], [0.0])
        if state.gamma != float(n):
            pytest.fail(f"gamma {state.gamma!r} != {n} at step {n}")
    _report("effective-sample-size", "gamma_n == n exactly for n = 1..10000")


# -- 4. pseudo-counts track event counts exactly -----------------------------

def test_a04_pseudo_counts_track_events_exactly():
    K, L = 3, 2
    table = DirichletTable(n_states=K, pattern_length=L)
    rng = np.random.default_rng(44)
    patterns = ("00", "01", "10")
    init_events: dict[tuple, int] = {}
    trans_events: dict[tuple, int] = {}
    for _ in range(600):
        pat = patterns[rng.integers(len(patterns))]
        state = int(rng.integers(1, K + 1))
        if rng.random() < 0.3:
            table.observe(pat, None, state)
            key = (pat, state)
            init_events[key] = init_events.get(key, 0) + 1
        else:
            prev = int(rng.integers(1, K + 1))
            table.observe(pat, prev, state)
            key = (pat, prev, state)
            trans_events[key] = trans_events.get(key, 0) + 1

    for pat in patterns:
        want_init = np.array([0.5 + init_events.get((pat, s), 0)
                              for s in range(1, K + 1)])
        assert np.array_equal(table.count_rows(pat)[0], want_init), pat
        want_trans = np.array([[0.5 + trans_events.get((pat, i, j), 0)
                                for j in range(1, K + 1)]
                               for i in range(1, K + 1)])
        assert np.array_equal(table.count_rows(pat)[1:], want_trans), pat

    # an untouched pattern stays at the symmetric prior
    assert np.array_equal(table.count_rows("11")[0], np.full(K, 0.5))

    worst = 0.0
    for pat in patterns + ("11",):
        sums = [table.expected_state_vector(pat).sum()]
        transitions = table.count_rows(pat)[1:]
        sums.extend((transitions / transitions.sum(axis=1, keepdims=True)).sum(axis=1))
        sums.append(table.expected_state_vector(pat, None).sum())
        for prev in range(1, K + 1):
            sums.append(table.expected_state_vector(pat, prev).sum())
        for s in sums:
            worst = max(worst, abs(s - 1.0))
            assert abs(s - 1.0) <= 1e-12
    _report("pseudo-count-conjugacy",
            f"{len(init_events)}+{len(trans_events)} event cells exact, "
            f"worst probability sum err {worst:.1e} <= 1e-12")


# -- 5. blend weight is the variance minimizer -------------------------------

def test_a05_blend_weight_minimizes_variance():
    rng = np.random.default_rng(55)
    start = time.perf_counter()
    var_u = rng.uniform(0.0, 10.0, 1000)
    var_v = rng.uniform(0.0, 10.0, 1000)
    var_u[0], var_v[1] = 0.0, 0.0
    var_u[2] = var_v[2] = 0.0

    states = []
    for var in (var_u, var_v):
        states.append(AdaptiveState(1, len(var), forgetting=1.0))
        states[-1].Sigma = np.diag(var)
    delta = combine([1.0], [1.0], *states, allow_cold_start=True).weights
    blended = delta ** 2 * var_u + (1.0 - delta) ** 2 * var_v

    grid = np.linspace(0.0, 1.0, 1001)
    grid_best = (grid[None, :] ** 2 * var_u[:, None]
                 + (1.0 - grid[None, :]) ** 2 * var_v[:, None]).min(axis=1)
    gap = blended - grid_best
    assert np.all(gap <= 1e-12), f"worst excess variance {gap.max():.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("blend-optimality",
            f"1000 variance pairs vs 1e-3 grid, worst excess "
            f"{gap.max():.2e} <= 1e-12, {elapsed:.2f}s")


# -- 6. interval calibration on a known two-state process --------------------

def test_a06_interval_calibration_on_known_process():
    spec = SyntheticSpec(
        states=2,
        transition=((0.0, 1.0), (1.0, 0.0)),
        state_means=((1.6, 0.7), (3.6, 2.7)),
        noise_cov=((0.0625, 0.0), (0.0, 0.0625)),
        initial=(1.0, 0.0),
        days=37, periods_per_shift=60, shift_codes=("M",),
        dt_max=0.3, qu_frac_max=0.02, seed=11)
    records = generate_synthetic(spec)

    features = FeatureConfig(
        response_names=("OpT", "NOpT"),
        z_spec=("shift_code==M",),
        w_spec=("ics", "@begins_shift", "@begins_order"),
        t_spec=("OpT", "NOpT"), q=0)
    config = ModelConfig(features=features, lambda_u=1.0, lambda_v=1.0,
                         allow_cold_start=True)
    model = IoHmmModel(config)
    points = np.array([classification_vector(r, features) for r in records])
    model.attach_clusters(fit_auto_k(points, threshold=0.8, k_max=4, seed=0))
    assert model.clusters.K == 2

    steps = model.run_online(records)
    evals = [s for s in steps if s.forecast is not None and s.index >= 200]
    evals = evals[:2000]
    assert len(evals) == 2000

    covered = []
    for j, name in enumerate(features.response_names):
        hits = sum(s.forecast.intervals[j][0] <= s.y[j]
                   <= s.forecast.intervals[j][1] for s in evals)
        rate = hits / len(evals)
        covered.append((name, rate))
        assert 0.92 <= rate <= 0.97, f"{name}: coverage {rate:.4f}"
    detail = ", ".join(f"{name} {rate:.4f}" for name, rate in covered)
    _report("interval-calibration",
            f"2000 periods after 200 burn-in, coverage in [0.92, 0.97]: "
            f"{detail}")


# -- 7. static VARX recovery --------------------------------------------------

def test_a07_varx_coefficient_recovery():
    rng = np.random.default_rng(77)
    n = 2000
    c = np.array([0.5, -0.3])
    Phi = np.array([[0.5, 0.1], [-0.2, 0.4]])
    B = np.array([[0.3, -0.1], [0.2, 0.25]])
    G = rng.standard_normal((n, 2))
    Y = np.zeros((n, 2))
    for t in range(1, n):
        Y[t] = c + Phi @ Y[t - 1] + B @ G[t] + 0.1 * rng.standard_normal(2)

    model = fit_varx(Y, G, q=1)
    errs = (np.abs(model.intercept - c).max(),
            np.abs(model.phi[0] - Phi).max(),
            np.abs(model.beta - B).max())
    assert max(errs) <= 0.05, f"entrywise coefficient error {max(errs):.4f}"

    # orthogonality of residuals against an independently built design
    X = np.column_stack([np.ones(n - 1), Y[:-1], G[1:]])
    Yhat = (model.intercept[None, :] + Y[:-1] @ model.phi[0].T
            + G[1:] @ model.beta.T)
    E = Y[1:] - Yhat
    bound = 1e-8 * np.linalg.norm(X) * np.linalg.norm(Y[1:])
    resid = np.linalg.norm(X.T @ E)
    assert resid < bound, f"|X'e| = {resid:.2e} >= {bound:.2e}"
    _report("varx-recovery",
            f"max coefficient err {max(errs):.4f} <= 0.05, "
            f"|X'e| {resid:.2e} < 1e-8 |X||Y| = {bound:.2e}")


# -- 8. benchmark ordering on favorable data ----------------------------------

def test_a08_lagged_model_beats_persistence():
    wins = 0
    margins = []
    for seed in range(10):
        spec = SyntheticSpec(
            states=2,
            transition=((0.0, 1.0), (1.0, 0.0)),
            state_means=((4.0, 3.2), (0.5, 0.3)),
            ar=(((0.8, 0.0), (0.0, 0.8)),),
            noise_cov=((0.0625, 0.0), (0.0, 0.0625)),
            initial=(1.0, 0.0),
            days=28, periods_per_shift=12,
            dt_max=0.4, qu_frac_max=0.05, seed=seed)
        records = generate_synthetic(spec)
        assert len(records) == 1008
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = leave_one_week_out(
                records, model_names=("persistence", "iohmm-q1"),
                seed=0, k_max=3)
        totals: dict[str, tuple[float, int]] = {}
        for row in result.rows:
            if row.metric != "mae":
                continue
            num, den = totals.get(row.model, (0.0, 0))
            totals[row.model] = (num + row.value * row.count, den + row.count)
        score = {m: num / den for m, (num, den) in totals.items()}
        margins.append(score["persistence"] - score["iohmm-q1"])
        wins += score["iohmm-q1"] <= score["persistence"]
    assert wins >= 9, f"only {wins}/10 seeds"
    _report("benchmark-ordering",
            f"lagged model at or under persistence MAE in {wins}/10 seeds, "
            f"median margin {np.median(margins):.3f}")


# -- 9. automatic cluster count on separated blobs ----------------------------

def _blob_points(centers, per_blob, rng):
    centers = np.asarray(centers, dtype=float)
    pts = np.concatenate([
        center + rng.standard_normal((per_blob, centers.shape[1]))
        for center in centers])
    return pts


def _brute_force_gof(model, points) -> float:
    z = model.standardizer.transform(np.asarray(points, dtype=float))
    labels = np.array([model.assign(p) for p in points])
    tss = ((z - z.mean(axis=0)) ** 2).sum()
    wss = 0.0
    for k in range(1, model.K + 1):
        members = z[labels == k]
        wss += ((members - members.mean(axis=0)) ** 2).sum()
    return 1.0 - wss / tss


def test_a09_auto_cluster_count_on_blobs():
    rng = np.random.default_rng(99)
    fixtures = (
        ([[0.0, 0.0], [10.0, 10.0]], 2),
        ([[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]], 3),
    )
    details = []
    for centers, want_k in fixtures:
        points = _blob_points(centers, per_blob=80, rng=rng)
        model = fit_auto_k(points, threshold=0.8, k_max=8, seed=0)
        assert model.K == want_k, f"expected K={want_k}, got {model.K}"
        assert model.reached_threshold
        check = _brute_force_gof(model, points)
        assert check >= 0.8
        assert abs(check - model.gof) <= 1e-9, \
            f"stored ratio {model.gof:.12f} vs brute force {check:.12f}"
        details.append(f"K={model.K} ratio {model.gof:.4f}")
    _report("auto-cluster-count", "; ".join(details) + ", brute-force match")


# -- 10. deterministic reports and snapshot replay ----------------------------

def _two_state_records(days: int, seed: int):
    spec = SyntheticSpec(
        states=2,
        transition=((0.85, 0.15), (0.25, 0.75)),
        state_means=((3.0, 2.8), (2.2, 2.0)),
        noise_cov=((0.01, 0.0), (0.0, 0.01)),
        days=days, periods_per_shift=6,
        dt_max=0.4, qu_frac_max=0.05, seed=seed)
    return generate_synthetic(spec)


def test_a10_deterministic_reports_and_snapshot_replay():
    # identical (config, data, seed) must give byte-identical reports
    names = ("persistence", "iohmm-q1", "varx-q1")
    outputs = []
    for _ in range(2):
        records = _two_state_records(days=14, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = leave_one_week_out(records, model_names=names,
                                        seed=0, k_max=6)
        outputs.append((emit_report(report, format="csv").encode(),
                        emit_report(report, format="structured-text").encode()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]

    # a restored snapshot must reproduce every subsequent forecast exactly
    records = _two_state_records(days=14, seed=4)
    features = FeatureConfig(
        response_names=("OpT", "NOpT"),
        z_spec=("shift_code==M", "shift_code==A", "shift_code==N"),
        w_spec=("ics", "@begins_shift", "@begins_order"),
        t_spec=("OpT", "NOpT"), q=1)
    config = ModelConfig(features=features, allow_cold_start=True)
    model = IoHmmModel(config)
    model.fit(records[:150], seed=0, threshold=0.8, k_max=4)
    clone = IoHmmModel.restore(json.loads(model.to_json()))

    tail = records[150:]
    steps_a = model.run_online(tail)
    steps_b = clone.run_online(tail)
    assert len(steps_a) == len(steps_b)
    compared = 0
    for a, b in zip(steps_a, steps_b):
        assert a.state == b.state
        assert (a.forecast is None) == (b.forecast is None)
        if a.forecast is None:
            continue
        assert np.array_equal(a.forecast.y_hat, b.forecast.y_hat)
        assert np.array_equal(a.forecast.sigma, b.forecast.sigma)
        assert np.array_equal(a.forecast.intervals, b.forecast.intervals)
        assert a.forecast.state == b.forecast.state
        compared += 1
    assert compared == len(tail) - features.q - 1
    assert model.to_json() == clone.to_json()
    _report("determinism-and-snapshot",
            f"reports byte-identical across reruns; {compared} replayed "
            f"forecasts bitwise equal after restore")


# -- 11. metric functions against a single-pass oracle ------------------------

def test_a11_metric_functions_match_single_pass():
    rng = np.random.default_rng(111)
    n = 10_000
    actual = rng.normal(0.0, 5.0, n)
    predicted = actual + rng.normal(0.0, 1.0, n)
    sd = np.abs(rng.normal(1.0, 0.3, n)) + 0.05

    abs_sum = math.fsum(abs(a - p) for a, p in zip(actual, predicted))
    sq_sum = math.fsum((a - p) ** 2 for a, p in zip(actual, predicted))
    hits = sum(abs(a - p) <= 1.96 * s
               for a, p, s in zip(actual, predicted, sd))

    pairs = (np.asarray(v, dtype=float) for v in (actual, predicted, sd))
    sums = {name: col.sum() for name, col in columns(*pairs).items()}
    scores = cell_scores(sums, n)
    diffs = (abs(scores["mae"] - abs_sum / n),
             abs(scores["rmse"] - math.sqrt(sq_sum / n)),
             abs(scores["covg"] - hits / n))
    assert max(diffs) <= 1e-12, f"worst metric deviation {max(diffs):.2e}"
    _report("metric-parity",
            f"mae/rmse/coverage on {n} pairs, worst deviation "
            f"{max(diffs):.2e} <= 1e-12")
