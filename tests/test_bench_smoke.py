"""The benchmark's own output checks pass on shortened workloads."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def _check(workload, tmp_path, units):
    state = workload.setup(1, tmp_path)
    outcome = workload.run(state, time.perf_counter, units=units)
    problems, findings = workload.check(state, outcome)
    assert problems == []
    assert outcome.failed == 0 and outcome.attempted > 0, outcome.first_error
    return findings, outcome.digest


# Digest of the 20-day stream below: every step (state, forecast, pattern)
# and the final snapshot. Any change to it moves an output byte of
# `run_online` and must be declared as a behaviour change.
SHORT_STREAM_SHA256 = "05dcb847ba7dc2a1afe1390ee3a34d38a1645ba73a95ac686a9c82bc7311bfac"


def test_stream_year_check_passes(workloads, tmp_path):
    class ShortStream(workloads.StreamYear):
        days = 20

    findings, digest = _check(ShortStream(), tmp_path, units=1)
    assert findings["forecasts"] > 0
    assert digest == SHORT_STREAM_SHA256


def test_cli_forecast_check_passes(workloads, tmp_path):
    class ShortForecast(workloads.CliForecast):
        fit_days = 3
        score_days = 1

    findings, _ = _check(ShortForecast(), tmp_path, units=2)
    assert findings["forecasts"] == workloads.PER_DAY


# Report of the 14-day LOWO below. Any change to it moves an output byte of
# `opcast evaluate` and must be declared as a behaviour change.
SHORT_LOWO_SHA256 = "c7f26c61f92076d7917f3844371d9a4c34afd87afdeab96f2a325dc408a37c0c"


def test_lowo_default_check_passes(workloads, tmp_path):
    class ShortLowo(workloads.LowoDefault):
        days = 14

    findings, _ = _check(ShortLowo(), tmp_path, units=1)
    assert findings["folds"] == 2
    assert findings["report_sha256"] == SHORT_LOWO_SHA256


def test_lowo_fold_training_runs_stacked(workloads, tmp_path, monkeypatch):
    # each fold learns its IO-HMM variants in one stacked pass and walks
    # them through the test week in one more: no record-by-record walk or
    # update is left
    from opcast.estimator import AdaptiveState
    from opcast.model import IoHmmModel

    def forbidden(*args, **kwargs):
        raise AssertionError("record-by-record work in a LOWO run")

    monkeypatch.setattr(AdaptiveState, "_update", forbidden)
    monkeypatch.setattr(IoHmmModel, "run_online", forbidden)

    class ShortLowo(workloads.LowoDefault):
        days = 14

    findings, _ = _check(ShortLowo(), tmp_path, units=1)
    assert findings["report_sha256"] == SHORT_LOWO_SHA256
