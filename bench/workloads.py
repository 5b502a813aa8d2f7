"""The benchmark's three workloads.

Each workload runs in one process with one caller, as a closed loop: the
next operation starts when the previous one has returned. Inputs come from
``generate_synthetic`` with the seed given on the command line; the program
only ever sees the generated records or the CSV files written from them.

A workload has three parts:

* ``setup(seed, workdir)`` generates the inputs and does the program's own
  set-up. It returns a fresh state and is timed by the caller.
* ``run(state, clock, seconds, units)`` repeats the workload's unit of work,
  either until ``seconds`` have passed on ``clock`` (at least one unit) or
  exactly ``units`` times. It records the span of every operation that
  succeeded. Operations that raise or exit non-zero are counted as failed
  and the run goes on; nothing is retried.
* ``check(state, outcome)`` verifies the outputs and scores their accuracy.

``tail`` is the latency percentile reported next to the median (``None``:
the slowest operation).
"""

from __future__ import annotations

import contextlib
import csv
from array import array
import hashlib
import io
import json
import math
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import opcast.cli
from opcast.errors import ConditioningWarning
from opcast.features import (assemble_next_features, classification_vector,
                             default_feature_config)
from opcast.harness import DEFAULT_MODELS
from opcast.model import IoHmmModel, ModelConfig
from opcast.records import write_dataset
from opcast.synthetic import SyntheticSpec, generate_synthetic

SHIFT_CODES = ("M", "A", "N")
PERIODS_PER_SHIFT = 6
PER_DAY = len(SHIFT_CODES) * PERIODS_PER_SHIFT
RESPONSES = ("OpT", "NOpT")
NOMINAL_COVERAGE = 0.95


def make_records(days: int, seed: int):
    """Three hidden states with sticky transitions, 3 shifts x 6 periods a day."""
    spec = SyntheticSpec(
        states=3,
        transition=((0.80, 0.15, 0.05), (0.10, 0.80, 0.10), (0.05, 0.15, 0.80)),
        state_means=((3.2, 2.9), (2.4, 2.0), (1.5, 1.1)),
        noise_cov=((0.04, 0.01), (0.01, 0.04)),
        ar=(((0.3, 0.0), (0.0, 0.3)),),
        shift_effects={"N": (-0.2, -0.2)},
        days=days, periods_per_shift=PERIODS_PER_SHIFT, shift_codes=SHIFT_CODES,
        dt_max=0.4, qu_frac_max=0.05, seed=seed)
    return generate_synthetic(spec)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one in-process ``opcast`` command; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = opcast.cli.main(argv)
    return code, out.getvalue()


def coverage_gap(covered: float) -> float:
    return abs(covered - NOMINAL_COVERAGE)


@dataclass
class Spans:
    """Start and end of each successful operation on the run's clock."""

    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))

    def add(self, start: float, end: float) -> None:
        self.starts.append(start)
        self.ends.append(end)

    def __len__(self) -> int:
        return len(self.starts)


@dataclass
class Outcome:
    """What one run did: operations, their spans and an output digest."""

    attempted: int = 0
    failed: int = 0
    spans: Spans = field(default_factory=Spans)
    units: int = 0
    digest: str = ""
    first_error: str | None = None
    warnings: dict[str, int] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def fail(self, exc: BaseException | str) -> None:
        """Count a failed operation; keep the first one's traceback or message."""
        self.failed += 1
        if self.first_error is None:
            self.first_error = exc if isinstance(exc, str) else \
                "".join(traceback.format_exception(exc)).rstrip()


@contextlib.contextmanager
def counting_warnings(outcome: Outcome):
    """Record every warning the program emits, counted by category."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for item in caught:
        name = item.category.__name__
        outcome.warnings[name] = outcome.warnings.get(name, 0) + 1


def _keep_going(clock, start: float, seconds, units, done: int) -> bool:
    if units is not None:
        return done < units
    return done == 0 or clock() - start < seconds


def _time_cli(outcome: Outcome, clock, argv: list[str]) -> str | None:
    """One timed CLI operation; its stdout, or None if it failed."""
    outcome.attempted += 1
    start = clock()
    try:
        code, text = call_cli(argv)
    except Exception as exc:  # one failed operation, not a failed run
        outcome.fail(exc)
        return None
    end = clock()
    if code != 0:
        outcome.fail(f"{argv[0]} exited with code {code}")
        return None
    outcome.spans.add(start, end)
    return text


# -- lowo-default -------------------------------------------------------------

class LowoDefault:
    """``opcast evaluate`` with the default 17 models on 504 records."""

    name = "lowo-default"
    days = 28
    tail = None
    trace_units = 1

    def setup(self, seed: int, workdir: Path):
        records = make_records(self.days, seed)
        data = workdir / "lowo.csv"
        write_dataset(records, data)
        return {"records": records, "data": str(data),
                "report": str(workdir / "lowo-report.csv")}

    def run(self, state, clock, seconds=None, units=None) -> Outcome:
        outcome = Outcome()
        reports = []
        argv = ["evaluate", "--data", state["data"], "--out", state["report"]]
        start = clock()
        with counting_warnings(outcome):
            while _keep_going(clock, start, seconds, units, outcome.units):
                outcome.units += 1
                if _time_cli(outcome, clock, argv) is not None:
                    with open(state["report"]) as fh:
                        reports.append(fh.read())
        outcome.extra["reports"] = reports
        outcome.digest = hashlib.sha256("".join(reports[:1]).encode()).hexdigest()
        return outcome

    def check(self, state, outcome: Outcome) -> tuple[list[str], dict]:
        problems: list[str] = []
        reports = outcome.extra["reports"]
        if not reports:
            return ["no evaluation finished"], {}
        if any(text != reports[0] for text in reports):
            problems.append("repeated evaluations wrote different reports")
        rows = list(csv.DictReader(io.StringIO(reports[0])))
        iso = (rec.date.isocalendar() for rec in state["records"])
        folds = sorted({f"{year}-W{week:02d}" for year, week, _ in iso})
        cells = {(r["model"], r["fold"], r["response"], r["metric"]) for r in rows}
        for model in DEFAULT_MODELS:
            metrics = ("mae", "rmse") if model == "persistence" else ("mae", "rmse", "covg")
            for fold in folds:
                for response in RESPONSES:
                    for metric in metrics:
                        if (model, fold, response, metric) not in cells:
                            problems.append(f"report lacks {model}/{fold}/{response}/{metric}")
        weighted = {"mae": [0.0, 0], "covg": [0.0, 0]}
        for row in rows:
            value = float(row["value"])
            if not math.isfinite(value):
                problems.append(f"non-finite value in report row {row}")
                continue
            if row["metric"] == "covg" and not 0.0 <= value <= 1.0:
                problems.append(f"coverage {value} outside [0, 1]")
            if row["model"] != "_summary" and row["metric"] in weighted:
                weighted[row["metric"]][0] += value * int(row["count"])
                weighted[row["metric"]][1] += int(row["count"])
        if weighted["mae"][1] == 0 or weighted["covg"][1] == 0:
            return problems + ["report has no mae or covg rows"], {}
        return problems, {"mae": weighted["mae"][0] / weighted["mae"][1],
                          "covg": weighted["covg"][0] / weighted["covg"][1],
                          "folds": len(folds), "report_sha256": outcome.digest}

    def named_metrics(self, outcome: Outcome, findings: dict, scale) -> list[tuple]:
        return [("lowo_s", float(np.median(scale(outcome.spans))), "s"),
                ("lowo_mae", findings["mae"], "min"),
                ("lowo_covg_gap", coverage_gap(findings["covg"]), "share")]


# -- stream-year --------------------------------------------------------------

def _cond_p_u(model) -> float:
    """Largest condition number of a regressor-side precision proxy ``P``."""
    return max(float(np.linalg.cond(states.u.P)) for states in model.params.values())


def _hash_step(digest, index: int, step) -> None:
    digest.update(f"{index},{step.state};".encode())
    fc = step.forecast
    if fc is not None:
        for arr in (fc.y_hat, fc.sigma, fc.weights, fc.intervals):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(f"{fc.cold_start},{fc.state},{fc.pattern},{fc.begins};".encode())


class StreamYear:
    """A year of records fed one at a time to ``run_online``, saved daily."""

    name = "stream-year"
    days = 365
    fit_days = 14
    tail = 90                # the p99 steps slow down more than the speed probe
    trace_units = 1

    def setup(self, seed: int, workdir: Path):
        records = make_records(self.days, seed)
        config = ModelConfig(features=default_feature_config(records))
        n_fit = self.fit_days * PER_DAY
        model = IoHmmModel(config).fit(records[:n_fit])
        return {"records": records, "n_fit": n_fit, "model": model,
                "fitted": model.to_json(), "q": config.features.q,
                "checkpoint": str(workdir / "checkpoint.json")}

    def _year(self, model, state, clock, outcome: Outcome, score: dict | None) -> str:
        """Stream every record after the fit window once; return the output digest.

        ``score``, when given, accumulates the forecast errors and coverage.
        """
        records, q, path = state["records"], state["q"], state["checkpoint"]
        checkpoints = outcome.extra["checkpoints"]
        digest = hashlib.sha256()
        for i in range(state["n_fit"], len(records)):
            window = records[i - q - 1:i + 1]
            outcome.attempted += 1
            start = clock()
            try:
                step = model.run_online(window, indices=[q + 1])[0]
            except Exception as exc:  # one failed step; the stream goes on
                outcome.fail(exc)
            else:
                outcome.spans.add(start, clock())
                _hash_step(digest, i, step)
                fc = step.forecast
                if score is not None and fc is not None:
                    score["abs_error"] += np.abs(step.y - fc.y_hat).sum()
                    score["covered"] += int(((fc.intervals[:, 0] <= step.y)
                                             & (step.y <= fc.intervals[:, 1])).sum())
                    score["values"] += step.y.size
            if (i + 1) % PER_DAY == 0:
                outcome.attempted += 1
                start = clock()
                try:
                    model.save(path)
                except Exception as exc:
                    outcome.fail(exc)
                else:
                    checkpoints.add(start, clock())
        digest.update(model.to_json().encode())
        return digest.hexdigest()

    def run(self, state, clock, seconds=None, units=None) -> Outcome:
        outcome = Outcome(extra={"checkpoints": Spans(),
                                 "score": {"abs_error": 0.0, "covered": 0, "values": 0}})
        digests = []
        start = clock()
        with counting_warnings(outcome):
            while _keep_going(clock, start, seconds, units, outcome.units):
                # the first pass drives the fitted model itself, later ones a
                # restored copy of it, so every pass starts from the same state
                first = outcome.units == 0
                model = state["model"] if first else \
                    IoHmmModel.restore(json.loads(state["fitted"]))
                digests.append(self._year(model, state, clock, outcome,
                                          outcome.extra["score"] if first else None))
                if first:
                    outcome.extra["live"] = model
                outcome.units += 1
        outcome.digest = digests[0]
        outcome.extra["pass_digests"] = digests
        return outcome

    def check(self, state, outcome: Outcome) -> tuple[list[str], dict]:
        problems: list[str] = []
        if len(set(outcome.extra["pass_digests"])) != 1:
            problems.append("passes over the same year gave different outputs")
        live = outcome.extra["live"]
        if IoHmmModel.load(state["checkpoint"]).to_json() != live.to_json():
            problems.append("the last checkpoint does not restore to the live model")
        records, n_fit = state["records"], state["n_fit"]
        if outcome.failed:
            outcome.extra["note"] = "batch replay skipped: some steps failed"
        else:
            clone = IoHmmModel.restore(json.loads(state["fitted"]))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    batch = clone.run_online(records, indices=range(n_fit, len(records)))
            except Exception as exc:
                problems.append(f"batch run_online raised {type(exc).__name__}: {exc}")
            else:
                digest = hashlib.sha256()
                for step in batch:
                    _hash_step(digest, step.index, step)
                digest.update(clone.to_json().encode())
                if digest.hexdigest() != outcome.digest:
                    problems.append("per-record steps differ from one batch run_online")
        score = outcome.extra["score"]
        if not score["values"]:
            return problems + ["the stream made no forecasts"], {}
        return problems, {"mae": score["abs_error"] / score["values"],
                          "covg": score["covered"] / score["values"],
                          "forecasts": score["values"] // len(RESPONSES),
                          "cond_p_u": _cond_p_u(live),
                          "snapshot_bytes": Path(state["checkpoint"]).stat().st_size}

    def named_metrics(self, outcome: Outcome, findings: dict, scale) -> list[tuple]:
        steps = scale(outcome.spans)
        checkpoints = scale(outcome.extra["checkpoints"])
        return [("step_p50_us", float(np.median(steps)) * 1e6, "us"),
                ("step_p99_us", float(np.percentile(steps, 99)) * 1e6, "us"),
                ("checkpoint_p50_ms", float(np.median(checkpoints)) * 1e3, "ms"),
                ("stream_mae", findings["mae"], "min"),
                ("stream_covg_gap", coverage_gap(findings["covg"]), "share"),
                ("conditioning_warnings_per_year",   # every pass repeats the same year
                 outcome.warnings.get(ConditioningWarning.__name__, 0) // outcome.units,
                 "count"),
                ("cond_p_u_max", findings["cond_p_u"], "ratio")]


# -- cli-forecast -------------------------------------------------------------

class CliForecast:
    """``opcast forecast`` requests against a snapshot fitted on 90 days."""

    name = "cli-forecast"
    fit_days = 90
    score_days = 60          # days after the fit over which the snapshot is scored
    tail = 90                # about ten requests lie beyond it in a 10 s run
    trace_units = 2 * PER_DAY

    def setup(self, seed: int, workdir: Path):
        records = make_records(self.fit_days + self.score_days, seed)
        n_fit = self.fit_days * PER_DAY
        text = io.StringIO()
        write_dataset(records[:n_fit + PER_DAY - 1], text)
        lines = text.getvalue().splitlines(keepends=True)
        histories = []
        for j in range(PER_DAY):
            path = workdir / f"history-{j:02d}.csv"
            path.write_text("".join(lines[:1 + n_fit + j]))
            histories.append(str(path))
        snapshot = str(workdir / "snapshot.json")
        code, _ = call_cli(["fit", "--data", histories[0], "--out", snapshot])
        if code != 0:
            raise RuntimeError(f"opcast fit exited with code {code}")
        # one request per period of the day after the fit: history up to the
        # period, its announced shift label, speed and order change
        requests = []
        for j, path in enumerate(histories):
            target, last = records[n_fit + j], records[n_fit + j - 1]
            argv = ["forecast", "--snapshot", snapshot, "--data", path,
                    "--shift", target.shift, "--ics", repr(target.ics)]
            if target.pr_ord != last.pr_ord:
                argv.append("--new-order")
            requests.append(argv)
        return {"records": records, "n_fit": n_fit, "snapshot": snapshot,
                "requests": requests}

    def run(self, state, clock, seconds=None, units=None) -> Outcome:
        outcome = Outcome(extra={"responses": []})
        requests = state["requests"]
        start = clock()
        with counting_warnings(outcome):
            while _keep_going(clock, start, seconds, units, outcome.units):
                j = outcome.units % len(requests)
                outcome.units += 1
                text = _time_cli(outcome, clock, requests[j])
                if text is not None:
                    outcome.extra["responses"].append((j, text))
        digest = hashlib.sha256()
        for j, text in outcome.extra["responses"]:
            digest.update(f"{j}:{text}".encode())
        outcome.digest = digest.hexdigest()
        return outcome

    @staticmethod
    def served(doc: dict, records, t: int):
        """The forecast ``opcast forecast`` serves for record ``t``, in process."""
        model = IoHmmModel.restore(doc)   # fresh: forecast_step moves a centroid
        fc = model.config.features
        target, last = records[t], records[t - 1]
        z, w, begins = assemble_next_features(records[:t], fc, target.shift,
                                              ics=target.ics,
                                              new_order=target.pr_ord != last.pr_ord)
        result = model.forecast_step(classification_vector(last, fc), z, w, begins)
        text = json.dumps(result.to_dict(fc.response_names), sort_keys=True, indent=2) + "\n"
        return result, text

    def check(self, state, outcome: Outcome) -> tuple[list[str], dict]:
        problems: list[str] = []
        records, n_fit = state["records"], state["n_fit"]
        with open(state["snapshot"]) as fh:
            doc = json.load(fh)
        expected = {}
        for j, text in outcome.extra["responses"]:
            if j not in expected:
                expected[j] = self.served(doc, records, n_fit + j)[1]
            if text != expected[j]:
                problems.append(f"request {j} differs from load + forecast_step")
        if not outcome.extra["responses"]:
            problems.append("no request succeeded")
        errors, covered = [], []
        for t in range(n_fit, n_fit + self.score_days * PER_DAY):
            result, _ = self.served(doc, records, t)
            y = np.array([getattr(records[t], name) for name in RESPONSES])
            errors.append(np.abs(y - result.y_hat))
            covered.append((result.intervals[:, 0] <= y) & (y <= result.intervals[:, 1]))
        return problems, {"mae": float(np.mean(errors)), "covg": float(np.mean(covered)),
                          "forecasts": len(errors),
                          "cond_p_u": _cond_p_u(IoHmmModel.restore(doc)),
                          "snapshot_bytes": Path(state["snapshot"]).stat().st_size}

    def named_metrics(self, outcome: Outcome, findings: dict, scale) -> list[tuple]:
        requests = scale(outcome.spans)
        return [("forecast_p50_ms", float(np.median(requests)) * 1e3, "ms"),
                ("forecast_p90_ms", float(np.percentile(requests, 90)) * 1e3, "ms"),
                ("forecast_p95_ms", float(np.percentile(requests, 95)) * 1e3, "ms"),
                ("served_mae", findings["mae"], "min"),
                ("served_covg_gap", coverage_gap(findings["covg"]), "share")]


WORKLOADS = {wl.name: wl for wl in (LowoDefault(), StreamYear(), CliForecast())}
