"""opcast benchmark: LOWO evaluation, year-long streaming, CLI forecasts.

Run from the root of a source checkout:

    python3 bench/run.py --workload stream-year --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout (no install step).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` it carries the end-to-end metrics of an
untraced run; with ``--trace 1`` the per-layer metrics of a traced run that
does a fixed amount of work. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# One caller, no threads: keep BLAS single-threaded too, before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from speed import REFERENCE_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _import_package():
    """Import opcast from this checkout's ``src/``; None if it is not there."""
    if not (SRC / "opcast" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import opcast
    if Path(opcast.__file__).resolve().parent != (SRC / "opcast").resolve():
        return None
    return opcast


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             text=True, capture_output=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        git = []
    # a checkout that is not itself a git work tree has no commit of its own
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    source = hashlib.sha256()
    for path in sorted((SRC / "opcast").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed, workdir, clock):
    """One set-up; the state and its span on ``clock``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = clock()
        state = workload.setup(seed, workdir)
        return state, (start, clock())


def _summary(durations, tail) -> tuple[float, float]:
    """Median and tail (a percentile, or the maximum when ``tail`` is None)."""
    tail_value = max(durations) if tail is None else np.percentile(durations, tail)
    return float(np.median(durations)), float(tail_value)


def _show(name, value, unit) -> None:
    print(f"  {name:<44} {value:>14.6g} {unit}")


def run_untraced(workload, seed, seconds, workdir) -> dict:
    """Set up several times, then measure for ``seconds``: end-to-end metrics."""
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            state, span = _setup(workload, seed, workdir, probe.now)
            setups.append(span)
        outcome = workload.run(state, probe.now, seconds=seconds)
    if not outcome.spans:
        raise SystemExit(f"every operation failed; first error: {outcome.first_error}")
    problems, findings = workload.check(state, outcome)

    def scale(spans):
        return probe.scaled(spans.starts, spans.ends)

    setup_times = probe.scaled(*zip(*setups))
    p50, tail = _summary(scale(outcome.spans), workload.tail)
    raw_p50, raw_tail = _summary(np.subtract(outcome.spans.ends, outcome.spans.starts),
                                 workload.tail)
    metrics = {
        "setup_s": (float(np.median(setup_times)), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "mae": (findings["mae"], "min"),
        "covg": (findings["covg"], "share"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    tail_name = "max" if workload.tail is None else f"p{workload.tail}"
    print(f"workload {workload.name}: {outcome.units} units, {outcome.attempted} operations, "
          f"{len(outcome.spans)} timed, tail = {tail_name}")
    print(f"  speed probe: {len(probe.durations)} samples, median "
          f"{np.median(probe.durations) * 1e3:.4f} ms (reference {REFERENCE_S * 1e3:g} ms)")
    print(f"  unscaled op p50 {raw_p50 * 1e3:.6g} ms, {tail_name} {raw_tail * 1e3:.6g} ms")
    print("named metrics (scaled to reference speed):")
    for name, value, unit in workload.named_metrics(outcome, findings, scale):
        _show(name, value, unit)
    _show("setup_s", metrics["setup_s"][0], "s")
    _show("failed_share", outcome.failed / outcome.attempted, "share")
    _show("peak_rss_mb", metrics["peak_rss_mb"][0], "MB")
    print(f"  setup repeats: {', '.join(f'{t:.4f}' for t in setup_times)} s")
    for key in ("report_sha256", "folds", "forecasts"):
        if key in findings:
            print(f"  {key}: {findings[key]}")
    print(f"  output digest: {outcome.digest[:16]}")
    print(f"  warnings: {json.dumps(outcome.warnings, sort_keys=True)}")
    return {"problems": problems, "outcome": outcome, "metrics": metrics,
            "note": outcome.extra.get("note")}


# Per layer, the figures reported for it. time_s and self_time_s are totals
# over the run; time_ms, time_us and self_time_ms are means per call.
LAYER_FIELDS = (
    ("records.parse_dataset", ("calls", "time_ms")),
    ("features.build_features", ("calls", "time_s")),
    ("features.assemble_next_features", ("calls", "time_ms")),
    ("clustering.fit_auto_k", ("calls", "time_s")),
    ("clustering.assign", ("calls", "time_us")),
    ("dirichlet.expected_state_vector", ("calls", "time_us")),
    ("estimator.update", ("calls", "time_us")),
    ("estimator.covariance", ("calls", "time_us")),
    ("model.fit", ("calls", "time_s")),
    ("model.run_online", ("calls", "time_s")),
    ("model.forecast_step", ("calls", "time_us")),
    ("model.learn_step", ("calls", "time_us")),
    ("model.combine", ("calls", "time_us")),
    ("model.save", ("calls", "time_ms")),
    ("model.load", ("calls", "time_ms")),
    ("benchmarks.fit_varx", ("calls", "time_s")),
    ("benchmarks.predict_varx", ("calls", "time_s")),
    ("harness.leave_one_week_out", ("calls", "self_time_s")),
    ("harness.emit_report", ("calls", "time_ms")),
    ("cli.main", ("calls", "self_time_ms")),
)
FIELDS = {
    "calls": (lambda st: st.calls, "count"),
    "time_s": (lambda st: st.total, "s"),
    "self_time_s": (lambda st: st.self_time, "s"),
    "time_ms": (lambda st: _ratio(st.total * 1e3, st.calls), "ms"),
    "time_us": (lambda st: _ratio(st.total * 1e6, st.calls), "us"),
    "self_time_ms": (lambda st: _ratio(st.self_time * 1e3, st.calls), "ms"),
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(layers, outcome, findings, slowdown: float) -> dict:
    """Per-layer counts and ratios, and times divided by the run's ``slowdown``."""
    metrics = {}
    for layer, fields in LAYER_FIELDS:
        for field in fields:
            value, unit = FIELDS[field]
            metrics[f"{layer}.{field}"] = (value(layers[layer]), unit)
    parse, features = layers["records.parse_dataset"], layers["features.build_features"]
    forecasts = layers["model.forecast_step"].calls
    metrics.update({
        "records.parse_dataset.us_per_record": (
            _ratio(parse.total * 1e6, parse.items), "us"),
        "features.build_features.records": (features.items, "count"),
        "features.records_per_forecast": (_ratio(features.items, forecasts), "ratio"),
        "clustering.fit_auto_k.per_fold": (
            _ratio(layers["clustering.fit_auto_k"].calls, findings.get("folds", 0)), "ratio"),
        "clustering.assign.per_step": (
            _ratio(layers["clustering.assign"].calls, layers["model.learn_step"].calls),
            "ratio"),
        "estimator.conditioning_warnings": (
            outcome.warnings.get("ConditioningWarning", 0), "count"),
        "estimator.cond_p_u_max": (findings.get("cond_p_u", 0.0), "ratio"),
        "model.snapshot_bytes": (findings.get("snapshot_bytes", 0), "bytes"),
    })
    return {name: (value / slowdown if unit in ("s", "ms", "us") else value, unit)
            for name, (value, unit) in sorted(metrics.items())}


def run_traced(workload, seed, workdir) -> dict:
    """Fixed work untraced, then the same work traced: per-layer metrics."""
    from tracing import Tracer

    plain_dir, traced_dir = workdir / "plain", workdir / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    with SpeedProbe() as probe:
        tracer = Tracer(probe.now)
        start = probe.now()
        state, _ = _setup(workload, seed, plain_dir, probe.now)
        plain = workload.run(state, probe.now, units=workload.trace_units)
        plain_span = (start, probe.now())
        with tracer:
            start = probe.now()
            traced_state, _ = _setup(workload, seed, traced_dir, probe.now)
            traced = workload.run(traced_state, probe.now, units=workload.trace_units)
            traced_span = (start, probe.now())
    problems, findings = workload.check(state, plain)
    if traced.digest != plain.digest:
        problems.append("the traced run's outputs differ from the untraced run's")
    plain_s, traced_s = probe.scaled(*zip(plain_span, traced_span))
    slowdown = (traced_span[1] - traced_span[0]) / traced_s

    metrics = _layer_metrics(tracer.layers, traced, findings, slowdown)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    print(f"workload {workload.name} traced: {traced.units} units, "
          f"{traced.attempted} operations")
    print(f"  set-up and work at reference speed: untraced {plain_s:.4f} s, "
          f"traced {traced_s:.4f} s")
    print(f"  output digest untraced {plain.digest[:16]}, traced {traced.digest[:16]}")
    print(f"per-layer metrics (times divided by the slowdown {slowdown:.4f}):")
    for name, (value, unit) in metrics.items():
        _show(name, value, unit)
    return {"problems": problems, "outcome": traced, "metrics": metrics,
            "note": plain.extra.get("note")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_package() is None:
        print(f"error: no opcast sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"env {json.dumps(_environment(), sort_keys=True)}")
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        if args.trace:
            result = run_traced(workload, args.seed, workdir)
        else:
            result = run_untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    outcome = result["outcome"]
    if result["note"]:
        print(f"note: {result['note']}")
    if outcome.first_error:
        print(f"first failure: {outcome.first_error}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
