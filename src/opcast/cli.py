"""Command-line interface.

Commands: fit, forecast, evaluate, simulate, inspect. Options can come
from a JSON config file (--config) with command-line flags taking
precedence. Exit codes: 0 success, 1 configuration problem, 2 data
problem, 3 numeric or model-state problem.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .clustering import oee_band
from .errors import (ConfigurationError, DataError, ForecastUnavailableError,
                     NumericError, OpcastError)
from .estimator import json_number
from .features import (FeatureConfig, assemble_next_features,
                       classification_vector, default_feature_config)
from .harness import DEFAULT_MODELS, emit_report, leave_one_week_out
from .model import IoHmmModel, ModelConfig
from .records import parse_dataset, parse_tail, write_dataset
from .synthetic import SyntheticSpec, generate_synthetic

# key: (kind, default); None takes the specs from the data, the names from the header
_CONFIG_KEYS = {
    "lambda_u": (float, 0.99), "lambda_v": (float, 0.95), "lags": (int, 1),
    "threshold": (float, 0.8), "kmax": (int, 12), "seed": (int, 0),
    "responses": (list, ["OpT", "NOpT"]), "models": (list, list(DEFAULT_MODELS)),
    "allow_cold_start": (bool, False), "z_spec": (list, None), "w_spec": (list, None),
    "t_spec": (list, None), "schema": (dict, None),
}
_KINDS = {int: "a whole number >= 0", float: "a finite number", bool: "true or false",
          list: "a list of strings", dict: "an object mapping column names to column names"}


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration problems, not argparse's exit code 2
    def error(self, message):
        raise ConfigurationError(message)


def _read_json(path, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from exc


def _checked(key: str, value):
    """``value`` if it has the kind ``_CONFIG_KEYS`` declares for ``key`` (a
    number is never a boolean or a string); a whole float becomes an int."""
    kind = _CONFIG_KEYS[key][0]
    ok = {float: json_number(value), int: json_number(value, whole=True),
          bool: isinstance(value, bool),
          list: isinstance(value, list) and all(isinstance(v, str) for v in value),
          dict: isinstance(value, dict)  # canonical name -> name in the file
          and all(isinstance(name, str) for name in [*value, *value.values()])}[kind]
    if not ok:
        raise ConfigurationError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    return int(value) if kind is int else value


def _settings(args) -> dict:
    """Defaults, overridden by the config file, then by flags; each value given checked."""
    given = _read_json(args.config, "config file") if getattr(args, "config", None) else {}
    if not isinstance(given, dict):
        raise ConfigurationError("config file must hold a JSON object")
    unknown = set(given) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    given.update((key, getattr(args, key)) for key in _CONFIG_KEYS
                 if getattr(args, key, None) is not None)
    return {key: _checked(key, given[key]) if key in given else default
            for key, (_, default) in _CONFIG_KEYS.items()}


def _usable_records(result):
    if result.errors:
        print(f"warning: skipped {len(result.errors)} unparseable rows "
              f"(first: line {result.errors[0].line}: {result.errors[0].message})",
              file=sys.stderr)
    if not result.records:
        raise DataError("dataset contains no usable records")
    return result.records


def _feature_config(records, cfg) -> FeatureConfig:
    base = default_feature_config(records, q=cfg["lags"], responses=tuple(cfg["responses"]))
    return replace(base, **{key: tuple(cfg[key])
                            for key in ("z_spec", "w_spec", "t_spec") if cfg[key]})


def _model_config(records, cfg) -> ModelConfig:
    return ModelConfig(features=_feature_config(records, cfg),
                       lambda_u=cfg["lambda_u"], lambda_v=cfg["lambda_v"],
                       allow_cold_start=cfg["allow_cold_start"])


def cmd_fit(args) -> int:
    cfg = _settings(args)
    records = _usable_records(parse_dataset(args.data, cfg["schema"]))
    model = IoHmmModel(_model_config(records, cfg))
    model.fit(records, seed=cfg["seed"], threshold=cfg["threshold"], k_max=cfg["kmax"])
    model.save(args.out)
    clusters = model.clusters
    print(f"fitted on {len(records)} records")
    print(f"states: K={clusters.K} share={clusters.gof:.4f} "
          f"threshold_reached={clusters.reached_threshold}")
    print(f"patterns: {len(model.params)}")
    for key in sorted(model.params):
        st = model.params[key]
        print(f"  {key}: gamma_u={st.u.gamma:.4f} gamma_v={st.v.gamma:.4f} "
              f"updates={st.u.n_updates}")
    print(f"snapshot written to {args.out}")
    return 0


def cmd_forecast(args) -> int:
    model = IoHmmModel.load(args.snapshot)
    fc = model.config.features
    # the request reads the last q + 1 records: parse only the file's tail
    records = _usable_records(parse_tail(args.data, max(fc.q, 1) + 1,
                                         _settings(args)["schema"]))
    overrides = {}
    if args.next_values:
        try:
            overrides = json.loads(args.next_values)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"--next-values is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigurationError("--next-values must be a JSON object")
    if args.ics is not None and not np.isfinite(args.ics):
        raise ConfigurationError(f"--ics must be a finite number, got {args.ics!r}")
    z, w, begins = assemble_next_features(records, fc, args.shift,
                                          ics=args.ics, new_order=args.new_order,
                                          overrides=overrides)
    t_prev = classification_vector(records[-1], fc)
    result = model.forecast_step(t_prev, z, w, begins)
    doc = result.to_dict(fc.response_names)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _settings(args)
    records = _usable_records(parse_dataset(args.data, cfg["schema"]))
    models = args.names.split(",") if args.names else list(cfg["models"])
    base = _model_config(records, {**cfg, "allow_cold_start": True})
    report = leave_one_week_out(records, model_names=models, base=base,
                                seed=cfg["seed"], threshold=cfg["threshold"],
                                k_max=cfg["kmax"])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(emit_report(report, "csv"))
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as fh:
            fh.write(emit_report(report, "structured-text"))
    print(f"folds: {' '.join(report.folds)}")
    print(f"{'model':<16} {'mae':>8} {'rmse':>8} {'covg':>6}")
    cells: dict = {}  # per model and metric, the (value, count) of its rows in report order
    for r in report.rows:
        cells.setdefault((r.model, r.metric), []).append((r.value, r.count))
    for name in models:  # each metric pooled over the model's cells: rmse from mean squares
        line = f"{name:<16}"
        for metric, width, digits, p in (("mae", 8, 4, 1), ("rmse", 8, 4, 2), ("covg", 6, 3, 1)):
            vals = cells.get((name, metric))
            if vals:
                pooled = (sum(v ** p * c for v, c in vals) / sum(c for _, c in vals)) ** (1 / p)
            line += f" {pooled:{width}.{digits}f}" if vals else " " + "-".rjust(width)
        print(line)
    print(f"report written to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    doc = _read_json(args.spec, "spec file")
    try:
        spec = SyntheticSpec.from_dict(doc if args.seed is None else {**doc, "seed": args.seed})
    except (TypeError, ValueError, AttributeError, NumericError) as exc:  # of the wrong shape
        raise ConfigurationError(f"malformed spec: {exc}") from exc
    records = generate_synthetic(spec)
    write_dataset(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    model = IoHmmModel.load(args.snapshot)
    fc = model.config.features
    print(f"responses: {', '.join(fc.response_names)}  lags: {fc.q}")
    print(f"lambda_u={model.config.lambda_u} lambda_v={model.config.lambda_v}")
    if model.clusters is None:
        print("no cluster state fitted")
        return 0
    clusters = model.clusters
    print(f"states: K={clusters.K} share={clusters.gof:.4f} "
          f"threshold_reached={clusters.reached_threshold}")
    names = list(fc.t_spec)
    oee_pos = names.index("oee") if "oee" in names else None
    originals = clusters.centroids_original()
    for k in range(clusters.K):
        desc = " ".join(f"{n}={v:.3f}" for n, v in zip(names, originals[k]))
        band = f" band={oee_band(originals[k][oee_pos]).value}" \
            if oee_pos is not None else ""
        print(f"  state {k + 1}: n={clusters.counts[k]:.0f} {desc}{band}")
    print(f"patterns: {len(model.params)}")
    for key in sorted(model.params):
        st = model.params[key]
        init = model.dirichlet.count_rows(key)[0]
        print(f"  {key}: gamma_u={st.u.gamma:.4f} gamma_v={st.v.gamma:.4f} "
              f"initial_counts={np.round(init, 3).tolist()}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="opcast",
                     description="online forecasting of operational times")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--lambda-u", dest="lambda_u", type=float)
        p.add_argument("--lambda-v", dest="lambda_v", type=float)
        p.add_argument("--lags", type=int)
        p.add_argument("--threshold", type=float)
        p.add_argument("--kmax", type=int)
        p.add_argument("--data", required=True, help="dataset CSV")

    p_fit = sub.add_parser("fit", help="fit a model and write a snapshot")
    common(p_fit)
    p_fit.add_argument("--out", required=True, help="snapshot path")
    p_fit.set_defaults(func=cmd_fit)

    p_fc = sub.add_parser("forecast", help="forecast the next period")
    p_fc.add_argument("--snapshot", required=True)
    p_fc.add_argument("--config", help="JSON config file; only its schema is read")
    p_fc.add_argument("--data", required=True, help="history CSV")
    p_fc.add_argument("--shift", required=True, help="announced shift label")
    p_fc.add_argument("--ics", type=float, help="announced speed (default: last)")
    p_fc.add_argument("--new-order", dest="new_order", action="store_true")
    p_fc.add_argument("--next-values", dest="next_values",
                      help="JSON object with extra future covariates")
    p_fc.add_argument("--out", help="write the forecast document here")
    p_fc.set_defaults(func=cmd_forecast)

    p_ev = sub.add_parser("evaluate", help="leave-one-week-out benchmark run")
    common(p_ev)
    p_ev.add_argument("--out", required=True, help="report CSV path")
    p_ev.add_argument("--summary-out", dest="summary_out",
                      help="structured-text report path")
    p_ev.add_argument("--models", dest="names", help="comma-separated model identifiers")
    p_ev.set_defaults(func=cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="generate synthetic records")
    p_sim.add_argument("--spec", required=True, help="JSON generator spec")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed", type=int, help="override the spec seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_in = sub.add_parser("inspect", help="describe a model snapshot")
    p_in.add_argument("--snapshot", required=True)
    p_in.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ForecastUnavailableError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OpcastError as exc:  # anything else from this package
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
