"""Per-layer call counts and times, taken from outside the package.

The tracer replaces the names that callers inside ``opcast`` resolve
(module globals such as ``opcast.model.fit_auto_k`` and class attributes
such as ``AdaptiveState.update``) with wrappers that count calls and time
them. Nothing under ``src/`` is edited, and ``uninstall`` puts every
original object back, so an untraced run in the same process pays nothing.

Spans are aggregated per layer name as they close instead of being kept
one by one: a year-long stream makes several hundred thousand of them.
A layer's self time is its inclusive time minus the time covered by the
traced calls it made directly.
"""

from __future__ import annotations

import functools
import time

import opcast.cli
import opcast.clustering
import opcast.dirichlet
import opcast.estimator
import opcast.harness
import opcast.model

# (owner, attribute, layer name, item counter or None). One layer can be
# reached through several owners when modules import the same function.
# The item counter maps (args, result) to a number of items handled.
TARGETS = (
    (opcast.cli, "parse_dataset", "records.parse_dataset",
     lambda args, result: len(result.records)),
    (opcast.model, "build_features", "features.build_features",
     lambda args, result: len(args[0])),
    (opcast.harness, "build_features", "features.build_features",
     lambda args, result: len(args[0])),
    (opcast.cli, "assemble_next_features", "features.assemble_next_features", None),
    (opcast.model, "fit_auto_k", "clustering.fit_auto_k", None),
    (opcast.clustering.ClusterModel, "assign", "clustering.assign", None),
    (opcast.dirichlet.DirichletTable, "expected_state_vector",
     "dirichlet.expected_state_vector", None),
    (opcast.estimator.AdaptiveState, "update", "estimator.update", None),
    (opcast.estimator.AdaptiveState, "covariance", "estimator.covariance", None),
    (opcast.model.IoHmmModel, "fit", "model.fit", None),
    (opcast.model.IoHmmModel, "run_online", "model.run_online", None),
    (opcast.model.IoHmmModel, "forecast_step", "model.forecast_step", None),
    (opcast.model.IoHmmModel, "learn_step", "model.learn_step", None),
    (opcast.model, "combine", "model.combine", None),
    (opcast.model.IoHmmModel, "save", "model.save", None),
    (opcast.model.IoHmmModel, "load", "model.load", None),
    (opcast.harness, "fit_varx", "benchmarks.fit_varx", None),
    (opcast.harness, "predict_varx", "benchmarks.predict_varx", None),
    (opcast.cli, "leave_one_week_out", "harness.leave_one_week_out", None),
    (opcast.cli, "emit_report", "harness.emit_report", None),
    (opcast.cli, "main", "cli.main", None),
)


class LayerStats:
    __slots__ = ("calls", "items", "total", "children")

    def __init__(self):
        self.calls = 0
        self.items = 0
        self.total = 0.0
        self.children = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.children


class Tracer:
    """Install wrappers with ``install`` and remove them with ``uninstall``.

    ``clock`` gives the times; the benchmark passes one that stands still
    while its speed probe runs.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers = {name: LayerStats() for _, _, name, _ in TARGETS}
        self._open: list[float] = []      # child time of each open span
        self._saved: list[tuple] = []

    def _wrap(self, fn, stats: LayerStats, count):
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total += elapsed
                stats.children += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if count is not None:
                stats.items += count(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__,
                                                 self.layers[name], count))
            else:
                wrapped = self._wrap(original, self.layers[name], count)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
