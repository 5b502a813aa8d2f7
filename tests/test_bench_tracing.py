"""The benchmark tracer wraps names inside opcast; they must keep existing."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    tracing = _load_tracing()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    restored = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
    assert all(r is o for r, o in zip(restored, originals))
