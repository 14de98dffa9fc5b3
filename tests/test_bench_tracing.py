"""The traced benchmark (``bench/tracing.py``) wraps package functions and
methods by name.  A rename must fail here, not only in ``--trace 1`` runs."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_names_that_resolve_and_restores_them():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)  # (owner, attribute, original)
        assert saved
        assert all(vars(owner)[attribute] is not original
                   for owner, attribute, original in saved)
    finally:
        tracer.restore()
    assert all(vars(owner)[attribute] is original for owner, attribute, original in saved)
