"""The benchmark's span tracer wraps library functions by name; every name
it wraps must still exist, so a rename or deletion fails here rather than
breaking a traced benchmark run."""

import importlib
import pkgutil
from pathlib import Path

import cubeinterest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_resolves_every_wrapped_name(monkeypatch):
    for info in pkgutil.iter_modules(cubeinterest.__path__):
        importlib.import_module(f"cubeinterest.{info.name}")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()  # construction looks up every wrapped function
    expected = sum(len(f) for f in spans.FUNCTIONS.values()) + len(spans.METHODS)
    assert len(tracer.names) == expected
