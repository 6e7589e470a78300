"""The benchmark's span tracer wraps library functions by name; every name
it wraps must still exist, so a rename or deletion fails here rather than
breaking a traced benchmark run. An assessment must also still pass through
the wrapped names whose per-layer metrics the benchmark reports, so a call
routed around one cannot silently read 0."""

import importlib
import pkgutil
from pathlib import Path

import cubeinterest
from cubeinterest.harness import interestingness_vector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Spans an assessment against a history must record at least once.
ASSESS_SPANS = ("engine.selection_mask", "engine.detailed_area_keys",
                "engine.condition_signature", "novelty.pden",
                "relevance.detailed_relevance",
                "peculiarity.jaccard_peculiarity",
                "peculiarity.value_peculiarity", "mdm.desc_ids",
                "context.filter_history_same_measures")


def _spans(monkeypatch):
    for info in pkgutil.iter_modules(cubeinterest.__path__):
        importlib.import_module(f"cubeinterest.{info.name}")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_tracer_resolves_every_wrapped_name(monkeypatch):
    spans = _spans(monkeypatch)
    tracer = spans.Tracer()  # construction looks up every wrapped function
    expected = sum(len(f) for f in spans.FUNCTIONS.values()) + len(spans.METHODS)
    assert len(tracer.names) == expected


def test_assessment_records_the_detailed_spans(monkeypatch, pkdd_context,
                                               pkdd_query):
    tracer = _spans(monkeypatch).Tracer()
    tracer.begin("assess")
    tracer.install()
    try:
        interestingness_vector(pkdd_query, pkdd_context)
    finally:
        tracer.uninstall()
    table = tracer.table()
    missing = [name for name in ASSESS_SPANS
               if table.get(("assess", name), {}).get("calls", 0) < 1]
    assert not missing
