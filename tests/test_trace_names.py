"""The benchmark's span tracer wraps library functions by name; every name
it wraps must still exist, so a rename or deletion fails here rather than
breaking a traced benchmark run. An assessment must also still pass through
the wrapped names whose per-layer metrics the benchmark reports, and time
every metric key whose failures the benchmark counts, so a call routed
around one, or a renamed key, cannot silently read 0."""

import ast
import importlib
import pkgutil
from pathlib import Path

import cubeinterest
from conftest import PKDD
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


def _failure_keys() -> tuple:
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FAILURE_KEYS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no FAILURE_KEYS")


def test_assessment_times_every_failure_key(pkdd_context, pkdd_query):
    keys = _failure_keys()
    assert keys
    timed = interestingness_vector(pkdd_query, pkdd_context).timings_ms
    assert [k for k in keys if k not in timed] == []


def test_second_assessment_compiles_only_the_query_and_goals(monkeypatch,
                                                             pkdd_context,
                                                             pkdd_query):
    """Entries keep their detailed signatures and the query signatures are
    rolled up from them, so against a history already assessed once, an
    assessment compiles q's condition and each goal's, and no query
    signature from scratch. The history's queries share q's levels, so the
    same-level metrics have entries to compare."""
    pkdd_context.load_goal_file(PKDD / "goal.txt")
    pkdd_context.goals.append(pkdd_context.goals[0])
    interestingness_vector(pkdd_query, pkdd_context)
    tracer = _spans(monkeypatch).Tracer()
    tracer.begin("assess")
    tracer.install()
    try:
        report = interestingness_vector(pkdd_query, pkdd_context)
    finally:
        tracer.uninstall()
    table = tracer.table()

    def calls(name):
        return table.get(("assess", name), {}).get("calls", 0)

    assert report.scores["relevance"]["psslr"] is not None
    assert calls("engine.condition_signature") == 1 + len(pkdd_context.goals) == 3
    assert calls("engine.query_signature_factored") == 0
