"""Span tracing installed at run time around the library's layer boundaries.

Nothing in the library changes: `Tracer.install` replaces each boundary
function at every module binding it is reachable under (for example
`engine.selection_mask` is also bound as `novelty.selection_mask`) and
`uninstall` puts the originals back. A boundary is a function one layer
offers the others or the client; helpers private to a layer, such as
`qlang.tokenize`, are not wrapped, so their time counts as the self time of
the boundary function that called them.

Each span is five integers kept in one flat array: name id, start and end
(ns), parent span index (-1 at the top) and operation id. Spans are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# module -> boundary functions wrapped under the span name "module.function"
FUNCTIONS = {
    "qlang": ("parse_query", "parse_condition", "parse_belief",
              "parse_label_rules", "print_query"),
    "mdm": ("load_dimension",),
    "engine": ("load_facts", "evaluate", "selection_mask", "detailed_area",
               "detailed_area_keys", "detailed_proxy", "condition_signature",
               "query_signature_factored"),
    "context": ("load_expected_values", "load_expected_labels",
                "filter_history_same_measures", "known_cells"),
    "novelty": ("fslsn", "same_level_novelty", "fsdn", "pdsn", "pden",
                "belief_novelty", "full_coverage"),
    "relevance": ("multi_goal_gbdsr", "same_level_relevance",
                  "detailed_relevance"),
    "peculiarity": ("syntactic_peculiarity", "value_peculiarity",
                    "jaccard_peculiarity", "pairwise_cell_distances"),
    "surprise": ("value_surprise", "normalized_value_surprise",
                 "cube_probability_surprise", "label_surprise",
                 "strict_label_surprise", "cube_prob_label_surprise"),
    "harness": ("interestingness_vector",),
}
# (module, class, method) -> span name
METHODS = {
    ("mdm", "Dimension", "desc_ids"): "mdm.desc_ids",
    ("mdm", "Dimension", "value_distance"): "mdm.value_distance",
    ("context", "QueryHistory", "append"): "context.history_append",
    ("context", "SessionContext", "load_session_file"): "context.load_session_file",
    ("context", "SessionContext", "load_belief_file"): "context.load_belief_file",
    ("context", "SessionContext", "load_goal_file"): "context.load_goal_file",
    ("context", "SessionContext", "load_label_rules"): "context.load_label_rules",
    ("harness", "InterestReport", "to_json"): "harness.to_json",
}
CONTEXT_LOADERS = ("context.load_session_file", "context.load_belief_file",
                   "context.load_goal_file", "context.load_label_rules",
                   "context.load_expected_values",
                   "context.load_expected_labels")
SURPRISE_CUBE = tuple(f"surprise.{f}" for f in FUNCTIONS["surprise"])
PACKAGE = "cubeinterest"


class Tracer:
    """Records spans and counters for the operation set by `begin`."""

    def __init__(self):
        self.names: list[str] = []
        self.rows = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.op_kinds: list[str] = []
        self.counters: dict[str, Counter] = {}
        self._conditions: set = set()
        self._sites: list[tuple[object, str, object, object]] = []
        self._wrappers: list[tuple[object, object, object]] = []
        self._build()

    # --- operations ----------------------------------------------------

    def begin(self, kind: str):
        """Start a new operation of the given kind."""
        self.end()
        self.op = len(self.op_kinds)
        self.op_kinds.append(kind)
        self.counters.setdefault(kind, Counter())["ops"] += 1

    def end(self):
        if self.op >= 0 and self._conditions:
            kind = self.op_kinds[self.op]
            self.counters[kind]["selection_mask.distinct"] += len(
                self._conditions)
        self._conditions = set()

    def _count(self, name: str, n: int):
        self.counters[self.op_kinds[self.op]][name] += n

    # --- wrapping ------------------------------------------------------

    def _module(self, name: str):
        return sys.modules[f"{PACKAGE}.{name}"]

    def _build(self):
        counters = {
            "engine.selection_mask": self._on_selection_mask,
            "peculiarity.pairwise_cell_distances": self._on_pairs,
        }
        counters.update({n: self._on_surprise for n in SURPRISE_CUBE})
        for mod_name, funcs in FUNCTIONS.items():
            mod = self._module(mod_name)
            for fname in funcs:
                name = f"{mod_name}.{fname}"
                orig = getattr(mod, fname)
                self._wrappers.append(
                    (None, orig, self._wrap(name, orig, counters.get(name))))
        for (mod_name, cls_name, meth), name in METHODS.items():
            cls = getattr(self._module(mod_name), cls_name)
            orig = cls.__dict__[meth]
            self._wrappers.append((cls, orig, self._wrap(name, orig, None)))

    def _wrap(self, name: str, fn, count):
        nid = len(self.names)
        self.names.append(name)
        rows, stack = self.rows, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rows) // 5
            rows.extend((nid, 0, 0, stack[-1] if stack else -1, self.op))
            stack.append(idx)
            if count is not None:
                count(args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[5 * idx + 1] = start
                rows[5 * idx + 2] = end
        return traced

    def _on_selection_mask(self, args):
        q = args[0]
        self._count("engine.rows_scanned", len(q.cube))
        self._conditions.add((id(q.cube), q.condition))

    def _on_pairs(self, args):
        self._count("peculiarity.cell_pairs", args[0].size * args[1].size)

    def _on_surprise(self, args):
        self._count("surprise.cells_scanned", args[0].size)

    def install(self):
        """Bind every wrapper in place of its original, at every module
        binding of the package and on the owning class."""
        if not self._sites:
            modules = [m for n, m in list(sys.modules.items())
                       if n == PACKAGE or n.startswith(PACKAGE + ".")]
            for cls, orig, wrapper in self._wrappers:
                if cls is not None:
                    self._sites.append((cls, orig.__name__, orig, wrapper))
                    continue
                for mod in modules:
                    self._sites += [(mod, attr, orig, wrapper)
                                    for attr, value in vars(mod).items()
                                    if value is orig]
        for owner, attr, _orig, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _wrapper in self._sites:
            setattr(owner, attr, orig)

    # --- results ----------------------------------------------------------

    def table(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (operation kind, span name): calls, total ms and self ms,
        where self time is the span's duration minus its children's."""
        self.end()
        spans = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 5)
        if not len(spans):
            return {}
        dur = (spans[:, 2] - spans[:, 1]).astype(np.float64)
        parent = spans[:, 3]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(spans))
        self_ns = dur - child
        kinds = np.array(self.op_kinds, dtype=object)[spans[:, 4]]
        out: dict[tuple[str, str], dict[str, float]] = {}
        for kind in set(self.op_kinds):
            in_kind = kinds == kind
            for nid, name in enumerate(self.names):
                sel = in_kind & (spans[:, 0] == nid)
                calls = int(sel.sum())
                if calls:
                    out[(kind, name)] = {
                        "calls": calls,
                        "ms": float(dur[sel].sum()) / 1e6,
                        "self_ms": float(self_ns[sel].sum()) / 1e6,
                    }
        return out

    def save(self, path: Path):
        """Write every span with the name table and operation kinds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 5)
        with path.open("wb") as fh:
            np.savez(fh, spans=spans, names=np.array(self.names),
                     op_kinds=np.array(self.op_kinds),
                     columns=np.array(["name", "start_ns", "end_ns",
                                       "parent", "op"]))
