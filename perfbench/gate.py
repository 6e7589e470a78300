"""Correctness gate: report checks, an independent oracle and a digest.

Every report is checked for its four headline keys, for bounded scores that
are finite and in [0, 1], and for `novelty.pden + relevance.pder == 1`
exactly when the whole history shares the query's measures. For a fixed
sample of operations, detailed extensional novelty (pden) and Jaccard
peculiarity are recomputed from the generator's raw rows with plain Python
sets, without the library's engine.
"""

from __future__ import annotations

import hashlib
import json
import math

from gen import QuerySpec

HEADLINES = ("novelty", "relevance", "peculiarity", "surprise")
# Scores the library defines on [0, 1]; surprise.value and the
# probability sums are unbounded and only checked for finiteness.
BOUNDED = {
    "novelty": ("fslsn", "pslsn", "pslen", "fsdn", "pdsn", "pden", "wdn"),
    "relevance": ("gbdsr", "fsslr", "psslr", "fdsr", "pdsr", "pder"),
    "peculiarity": ("syntactic", "value_cr", "value_hausdorff", "jaccard"),
    "surprise": ("value_avg_norm", "label"),
}
UNBOUNDED = {"surprise": ("value", "prob_exact", "prob_interval",
                          "label_prob_strict", "label_prob_loose")}
TOLERANCE = 1e-9
JACCARD_K = 2  # AssessConfig's default


def check_report(report: dict, spec: QuerySpec,
                 history: list[QuerySpec]) -> list[str]:
    """Problems found in one report; empty when it passes."""
    problems = []
    vector = report.get("vector", {})
    missing = [k for k in HEADLINES if k not in vector]
    if missing:
        problems.append(f"headline keys missing: {missing}")
    scores = report.get("scores", {})
    values = [(f"vector.{k}", vector.get(k)) for k in HEADLINES]
    for group, keys in BOUNDED.items():
        values += [(f"{group}.{k}", scores.get(group, {}).get(k)) for k in keys]
    belief = scores.get("novelty", {}).get("belief")
    if belief is not None:
        values.append(("novelty.belief", belief["score"]))
    for name, v in values:
        if v is None:
            continue
        if not (isinstance(v, (int, float)) and math.isfinite(v)
                and 0.0 <= v <= 1.0):
            problems.append(f"{name} = {v!r} is not a finite score in [0,1]")
    for group, keys in UNBOUNDED.items():
        for k in keys:
            v = scores.get(group, {}).get(k)
            if v is not None and not math.isfinite(v):
                problems.append(f"{group}.{k} = {v!r} is not finite")
    if all(h.agg == spec.agg for h in history):
        pden = scores["novelty"]["pden"]
        pder = scores["relevance"]["pder"]
        if pden + pder != 1.0:
            problems.append(f"pden + pder = {pden!r} + {pder!r} != 1")
    return problems


def digest_line(report_json: str) -> str:
    """Canonical text of a report's scores, without its timings."""
    report = json.loads(report_json)
    return json.dumps({"vector": report["vector"], "scores": report["scores"]},
                      sort_keys=True)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class Oracle:
    """Detailed areas as sets of fact rows, from the generator's rows.

    Fact cells are distinct, so a row index identifies a detailed cell.
    """

    def __init__(self, rows: list[tuple[str, int, str]]):
        self.rows = rows
        self._areas: dict[tuple, frozenset[int]] = {}

    def area(self, spec: QuerySpec) -> frozenset[int]:
        key = (spec.regions, spec.years, spec.statuses)
        if key not in self._areas:
            regions, years = set(spec.regions), set(spec.years)
            statuses = set(spec.statuses) if spec.statuses else None
            self._areas[key] = frozenset(
                i for i, (r, y, s) in enumerate(self.rows)
                if r in regions and y in years
                and (statuses is None or s in statuses))
        return self._areas[key]

    def pden(self, spec: QuerySpec, history: list[QuerySpec]) -> float:
        mine = self.area(spec)
        seen = set()
        for h in history:
            if h.agg == spec.agg:
                seen |= self.area(h)
        covered = len(mine & seen)
        if covered == 0:
            return 1.0
        return (len(mine) - covered) / len(mine)

    def jaccard(self, spec: QuerySpec, history: list[QuerySpec]) -> float | None:
        if not history:
            return None
        mine = self.area(spec)
        dists = []
        for h in history:
            other = self.area(h)
            union = len(mine | other)
            dists.append(0.0 if union == 0
                         else 1.0 - len(mine & other) / union)
        return sorted(dists)[min(JACCARD_K, len(history)) - 1]

    def check(self, report: dict, spec: QuerySpec,
              history: list[QuerySpec]) -> list[str]:
        problems = []
        want = {"novelty.pden": self.pden(spec, history),
                "peculiarity.jaccard": self.jaccard(spec, history)}
        for name, expected in want.items():
            group, key = name.split(".")
            got = report["scores"][group][key]
            if expected is None:
                ok = got is None
            else:
                ok = got is not None and abs(got - expected) <= TOLERANCE
            if not ok:
                problems.append(f"{name} = {got!r}, oracle says {expected!r}")
        return problems
