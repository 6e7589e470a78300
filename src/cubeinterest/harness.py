"""Assessment vector assembly, synthetic star-schema generation, benchmarks.

The interestingness vector bundles one headline score per dimension
(novelty, relevance, surprise, peculiarity) with the full variant breakdown
and per-metric wall times. The generator emits a deterministic loan-style
star schema (accounts rolling up to districts and regions, loan status,
a day/month/year calendar, one amount measure) used by the benchmark
runner, which measures metric scaling against fact-table and history size.
"""

from __future__ import annotations

import datetime
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import novelty, peculiarity, relevance, surprise
from .context import HistoryEntry, SessionContext, filter_history_same_measures
from .engine import (
    AtomicFilter,
    CubeQuery,
    DetailedCube,
    SelectionCondition,
)
from .errors import (
    CubeInterestError,
    LevelMismatch,
    MetricComputationError,
)
from .mdm import Dimension, dimension_from_rows
from .peculiarity import DEFAULT_WEIGHTS, DistanceWeights

METRIC_GROUPS = ("novelty", "relevance", "peculiarity", "surprise")


@dataclass(frozen=True)
class AssessConfig:
    """Knobs of the assessment vector: the belief confidence threshold
    `pi`, the neighbours `jaccard_k` of Jaccard peculiarity, the syntactic
    distance `weights` and the metric groups to score. Every other choice
    is the metric's default: average peculiarity aggregation, arbitrary
    belief novelty, and max-then-mean surprise folds."""

    pi: float = 0.5
    jaccard_k: int = 2
    weights: DistanceWeights = DEFAULT_WEIGHTS
    metrics: tuple[str, ...] = METRIC_GROUPS

    def __post_init__(self):
        # each message starts with the knob's short name, which the CLI's
        # flag for it repeats
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError(f"pi {self.pi} outside [0,1]")
        if self.jaccard_k < 1:
            raise ValueError(f"k {self.jaccard_k} is below 1")
        for m in self.metrics:
            if m not in METRIC_GROUPS:
                raise ValueError(f"metrics: unknown metric group {m!r}")

    def to_dict(self) -> dict:
        return {
            "pi": self.pi,
            "jaccard_k": self.jaccard_k,
            "weights": {
                "filter": self.weights.w_filter,
                "levels": self.weights.w_levels,
                "measures": self.weights.w_measures,
            },
            "metrics": list(self.metrics),
        }


@dataclass
class InterestReport:
    """Headline vector, per-variant breakdowns, per-metric timings."""

    query: str
    vector: dict
    scores: dict
    timings_ms: dict
    config: dict

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "vector": _plain(self.vector),
            "scores": _plain(self.scores),
            "timings_ms": _plain(self.timings_ms),
            "config": _plain(self.config),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


class _Timer:
    def __init__(self, sink: dict):
        self.sink = sink

    def run(self, key: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except LevelMismatch:
            return None
        except CubeInterestError as exc:
            raise MetricComputationError(key, exc) from exc
        finally:
            self.sink[key] = (time.perf_counter() - start) * 1000.0
        return out


def interestingness_vector(q: CubeQuery, ctx: SessionContext,
                           cfg: AssessConfig = AssessConfig()) -> InterestReport:
    """Score the query along all four interestingness dimensions.

    Metrics whose inputs are missing (no beliefs, no expectations, empty
    history for peculiarity, no non-empty result for value peculiarity)
    report None rather than failing; same-level relevance reports None
    when the history is not level-homogeneous.
    The headline defaults are: detailed extensional novelty; goal-based
    relevance when a goal exists, else detailed extensional relevance;
    average syntactic peculiarity; normalized average value surprise.

    The detailed, extensional and same-level metrics and goal relevance get
    the query in an entry of its own and the history's entries, and read
    rows, results and detailed signatures from them. So an assessment
    selects the query's rows and compiles its condition once; an entry's
    rows are selected once in its life, by `append` when it checks a
    supplied result, and its condition compiled once. The query's entry
    probes each history entry once (`HistoryEntry.hits`) for `pden`, `pder`
    and `jaccard`. `pden` and `wdn` are read from one `novelty.pden`
    partition; `fsdn`, `fdsr` (`1.0 - fsdn`) and `pdsr` from one
    `novelty.pdsn` partition of q's detailed signature against every entry,
    timed under `relevance.pdsr`; and `value_cr` and `value_hausdorff` from
    one `value_peculiarity` call.
    """
    from . import qlang

    timings: dict[str, float] = {}
    timer = _Timer(timings)
    entries = ctx.history.entries
    history = [e.query for e in entries]
    # the query's own rows, result and signature, memoised like an entry's
    mine = HistoryEntry(q)
    scores: dict[str, dict] = {}
    if "novelty" in cfg.metrics or "relevance" in cfg.metrics:
        _, whole = timer.run("relevance.pdsr", novelty.pdsn, mine, entries)
        fsdn = 0 if whole.containing else 1

    if "novelty" in cfg.metrics:
        same = filter_history_same_measures(entries, q)
        group: dict = {}
        group["fslsn"] = timer.run("novelty.fslsn", novelty.fslsn, q, history)
        group["pslsn"] = _score(timer.run(
            "novelty.pslsn", novelty.same_level_novelty, mine, entries,
            basis="syntactic"))
        group["pslen"] = _score(timer.run(
            "novelty.pslen", novelty.same_level_novelty, mine, entries,
            basis="extensional"))
        group["fsdn"] = fsdn
        group["pdsn"] = _score(timer.run(
            "novelty.pdsn", novelty.pdsn, mine, same))
        score, part = timer.run("novelty.pden", novelty.pden, mine, same)
        group["pden"], group["wdn"] = score, part.weighted_novel_fraction
        if len(ctx.beliefs):
            score, part = timer.run(
                "novelty.belief", novelty.belief_novelty, mine, ctx.beliefs,
                cfg.pi)
            group["belief"] = {
                "mode": "arbitrary",
                "pi": cfg.pi,
                "score": score,
                "skipped_statements": part.skipped_statements,
            }
        else:
            group["belief"] = None
        group["headline"] = group["pden"]
        scores["novelty"] = group

    if "relevance" in cfg.metrics:
        group = {}
        if ctx.goals:
            group["gbdsr"] = _score(timer.run(
                "relevance.gbdsr", relevance.multi_goal_gbdsr, mine, ctx.goals))
        else:
            group["gbdsr"] = None
        group["fsslr"] = timer.run(
            "relevance.fsslr", relevance.same_level_relevance, mine, entries,
            mode="full")
        group["psslr"] = timer.run(
            "relevance.psslr", relevance.same_level_relevance, mine, entries,
            mode="partial")
        group["fdsr"] = 1.0 - fsdn
        group["pdsr"] = whole.covered_fraction
        group["pder"] = timer.run(
            "relevance.pder", relevance.detailed_relevance, mine, entries,
            mode="partial", basis="extensional")
        group["headline"] = group["gbdsr"] if ctx.goals else group["pder"]
        scores["relevance"] = group

    if "peculiarity" in cfg.metrics:
        group = {}
        if history:
            group["syntactic"] = timer.run(
                "peculiarity.syntactic", peculiarity.syntactic_peculiarity,
                q, history, weights=cfg.weights)
            # timed and failed under value_cr, the key the benchmark counts
            group["value_cr"], group["value_hausdorff"] = timer.run(
                "peculiarity.value_cr", peculiarity.value_peculiarity,
                mine, entries) or (None, None)
            k = min(cfg.jaccard_k, len(history))
            group["jaccard"] = timer.run(
                "peculiarity.jaccard", peculiarity.jaccard_peculiarity,
                mine, entries, k=k)
            group["agg"] = "average"
            group["jaccard_k"] = k
        else:
            group = {"syntactic": None, "value_cr": None,
                     "value_hausdorff": None, "jaccard": None,
                     "agg": "average", "jaccard_k": cfg.jaccard_k}
        group["headline"] = group["syntactic"]
        scores["peculiarity"] = group

    if "surprise" in cfg.metrics:
        result = mine.result_cells
        group = {}
        has_values = len(ctx.expected_values) > 0
        group["value"] = timer.run(
            "surprise.value", surprise.value_surprise, result,
            ctx.expected_values) if has_values else None
        if has_values and len(result.measures) == 1:
            group["value_avg_norm"] = timer.run(
                "surprise.value_avg_norm", surprise.normalized_value_surprise,
                result, ctx.expected_values)
        else:
            group["value_avg_norm"] = None
        has_value_beliefs = any(
            s.kind in ("set", "interval") for s in ctx.beliefs)
        group["prob_exact"] = timer.run(
            "surprise.prob_exact", surprise.cube_probability_surprise,
            result, ctx.beliefs, "exact") if has_value_beliefs else None
        group["prob_interval"] = timer.run(
            "surprise.prob_interval", surprise.cube_probability_surprise,
            result, ctx.beliefs, "interval") if has_value_beliefs else None
        has_labels = len(ctx.expected_labels) > 0 and ctx.labeling_schemes
        group["label"] = timer.run(
            "surprise.label", surprise.label_surprise, result,
            ctx.expected_labels, ctx.labeling_schemes) if has_labels else None
        group["label_strict"] = timer.run(
            "surprise.label_strict", surprise.strict_label_surprise, result,
            ctx.expected_labels, ctx.labeling_schemes) if has_labels else None
        has_label_beliefs = any(s.kind == "label" for s in ctx.beliefs)
        if has_label_beliefs and ctx.labeling_schemes:
            group["label_prob_strict"] = timer.run(
                "surprise.label_prob_strict",
                surprise.cube_prob_label_surprise, result, ctx.beliefs,
                ctx.labeling_schemes, "strict")
            domain = ctx.label_domain
            if domain is not None and domain.kind != "nominal":
                group["label_prob_loose"] = timer.run(
                    "surprise.label_prob_loose",
                    surprise.cube_prob_label_surprise, result, ctx.beliefs,
                    ctx.labeling_schemes, "loose", domain)
            else:
                group["label_prob_loose"] = None
        else:
            group["label_prob_strict"] = None
            group["label_prob_loose"] = None
        group["headline"] = group["value_avg_norm"]
        scores["surprise"] = group

    vector = {name: scores.get(name, {}).get("headline")
              for name in METRIC_GROUPS}
    return InterestReport(
        query=qlang.print_query(q),
        vector=vector,
        scores=scores,
        timings_ms=timings,
        config=cfg.to_dict(),
    )


def _score(result):
    return None if result is None else result[0]


# --- synthetic star schema -------------------------------------------------------

N_ACCOUNTS = 5000
N_DISTRICTS = 77
N_REGIONS = 8
STATUSES = ("A", "B", "C", "D")
FIRST_DAY = datetime.date(1994, 1, 1)
LAST_DAY = datetime.date(1998, 12, 31)
AMT_RANGE = (1_000.0, 1_000_000.0)


@dataclass(frozen=True)
class StarData:
    """In-memory synthetic star schema: dimensions plus fact columns."""

    dims: tuple[Dimension, Dimension, Dimension]  # Account, Status, Date
    coords: np.ndarray
    amounts: np.ndarray

    def cube(self) -> DetailedCube:
        return DetailedCube(self.dims, ("Amt",), self.coords,
                            self.amounts.reshape(-1, 1))


def _calendar_rows() -> list[tuple[str, str, str]]:
    rows = []
    day = FIRST_DAY
    while day <= LAST_DAY:
        rows.append((day.isoformat(), day.strftime("%Y-%m"), str(day.year)))
        day += datetime.timedelta(days=1)
    return rows


def build_star_dimensions(seed: int) -> tuple[Dimension, Dimension, Dimension]:
    rng = np.random.default_rng(seed)
    district_of = rng.integers(0, N_DISTRICTS, size=N_ACCOUNTS)
    account_rows = [
        (f"A{i + 1:04d}", f"D{district_of[i] + 1:02d}",
         f"R{(district_of[i] % N_REGIONS) + 1}")
        for i in range(N_ACCOUNTS)
    ]
    account = dimension_from_rows(
        "Account", ["Account", "District", "Region"], account_rows)
    status = dimension_from_rows("Status", ["Status"],
                                 [(s,) for s in STATUSES])
    date = dimension_from_rows("Date", ["Day", "Month", "Year"],
                               _calendar_rows())
    return account, status, date


def generate_star_data(rows: int, seed: int) -> StarData:
    """Deterministic synthetic facts: uniform coordinates (unique per cell),
    log-uniform amounts."""
    if rows < 1:
        raise ValueError("rows must be positive")
    account, status, date = build_star_dimensions(seed)
    n_days = date.size("Day")
    space = N_ACCOUNTS * len(STATUSES) * n_days
    if rows > space // 2:
        raise ValueError(f"cannot draw {rows} unique cells from {space}")
    rng = np.random.default_rng(seed + 1)
    picked = np.zeros((0,), dtype=np.int64)
    while len(picked) < rows:
        need = rows - len(picked)
        draw = (rng.integers(0, N_ACCOUNTS, size=2 * need).astype(np.int64)
                * len(STATUSES) + rng.integers(0, len(STATUSES), size=2 * need)
                ) * n_days + rng.integers(0, n_days, size=2 * need)
        picked = np.unique(np.concatenate([picked, draw]))
        if len(picked) > rows:
            keep = rng.permutation(len(picked))[:rows]
            picked = picked[np.sort(keep)]
    coords = np.empty((rows, 3), dtype=np.int32, order="F")
    coords[:, 2] = picked % n_days
    rest = picked // n_days
    coords[:, 1] = rest % len(STATUSES)
    coords[:, 0] = rest // len(STATUSES)
    lo, hi = np.log(AMT_RANGE[0]), np.log(AMT_RANGE[1])
    amounts = np.round(np.exp(rng.uniform(lo, hi, size=rows)))
    return StarData((account, status, date), coords, amounts)


def generate_star(rows: int, seed: int, out_dir: str | Path) -> dict[str, Path]:
    """Write the synthetic star schema as CSV files and return their paths.

    Dimension files land under `out_dir/schema/` (the layout the CLI's
    `--schema` flag expects) and the fact table at `out_dir/facts.csv`.
    """
    data = generate_star_data(rows, seed)
    out = Path(out_dir)
    (out / "schema").mkdir(parents=True, exist_ok=True)
    account, status, date = data.dims
    paths = {}

    def write(name: str, header: list[str], rows_iter):
        path = out / name
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows_iter:
                fh.write(",".join(row) + "\n")
        paths[name] = path

    write("schema/Account.csv", ["Account", "District", "Region"],
          ((account.label_of("Account", i),
            account.anc(account.member_by_id("Account", i), "District").label,
            account.anc(account.member_by_id("Account", i), "Region").label)
           for i in range(account.size("Account"))))
    write("schema/Status.csv", ["Status"],
          ((status.label_of("Status", i),) for i in range(status.size("Status"))))
    write("schema/Date.csv", ["Day", "Month", "Year"],
          ((date.label_of("Day", i),
            date.anc(date.member_by_id("Day", i), "Month").label,
            date.anc(date.member_by_id("Day", i), "Year").label)
           for i in range(date.size("Day"))))
    write("facts.csv", ["Account", "Status", "Day", "Amt"],
          ((account.label_of("Account", int(a)),
            status.label_of("Status", int(s)),
            date.label_of("Day", int(d)),
            str(int(amt)))
           for (a, s, d), amt in zip(data.coords, data.amounts)))
    return paths


# --- benchmark -----------------------------------------------------------------

@dataclass(frozen=True)
class BenchConfig:
    base_sizes: tuple[int, ...] = (10_000, 100_000, 1_000_000)
    history_sizes: tuple[int, ...] = (1, 5, 10)
    seed: int = 7
    repetitions: int = 3

    def __post_init__(self):
        if min(self.base_sizes) < 1 or min(self.history_sizes) < 1:
            raise ValueError("sizes must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")


def _bench_queries(cube: DetailedCube, n_history: int
                   ) -> tuple[CubeQuery, list[CubeQuery], SelectionCondition]:
    account, status, date = cube.dims
    groupers = ("District", "ALL", "Month")
    aggs = (("avg", "Amt"),)

    def atom(dim: Dimension, level: str, labels: list[str]) -> AtomicFilter:
        values = frozenset(dim.member(level, lab).id for lab in labels)
        return AtomicFilter(dim.name, level, values)

    q = CubeQuery(cube, SelectionCondition((atom(date, "Year", ["1996"]),)),
                  groupers, aggs)
    history = []
    for i in range(n_history):
        regions = [f"R{(i % N_REGIONS) + 1}",
                   f"R{((i + 1) % N_REGIONS) + 1}"]
        atoms = [atom(account, "Region", regions)]
        if i >= N_REGIONS:
            atoms.append(atom(date, "Year", ["1995"]))
        history.append(CubeQuery(cube, SelectionCondition(tuple(atoms)),
                                 groupers, aggs))
    goal = SelectionCondition((atom(account, "Region", ["R1", "R2"]),))
    return q, history, goal


def _bench_runners(q: CubeQuery, history: list[CubeQuery],
                   goal: SelectionCondition) -> dict[str, Callable]:
    """The timed plain metric calls of one benchmark cell."""
    return {
        "pden": lambda: novelty.pden(q, history),
        "pder": lambda: relevance.detailed_relevance(
            q, history, mode="partial", basis="extensional"),
        "jaccard": lambda: peculiarity.jaccard_peculiarity(
            q, history, k=min(2, len(history))),
        "gbdsr": lambda: relevance.gbdsr(q, goal),
    }


def run_benchmark(cfg: BenchConfig = BenchConfig()) -> dict:
    """Median wall times per (metric, base size, history size) cell.

    Timing covers metric computation including the detailed-query
    evaluation it triggers; dataset generation and parsing are excluded.
    """
    cells = []
    runners = []
    for base in cfg.base_sizes:
        cube = generate_star_data(base, cfg.seed).cube()
        for h in cfg.history_sizes:
            for metric, fn in _bench_runners(*_bench_queries(cube, h)).items():
                # Warmup once per metric: populates rollup-map caches and
                # sizes the inner loop so each timed sample covers >= ~20ms
                # of work.
                start = time.perf_counter()
                out = fn()
                warmup = time.perf_counter() - start
                cells.append({
                    "metric": metric,
                    "base_size": base,
                    "history_size": h,
                    "times_ms": [],
                    "loops": max(1, int(0.020 / max(warmup, 1e-6))),
                    "score": out[0] if isinstance(out, tuple) else out,
                })
                runners.append(fn)
    # Each repetition times every (metric, base size, history size) cell
    # once, so a slow spell of the host spreads over all cells instead of
    # moving the ratio between two of them.
    for _ in range(cfg.repetitions):
        for cell, fn in zip(cells, runners):
            start = time.perf_counter()
            for _ in range(cell["loops"]):
                fn()
            cell["times_ms"].append(
                (time.perf_counter() - start) * 1000.0 / cell["loops"])
    for cell in cells:
        cell["median_ms"] = float(statistics.median(cell["times_ms"]))
    return {
        "config": {
            "base_sizes": list(cfg.base_sizes),
            "history_sizes": list(cfg.history_sizes),
            "seed": cfg.seed,
            "repetitions": cfg.repetitions,
        },
        "cells": cells,
        "scaling": _scaling_summary(cells, cfg),
    }


def median_time(report: dict, metric: str, base: int, h: int) -> float:
    for cell in report["cells"]:
        if (cell["metric"] == metric and cell["base_size"] == base
                and cell["history_size"] == h):
            return cell["median_ms"]
    raise KeyError((metric, base, h))


def _scaling_summary(cells: list[dict], cfg: BenchConfig) -> dict:
    report = {"cells": cells}
    out: dict[str, dict] = {}
    bases = sorted(cfg.base_sizes)
    hists = sorted(cfg.history_sizes)
    for metric in ("pden", "pder", "jaccard", "gbdsr"):
        entry: dict[str, list] = {"base_ratios": [], "history_ratios": []}
        for lo, hi in zip(bases, bases[1:]):
            t_lo = median_time(report, metric, lo, hists[-1])
            t_hi = median_time(report, metric, hi, hists[-1])
            entry["base_ratios"].append({
                "from": lo, "to": hi, "size_ratio": hi / lo,
                "time_ratio": t_hi / t_lo if t_lo > 0 else float("inf"),
            })
        for lo, hi in zip(hists, hists[1:]):
            t_lo = median_time(report, metric, bases[-1], lo)
            t_hi = median_time(report, metric, bases[-1], hi)
            entry["history_ratios"].append({
                "from": lo, "to": hi, "size_ratio": hi / lo,
                "time_ratio": t_hi / t_lo if t_lo > 0 else float("inf"),
            })
        out[metric] = entry
    return out
