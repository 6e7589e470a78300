"""Surprise metrics: distance between actual results and prior expectations.

Expectations come in three shapes: expected values per cell (value-based
surprise, optionally min-max normalized), probability statements over value
sets or intervals (probability surprise), and expected or probabilistic
labels under a per-measure labeling scheme (label surprise, strict and
loose, where the loose weight of a label is its distance from the actual
one). Cells without a registered expectation are excluded rather than
failed; a cube with no matching cell at all reports None (not assessable).

An expectation on measure `name` scores the result columns of one rule,
`_measure_columns`: the column called `name`, else every column that
aggregates `name`, so one on `Amt` scores `min(Amt)` and `sum(Amt)` and
`cell_agg` folds both. Every score walks the result once (`_walk`),
resolving each name once per call.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .context import (
    Anchor,
    BeliefStatement,
    BeliefStore,
    CellSet,
    ExpectedLabels,
    ExpectedValues,
    ValueInterval,
)
from .errors import (
    NoExpectedValues,
    NominalLooseUnsupported,
    OverlappingIntervals,
    GapInCoverage,
    UnknownMeasure,
    UnlabeledValue,
)

CELL_AGGS = ("count", "sum", "mean", "median", "max", "min")


def _aggregate(kind: str, values: Sequence[float]) -> float:
    if kind not in CELL_AGGS:
        raise ValueError(f"unknown aggregate {kind!r}")
    if not values:
        raise ValueError("aggregate of an empty bag")
    if kind == "count":
        # number of entries showing any surprise at all
        return float(sum(1 for v in values if v > 0))
    if kind == "sum":
        return float(sum(values))
    if kind == "mean":
        return float(sum(values) / len(values))
    if kind == "median":
        return float(statistics.median(values))
    if kind == "max":
        return float(max(values))
    return float(min(values))


@dataclass(frozen=True)
class SurpriseConfig:
    """Aggregation choices: `cell_agg` folds one cell's scores, one per
    expectation and result column it scores, `cube_agg` the per-cell
    scores."""

    cell_agg: str = "max"
    cube_agg: str = "mean"

    def __post_init__(self):
        for kind in (self.cell_agg, self.cube_agg):
            if kind not in CELL_AGGS:
                raise ValueError(f"unknown aggregate {kind!r}")


DEFAULT_CONFIG = SurpriseConfig()


# --- labeling -----------------------------------------------------------------

class LabelingScheme:
    """Total mapping from one measure's values to labels via disjoint
    (interval, label) pairs. With strict coverage the intervals must also
    tile the declared range without gaps."""

    def __init__(self, measure: str,
                 intervals: tuple[tuple[ValueInterval, str], ...],
                 strict_coverage: bool = False):
        self.measure = measure
        self.intervals = tuple(sorted(
            intervals, key=lambda pair: (pair[0].lo, not pair[0].lo_closed)))
        for (a, a_label), (b, b_label) in zip(self.intervals,
                                              self.intervals[1:]):
            if a.hi > b.lo or (a.hi == b.lo and a.hi_closed and b.lo_closed):
                raise OverlappingIntervals(
                    f"{measure}: intervals for {a_label} and {b_label} overlap")
            if strict_coverage and not (
                    a.hi == b.lo and (a.hi_closed != b.lo_closed)):
                raise GapInCoverage(
                    f"{measure}: gap between {a_label} and {b_label}")

    def label_of(self, value: float) -> str:
        for interval, label in self.intervals:
            if interval.contains(value):
                return label
        raise UnlabeledValue(
            f"value {value} of {self.measure} falls outside every interval")


@dataclass(frozen=True)
class LabelDomain:
    """Finite label domain. Nominal domains support equality only; ordinal
    and interval domains also define a normalized position distance."""

    labels: tuple[str, ...]
    kind: str = "nominal"

    def __post_init__(self):
        if self.kind not in ("nominal", "ordinal", "interval"):
            raise ValueError(f"unknown label domain kind {self.kind!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in domain")

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnlabeledValue(f"label {label!r} not in domain") from None

    def distance(self, a: str, b: str) -> float:
        """Position gap normalized by the domain diameter, in [0, 1]."""
        if self.kind == "nominal":
            raise NominalLooseUnsupported(
                "nominal label domains define no distance")
        if len(self.labels) == 1:
            self.position(a), self.position(b)
            return 0.0
        return abs(self.position(a) - self.position(b)) / (len(self.labels) - 1)


# --- measure resolution ----------------------------------------------------------

def _measure_columns(columns: Mapping[str, object], name: str) -> list[str]:
    """The result columns an expectation on measure `name` scores: the
    column called `name` (any case) if there is one, else every column
    that aggregates base measure `name` (any case)."""
    key = name.lower()
    exact = [c for c in columns if c.lower() == key]
    return exact[:1] or [c for c in columns if c.lower().endswith(f"({key})")]


# --- the walk over a result -----------------------------------------------------

def _matches(entries: Mapping[str, object],
             measures: Mapping[str, Sequence[float]],
             resolved: dict[str, list[Sequence[float]]],
             row: int) -> Iterator[tuple[str, object, float]]:
    """(measure name, payload, actual value at `row`) for each entry and
    each column of `measures` its name scores (`_measure_columns`), in
    entry order. `resolved` keeps each name's columns, so a name is
    resolved once."""
    for name, payload in entries.items():
        if name not in resolved:
            resolved[name] = [measures[c]
                              for c in _measure_columns(measures, name)]
        for values in resolved[name]:
            yield name, payload, float(values[row])


def _walk(cells: CellSet, lookup: Callable[[Anchor], Mapping[str, object]]
          ) -> Iterator[Iterator[tuple[str, object, float]]]:
    """The one pass over a result: for each cell, in result order, whose
    anchor `lookup` maps to a non-empty {measure name: payload}, the
    `_matches` of those entries at the cell."""
    measures = {name: values.tolist() for name, values in cells.measures.items()}
    resolved: dict[str, list[Sequence[float]]] = {}
    for row, ids in enumerate(cells.coords.tolist()):
        entries = lookup(tuple(zip(cells.levels, ids)))
        if entries:
            yield _matches(entries, measures, resolved, row)


def _fold(cell_scores: Iterable[list[float]],
          cfg: SurpriseConfig) -> float | None:
    """`cell_agg` over each cell's per-column scores, skipping cells with
    none, then `cube_agg` over the cells; None when no cell scored."""
    scores = [_aggregate(cfg.cell_agg, s) for s in cell_scores if s]
    return _aggregate(cfg.cube_agg, scores) if scores else None


def _statements_by_measure(beliefs: BeliefStore, kinds: tuple[str, ...]
                           ) -> Callable[[Anchor], dict[str, list[BeliefStatement]]]:
    """Lookup from an anchor to its statements of the given kinds, grouped
    by measure name in order of first appearance."""
    def lookup(anchor: Anchor) -> dict[str, list[BeliefStatement]]:
        groups: dict[str, list[BeliefStatement]] = {}
        for s in beliefs.at(anchor, kinds=kinds):
            groups.setdefault(s.measure, []).append(s)
        return groups
    return lookup


# --- value-based surprise ----------------------------------------------------------

def _value_gaps(matches: Iterable[tuple[str, object, float]]) -> list[float]:
    """The absolute gap between actual and expected value of each match."""
    return [abs(actual - float(exp)) for _, exp, actual in matches]


def cell_value_surprise(cell_measures: Mapping[str, float],
                        expected: Mapping[str, float],
                        cell_agg: str = "max") -> float:
    """Surprise of one cell: the absolute gap between actual and expected
    value of each column an expected value scores, folded by `cell_agg`.
    Measures without an expected value are excluded; raises
    NoExpectedValues when none matches."""
    measures = {name: (value,) for name, value in cell_measures.items()}
    gaps = _value_gaps(_matches(expected, measures, {}, 0))
    if not gaps:
        raise NoExpectedValues("no measure of the cell has an expected value")
    return _aggregate(cell_agg, gaps)


def value_surprise(cells: CellSet, expected: ExpectedValues,
                   cfg: SurpriseConfig = DEFAULT_CONFIG) -> float | None:
    """Cube-level value surprise: per cell, the absolute gaps of every
    column an expected value scores, folded by the configured
    aggregations; None when no cell has a registered expectation."""
    return _fold((_value_gaps(m) for m in _walk(cells, expected.lookup)), cfg)


def normalized_value_surprise(cells: CellSet, expected: ExpectedValues,
                              measure: str | None = None) -> float | None:
    """Average absolute gap between actual and expected values of one
    result column, min-max normalized over the matched gaps.

    The column is the result's only one, or the one `measure` names under
    `_measure_columns`; anything but exactly one column raises
    UnknownMeasure. Every expectation at a cell that scores the column
    gives one gap, as in `value_surprise`. Returns (avg - min) /
    (max - min), 0 when all gaps are equal, None when no cell matched.
    """
    columns = list(cells.measures) if measure is None else _measure_columns(
        cells.measures, measure)
    if len(columns) != 1:
        raise UnknownMeasure(
            f"normalized value surprise needs one result column, got {columns}")
    one = CellSet(cells.dims, cells.levels, cells.coords,
                  {columns[0]: cells.measures[columns[0]]})
    dists = [d for m in _walk(one, expected.lookup) for d in _value_gaps(m)]
    if not dists:
        return None
    lo, hi = min(dists), max(dists)
    if hi == lo:
        return 0.0
    avg = sum(dists) / len(dists)
    return (avg - lo) / (hi - lo)


# --- probability-based surprise ------------------------------------------------------

_KINDS_BY_MODE = {"exact": ("set",), "interval": ("interval",)}


def _value_kinds(mode: str) -> tuple[str, ...]:
    try:
        return _KINDS_BY_MODE[mode]
    except KeyError:
        raise ValueError(f"unknown probability surprise mode {mode!r}") from None


def probability_surprise(statements: Iterable[BeliefStatement], actual: float,
                         mode: str = "exact") -> float:
    """Sum of the probabilities of all registered value sets (`exact`) or
    ranges (`interval`) that do not contain the actual value."""
    kinds = _value_kinds(mode)
    total = 0.0
    for s in statements:
        if s.kind not in kinds:
            continue
        if not s.contains_value(actual):
            total += s.probability
    return total


def cube_probability_surprise(cells: CellSet, beliefs: BeliefStore,
                              mode: str = "exact",
                              cfg: SurpriseConfig = DEFAULT_CONFIG
                              ) -> float | None:
    """Cube-level probability surprise: per cell and measure, the sum of
    off-value probabilities, folded by the configured aggregations. None
    when no cell carries a matching statement."""
    lookup = _statements_by_measure(beliefs, _value_kinds(mode))
    return _fold(([probability_surprise(group, actual, mode)
                   for _, group, actual in m]
                  for m in _walk(cells, lookup)), cfg)


# --- label-based surprise -----------------------------------------------------------

def _label(schemes: Mapping[str, LabelingScheme], measure: str,
           value: float) -> str:
    """The label of `value` under the scheme of `measure` (any case)."""
    for name, scheme in schemes.items():
        if name.lower() == measure.lower():
            return scheme.label_of(value)
    raise UnlabeledValue(f"no labeling scheme for measure {measure!r}")


def label_surprise(cells: CellSet, expected: ExpectedLabels,
                   schemes: Mapping[str, LabelingScheme],
                   domain: LabelDomain | None = None,
                   label_distance: str = "nominal",
                   cfg: SurpriseConfig = DEFAULT_CONFIG) -> float | None:
    """Cube-level surprise over labels: each expected label is compared with
    the label of the actual measure value (0/1 for nominal distance,
    normalized position gap for interval distance)."""
    if label_distance not in ("nominal", "interval"):
        raise ValueError(f"unknown label distance {label_distance!r}")
    if label_distance == "interval" and domain is None:
        raise NominalLooseUnsupported(
            "interval label distance needs a label domain")

    def gap(actual_label: str, exp_label: str) -> float:
        if label_distance == "nominal":
            return 0.0 if actual_label == exp_label else 1.0
        return domain.distance(actual_label, exp_label)

    return _fold(([gap(_label(schemes, name, actual), exp_label)
                   for name, exp_label, actual in m]
                  for m in _walk(cells, expected.lookup)), cfg)


def strict_label_surprise(cells: CellSet, expected: ExpectedLabels,
                          schemes: Mapping[str, LabelingScheme]) -> bool:
    """True iff any cell has any measure whose actual label differs from
    its expected label (early exit on the first mismatch)."""
    return any(_label(schemes, name, actual) != exp_label
               for m in _walk(cells, expected.lookup)
               for name, exp_label, actual in m)


def prob_label_surprise(statements: Iterable[BeliefStatement],
                        actual_label: str,
                        mode: str = "strict",
                        domain: LabelDomain | None = None) -> float:
    """Surprise of one cell from probabilistic label beliefs.

    Strict: sum of the probabilities of labels other than the actual one.
    Loose: the same sum with each term weighted by its label's distance
    from the actual one; needs a non-nominal domain.
    """
    if mode not in ("strict", "loose"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "loose" and (domain is None or domain.kind == "nominal"):
        raise NominalLooseUnsupported(
            "loose label surprise needs an ordinal or interval domain")
    total = 0.0
    for s in statements:
        if s.kind != "label" or s.values == actual_label:
            continue
        if mode == "strict":
            total += s.probability
        else:
            total += domain.distance(s.values, actual_label) * s.probability
    return total


def cube_prob_label_surprise(cells: CellSet, beliefs: BeliefStore,
                             schemes: Mapping[str, LabelingScheme],
                             mode: str = "strict",
                             domain: LabelDomain | None = None,
                             cfg: SurpriseConfig = DEFAULT_CONFIG
                             ) -> float | None:
    """Cube-level probabilistic label surprise; None when no cell carries a
    label belief on a measure that scores a result column."""
    lookup = _statements_by_measure(beliefs, ("label",))
    return _fold(([prob_label_surprise(group, _label(schemes, name, actual),
                                       mode, domain)
                   for name, group, actual in m]
                  for m in _walk(cells, lookup)), cfg)
