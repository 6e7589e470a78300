"""Assessment context: query history, belief store, goals, expectations.

The context is the mutable session state the metrics read from; metrics
operate on snapshots and never write back. Belief statements are anchored
at explicit coordinates (unstated dimensions default to ALL) and carry a
probability for a value set, a value interval, or a label.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .engine import (
    CellSet,
    CubeQuery,
    DetailedCube,
    FactoredSignature,
    SelectionCondition,
    detailed_area_keys,
    detailed_signature,
    evaluate,
)
from .errors import (
    EmptyFile,
    HistoryConsistencyError,
    UnknownLevel,
    UnknownMeasure,
)
from .mdm import ALL_LEVEL, Dimension

# An anchor pins a cell at explicit levels: one (level name, member id) pair
# per cube dimension, in cube dimension order.
Anchor = tuple[tuple[str, int], ...]

Goal = SelectionCondition


def cell_anchor(levels: tuple[str, ...], ids: tuple[int, ...]) -> Anchor:
    return tuple(zip(levels, (int(i) for i in ids)))


@dataclass(frozen=True)
class ValueInterval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = False

    def contains(self, x: float) -> bool:
        lo_ok = x >= self.lo if self.lo_closed else x > self.lo
        hi_ok = x <= self.hi if self.hi_closed else x < self.hi
        return lo_ok and hi_ok

    def text(self) -> str:
        return (("[" if self.lo_closed else "(")
                + _num(self.lo) + ".." + _num(self.hi)
                + ("]" if self.hi_closed else ")"))


def _num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


@dataclass(frozen=True)
class BeliefStatement:
    """One probabilistic statement about a cell's measure.

    `kind` is "set" (values: frozenset of floats), "interval"
    (values: ValueInterval) or "label" (values: label name).
    """

    measure: str
    kind: str
    values: object
    probability: float
    anchor: Anchor

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0,1]")
        if self.kind not in ("set", "interval", "label"):
            raise ValueError(f"unknown belief kind {self.kind!r}")

    def contains_value(self, x: float) -> bool:
        if self.kind == "set":
            return any(math.isclose(x, v, rel_tol=1e-12, abs_tol=1e-12)
                       for v in self.values)
        if self.kind == "interval":
            return self.values.contains(x)
        raise TypeError("label beliefs do not contain numeric values")


class BeliefStore:
    """Belief statements grouped by anchor coordinate.

    Per-cell probabilities are not required to sum to 1; partial knowledge
    is allowed.
    """

    def __init__(self, statements: Iterable[BeliefStatement] = ()):
        self.statements: list[BeliefStatement] = []
        self._by_anchor: dict[Anchor, list[BeliefStatement]] = {}
        for s in statements:
            self.add(s)

    def add(self, statement: BeliefStatement):
        self.statements.append(statement)
        self._by_anchor.setdefault(statement.anchor, []).append(statement)

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[BeliefStatement]:
        return iter(self.statements)

    def anchors(self) -> list[Anchor]:
        return list(self._by_anchor)

    def at(self, anchor: Anchor, kinds: tuple[str, ...] = ("set", "interval", "label"),
           measure: str | None = None) -> list[BeliefStatement]:
        out = [s for s in self._by_anchor.get(anchor, ()) if s.kind in kinds]
        if measure is not None:
            out = [s for s in out if s.measure.lower() == measure.lower()]
        return out


def known_cells(beliefs: BeliefStore, pi: float) -> set[Anchor]:
    """Anchors owning at least one value statement with probability >= pi.

    Label beliefs express expectations about labels, not knowledge of the
    measure's value range, and are not counted here.
    """
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"threshold {pi} outside [0,1]")
    out = set()
    for s in beliefs:
        if s.kind in ("set", "interval") and s.probability >= pi:
            out.add(s.anchor)
    return out


@dataclass(frozen=True)
class HistoryEntry:
    """One logged query, with its result when the client supplied one.

    What the metrics need of this query alone is computed on first use and
    kept on the entry, so later assessments against the same history do
    not scan the fact table for it again: its sorted detailed-area keys
    (8 bytes per selected fact row), its result cells (the supplied result,
    else the query evaluated once) and its detailed factored signature
    (one sorted id array per dimension). Appending computes none of them,
    and the cube is immutable, so none goes stale. The detailed and
    extensional metrics read these from the entries they are given; a bare
    query gets a fresh entry (`as_entry`) that lives for one call, so a
    plain call still scans.
    """

    query: CubeQuery
    result: CellSet | None = None
    session_id: str = "s0"
    seq: int = 0

    @cached_property
    def detailed_keys(self) -> np.ndarray:
        return detailed_area_keys(self.query)

    @cached_property
    def result_cells(self) -> CellSet:
        return self.result if self.result is not None else evaluate(self.query)

    @cached_property
    def detailed_signature(self) -> FactoredSignature:
        return detailed_signature(self.query)


# What the detailed and extensional metrics take for q and history items.
QueryOrEntry = CubeQuery | HistoryEntry


def as_entry(item: QueryOrEntry) -> HistoryEntry:
    """The entry itself, or a fresh entry wrapping a bare query."""
    return item if isinstance(item, HistoryEntry) else HistoryEntry(item)


class QueryHistory:
    """Ordered log of queries, optionally with cached results."""

    def __init__(self):
        self.entries: list[HistoryEntry] = []

    def append(self, query: CubeQuery, result: CellSet | None = None,
               session_id: str = "s0"):
        if result is not None:
            _check_cached(query, result)
        seq = self.entries[-1].seq + 1 if self.entries else 0
        self.entries.append(HistoryEntry(query, result, session_id, seq))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[HistoryEntry]:
        return iter(self.entries)

    def queries(self) -> list[CubeQuery]:
        return [e.query for e in self.entries]

    def sessions(self) -> list[str]:
        out = []
        for e in self.entries:
            if e.session_id not in out:
                out.append(e.session_id)
        return out


def _check_cached(query: CubeQuery, result: CellSet):
    fresh = evaluate(query)
    if sorted(result.packed_keys()) != sorted(fresh.packed_keys()):
        raise HistoryConsistencyError("cached result has different coordinates")
    if set(result.measures) != set(fresh.measures):
        raise HistoryConsistencyError("cached result has different measures")
    order_a = np.argsort(result.packed_keys())
    order_b = np.argsort(fresh.packed_keys())
    for name, col in result.measures.items():
        if not np.allclose(col[order_a], fresh.measures[name][order_b],
                           rtol=1e-9, atol=1e-9):
            raise HistoryConsistencyError(
                f"cached result disagrees on measure {name}")


def filter_history_same_measures(
        history: QueryHistory | Iterable[QueryOrEntry], q: CubeQuery) -> list:
    """History items whose aggregate(measure) multiset equals the query's,
    of the type given (queries for a `QueryHistory`)."""
    target = sorted(q.aggregates)
    items = history.queries() if isinstance(history, QueryHistory) else history
    return [x for x in items if sorted(as_entry(x).query.aggregates) == target]


class ExpectedValues:
    """Expected measure values registered per anchored coordinate."""

    def __init__(self):
        self._data: dict[Anchor, dict[str, float]] = {}

    def register(self, anchor: Anchor, measure: str, value: float):
        self._data.setdefault(anchor, {})[measure] = float(value)

    def lookup(self, anchor: Anchor) -> dict[str, float]:
        return self._data.get(anchor, {})

    def __len__(self) -> int:
        return len(self._data)

    def items(self):
        return self._data.items()


class ExpectedLabels:
    """Expected labels registered per anchored coordinate."""

    def __init__(self):
        self._data: dict[Anchor, dict[str, str]] = {}

    def register(self, anchor: Anchor, measure: str, label: str):
        self._data.setdefault(anchor, {})[measure] = label

    def lookup(self, anchor: Anchor) -> dict[str, str]:
        return self._data.get(anchor, {})

    def __len__(self) -> int:
        return len(self._data)

    def items(self):
        return self._data.items()


def _anchor_from_columns(cube: DetailedCube, header: list[str],
                         row: list[str], coord_cols: list[int]) -> Anchor:
    """Resolve coordinate columns (level names) of a CSV row to an anchor."""
    parts: dict[str, tuple[str, int]] = {}
    for c in coord_cols:
        level_name = header[c]
        hits = [d for d in cube.dims if d.has_level(level_name)]
        if not hits:
            raise UnknownLevel(f"no dimension has level {level_name!r}")
        if len(hits) > 1:
            raise UnknownLevel(f"level {level_name!r} is ambiguous across dimensions")
        dim = hits[0]
        member = dim.member(level_name, row[c].strip())
        parts[dim.name] = (dim.level(level_name).name, member.id)
    return tuple(parts.get(d.name, (ALL_LEVEL, 0)) for d in cube.dims)


def load_expected_values(path: str | Path, cube: DetailedCube) -> ExpectedValues:
    """Read an expected-values CSV: coordinate columns (level names), then
    `measure` and `expected` columns."""
    out = ExpectedValues()
    for anchor, measure, raw in _iter_expectation_rows(path, cube):
        out.register(anchor, measure, float(raw))
    return out


def load_expected_labels(path: str | Path, cube: DetailedCube) -> ExpectedLabels:
    """Read an expected-labels CSV: coordinate columns, `measure`, `label`."""
    out = ExpectedLabels()
    for anchor, measure, raw in _iter_expectation_rows(
            path, cube, value_column=("label", "expected")):
        out.register(anchor, measure, raw.strip())
    return out


def _iter_expectation_rows(path: str | Path, cube: DetailedCube,
                           value_column: tuple[str, ...] = ("expected",)):
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyFile(f"{path}: empty expectation file") from None
        lower = [h.lower() for h in header]
        try:
            m_col = lower.index("measure")
        except ValueError:
            raise UnknownMeasure(f"{path}: no `measure` column") from None
        v_col = next((lower.index(c) for c in value_column if c in lower), None)
        if v_col is None:
            raise UnknownMeasure(
                f"{path}: no value column (one of {value_column})")
        coord_cols = [i for i in range(len(header)) if i not in (m_col, v_col)]
        for row in reader:
            if not row or not any(f.strip() for f in row):
                continue
            anchor = _anchor_from_columns(cube, header, row, coord_cols)
            measure = row[m_col].strip()
            cube.measure_index(measure)  # validate
            yield anchor, measure, row[v_col]


@dataclass
class SessionContext:
    """Everything a metric may consult about the user and the data."""

    cube: DetailedCube
    history: QueryHistory = field(default_factory=QueryHistory)
    beliefs: BeliefStore = field(default_factory=BeliefStore)
    goals: list[Goal] = field(default_factory=list)
    expected_values: ExpectedValues = field(default_factory=ExpectedValues)
    expected_labels: ExpectedLabels = field(default_factory=ExpectedLabels)
    labeling_schemes: dict = field(default_factory=dict)
    label_domain: object | None = None

    @property
    def dims(self) -> tuple[Dimension, ...]:
        return self.cube.dims

    def load_session_file(self, path: str | Path, session_id: str | None = None):
        """Append queries from a session file (one query per line, `#`
        comments)."""
        from . import qlang

        path = Path(path)
        sid = session_id or path.stem
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            self.history.append(qlang.parse_query(line, self.cube), session_id=sid)

    def load_belief_file(self, path: str | Path):
        from . import qlang

        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            self.beliefs.add(qlang.parse_belief(line, self.cube))

    def load_goal_file(self, path: str | Path):
        from . import qlang

        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            self.goals.append(qlang.parse_condition(line, self.cube))

    def load_label_rules(self, path: str | Path, strict_coverage: bool = False):
        from . import qlang

        schemes, domain = qlang.parse_label_rules(
            Path(path).read_text(encoding="utf-8"), strict_coverage=strict_coverage)
        self.labeling_schemes.update(schemes)
        if domain is not None:
            self.label_domain = domain
