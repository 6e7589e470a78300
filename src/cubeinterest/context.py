"""Assessment context: query history, belief store, goals, expectations.

The context is the mutable session state the metrics read from; metrics
operate on snapshots and never write back. Belief statements are anchored
at explicit coordinates (unstated dimensions default to ALL) and carry a
probability for a value set, a value interval, or a label.

Expected values and expected labels share one store type and one CSV
loader, which resolves the header once so that a row costs dict lookups
only. Session, belief, goal and rule files are read by one text read and
split by one line reader that skips blank and `#` lines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
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
    _MemberIds,
    detailed_area_keys,
    detailed_signature,
    evaluate,
)
from .errors import (
    HistoryConsistencyError,
    SchemaMismatch,
    UnknownLevel,
    UnknownMeasure,
    UnknownMember,
)
from .mdm import ALL_LEVEL, CsvTable, Dimension

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
    """The shortest decimal that reads back as `x`, never with an exponent."""
    x = float(x)
    return str(int(x)) if x.is_integer() else format(Decimal(repr(x)), "f")


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

    def at(self, anchor: Anchor, kinds: tuple[str, ...] = ("set", "interval", "label")
           ) -> list[BeliefStatement]:
        return [s for s in self._by_anchor.get(anchor, ()) if s.kind in kinds]


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
    kept on the entry: its rows, the ascending ids of the fact rows it
    selects (its detailed area, 8 bytes per row), selected once in the
    entry's life, by `append` when it checks a supplied result; its result
    cells (the supplied result, else the query evaluated over its rows);
    and its detailed factored signature (one sorted id array per
    dimension). The result cells also keep one index per depth tuple a
    metric walks (`CellSet.index`), at most 16 bytes per cell and tuple: 9
    tuples for a District x Month result on the star schema, 32 at most.
    The cube is immutable, so none goes stale. The detailed and
    extensional metrics read these from the entries they are given; a bare
    query gets a fresh entry (`as_entry`) that lives for one call, so a
    plain call still scans.

    The entry passed as q also keeps one probe per history entry (`hits`),
    which every detailed extensional metric of the call reads. The harness
    passes a fresh entry as q, so an assessment probes each history entry
    once and the history's entries keep no probes.
    """

    query: CubeQuery
    result: CellSet | None = None
    session_id: str = "s0"
    seq: int = 0
    # id(other) -> (other, hits(other)); holding `other` keeps its id unique
    _hits: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @cached_property
    def rows(self) -> np.ndarray:
        return detailed_area_keys(self.query)

    def rows_over(self, cube: DetailedCube) -> np.ndarray:
        """The rows; row ids compare only over one cube object."""
        if self.query.cube is not cube:
            raise SchemaMismatch("detailed areas compare over one cube only")
        return self.rows

    def hits(self, other: "HistoryEntry") -> np.ndarray:
        """One bool per row of this entry: True iff `other` selects it.

        `other`'s rows are marked in a transient one-byte-per-fact-row
        array, which is read at this entry's rows; the result is memoised
        here, so each other entry is probed once in this entry's life.
        Raises SchemaMismatch unless both are over one cube object.
        """
        memo = self._hits.get(id(other))
        if memo is None:
            marked = np.zeros(len(self.query.cube), dtype=bool)
            marked[other.rows_over(self.query.cube)] = True
            memo = self._hits[id(other)] = (other, marked[self.rows])
        return memo[1]

    @cached_property
    def result_cells(self) -> CellSet:
        return (self.result if self.result is not None
                else evaluate(self.query, self.rows))

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
        seq = self.entries[-1].seq + 1 if self.entries else 0
        entry = HistoryEntry(query, result, session_id, seq)
        if result is not None:
            _check_cached(entry)
        self.entries.append(entry)

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


def _check_cached(entry: HistoryEntry):
    result, fresh = entry.result, evaluate(entry.query, entry.rows)
    if result.dims != fresh.dims or result.levels != fresh.levels:
        raise HistoryConsistencyError("cached result is at different levels")
    # `evaluate` returns its cells in ascending key order
    keys = result.packed_keys()
    order = np.argsort(keys)
    if not np.array_equal(keys[order], fresh.packed_keys()):
        raise HistoryConsistencyError("cached result has different coordinates")
    if set(result.measures) != set(fresh.measures):
        raise HistoryConsistencyError("cached result has different measures")
    for name, col in result.measures.items():
        if not np.allclose(col[order], fresh.measures[name],
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
    """Expected measure values, or expected labels, registered per anchored
    coordinate. `ExpectedLabels` is the same store."""

    def __init__(self):
        self._data: dict[Anchor, dict[str, float | str]] = {}

    def register(self, anchor: Anchor, measure: str, value: float | str):
        self._data.setdefault(anchor, {})[measure] = value

    def lookup(self, anchor: Anchor) -> dict[str, float | str]:
        return self._data.get(anchor, {})

    def __len__(self) -> int:
        return len(self._data)

    def items(self):
        return self._data.items()


ExpectedLabels = ExpectedValues


def load_expected_values(path: str | Path, cube: DetailedCube) -> ExpectedValues:
    """Read an expected-values CSV: coordinate columns, `measure`, and a
    finite number in `expected`."""
    return _load_expectations(path, cube, ("expected",), float)


def load_expected_labels(path: str | Path, cube: DetailedCube) -> ExpectedLabels:
    """Read an expected-labels CSV: coordinate columns, `measure`, `label`."""
    return _load_expectations(path, cube, ("label", "expected"),
                              lambda text: sys.intern(text.strip()))


def _load_expectations(path: str | Path, cube: DetailedCube,
                       value_columns: tuple[str, ...], parse) -> ExpectedValues:
    """Read an expectation CSV (a `CsvTable`): a `measure` column, a value
    column (the first of `value_columns` present) and at most one coordinate
    column per dimension, named by level, in any order (never `label` or
    `expected`). Each coordinate column is resolved once, to its dimension,
    level and label -> id memo; a dimension without one is anchored at ALL.
    `parse` makes the stored value; a `ValueError` from it and a float that
    is not finite raise `MalformedFactRow`. Errors name the file and row.
    """
    out = ExpectedValues()
    with CsvTable(path, "expectation file") as table:
        header = table.header
        lower = [h.lower() for h in header]
        at = [(None, None)] * len(cube.dims)  # per dimension: column, ids
        measures: dict[str, int] = {}
        try:
            if "measure" not in lower:
                raise UnknownMeasure("no `measure` column")
            m_col = lower.index("measure")
            v_col = next((lower.index(c) for c in value_columns if c in lower), None)
            if v_col is None:
                raise UnknownMeasure(f"no value column (one of {value_columns})")
            for c, h in enumerate(header):
                if c == m_col or lower[c] in ("label", "expected"):
                    continue
                dim = cube.dim_with_level(h)
                j = cube.dims.index(dim)
                if at[j][0] is not None:
                    raise UnknownLevel(f"columns {header[at[j][0]]!r} and {h!r} "
                                       f"both name levels of {dim.name}")
                at[j] = c, _MemberIds(dim, dim.level(h))
            for row in table.rows():
                anchor = tuple((ALL_LEVEL, 0) if c is None else
                               (ids.level.name, ids[row[c]]) for c, ids in at)
                # interned: a row's own string would pin its block's memory
                measure = sys.intern(row[m_col].strip())
                if measure not in measures:
                    measures[measure] = cube.measure_index(measure)
                try:
                    value = parse(row[v_col])
                except ValueError:
                    raise table.error(f"{header[v_col]} is not a number: "
                                      f"{row[v_col]!r}") from None
                if isinstance(value, float) and not math.isfinite(value):
                    raise table.error(f"{header[v_col]} is not finite: "
                                      f"{row[v_col]!r}")
                out.register(anchor, measure, value)
        except (UnknownLevel, UnknownMeasure, UnknownMember) as exc:
            raise table.error(exc, type(exc)) from None
    return out


def _text(path: str | Path) -> str:
    """A text input, read as UTF-8 with or without a byte-order mark."""
    return Path(path).read_text(encoding="utf-8-sig")


def _lines(text: str) -> Iterator[str]:
    """The stripped lines of a text, without blank and `#` lines."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


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

        sid = session_id or Path(path).stem
        for line in _lines(_text(path)):
            self.history.append(qlang.parse_query(line, self.cube), session_id=sid)

    def load_belief_file(self, path: str | Path):
        from . import qlang

        for line in _lines(_text(path)):
            self.beliefs.add(qlang.parse_belief(line, self.cube))

    def load_goal_file(self, path: str | Path):
        from . import qlang

        for line in _lines(_text(path)):
            self.goals.append(qlang.parse_condition(line, self.cube))

    def load_label_rules(self, path: str | Path):
        from . import qlang

        schemes, domain = qlang.parse_label_rules(_text(path))
        self.labeling_schemes.update(schemes)
        if domain is not None:
            self.label_domain = domain
