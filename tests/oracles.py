"""Independent brute-force reference implementations for the test suite.

Everything here works on plain-python descriptions (label paths, label
tuples, dict walks, exhaustive enumeration) and imports nothing from the
package under test, so metric tests can compare two genuinely separate
computation routes.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
from collections import Counter, deque
from dataclasses import dataclass, field

ALL_LEVEL = "ALL"
ALL_MEMBER = "all"


class ODim:
    """Hierarchy as explicit label graphs built from rollup rows."""

    def __init__(self, name: str, level_names: list[str],
                 rows: list[tuple[str, ...]]):
        self.name = name
        self.levels = list(level_names) + [ALL_LEVEL]
        self.members: dict[str, list[str]] = {lv: [] for lv in self.levels}
        self.parent: dict[tuple[str, str], str] = {}
        self.members[ALL_LEVEL] = [ALL_MEMBER]
        for row in rows:
            for d, label in enumerate(row):
                if label not in self.members[self.levels[d]]:
                    self.members[self.levels[d]].append(label)
                up = row[d + 1] if d + 1 < len(row) else ALL_MEMBER
                self.parent[(self.levels[d], label)] = up

    def depth(self, level: str) -> int:
        return self.levels.index(level)

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    def anc(self, level: str, label: str, to_level: str) -> str:
        d, target = self.depth(level), self.depth(to_level)
        while d < target:
            label = self.parent[(self.levels[d], label)]
            d += 1
        return label

    def desc(self, level: str, label: str, to_level: str) -> list[str]:
        return [m for m in self.members[to_level]
                if self.anc(to_level, m, level) == label]

    def _edges(self) -> dict[tuple[str, str], list[tuple[str, str]]]:
        if not hasattr(self, "_edge_graph"):
            edges: dict[tuple[str, str], list[tuple[str, str]]] = {}
            for (lv, label), up in self.parent.items():
                up_lv = self.levels[self.depth(lv) + 1]
                edges.setdefault((lv, label), []).append((up_lv, up))
                edges.setdefault((up_lv, up), []).append((lv, label))
            self._edge_graph = edges
        return self._edge_graph

    def value_distance(self, level_a: str, a: str, level_b: str, b: str) -> float:
        """BFS hop count between the two members over the undirected
        child-parent edge graph, normalized by twice the height."""
        if not hasattr(self, "_dist_cache"):
            self._dist_cache = {}
        key = (level_a, a, level_b, b)
        if key in self._dist_cache:
            return self._dist_cache[key]
        edges = self._edges()
        start, goal = (level_a, a), (level_b, b)
        seen = {start: 0}
        queue = deque([start])
        out = None
        while queue:
            node = queue.popleft()
            if node == goal:
                out = seen[node] / (2.0 * self.height)
                break
            for nxt in edges.get(node, ()):
                if nxt not in seen:
                    seen[nxt] = seen[node] + 1
                    queue.append(nxt)
        if out is None:
            raise AssertionError("members not connected")
        self._dist_cache[key] = out
        self._dist_cache[(level_b, b, level_a, a)] = out
        return out


@dataclass
class OCube:
    """Fact rows as label tuples plus per-row measure dicts."""

    dims: list[ODim]
    measures: list[str]
    rows: list[tuple[tuple[str, ...], dict[str, float]]] = field(
        default_factory=list)

    def add(self, coords: tuple[str, ...], **measures: float):
        self.rows.append((coords, dict(measures)))


@dataclass(frozen=True)
class QSpec:
    """Neutral query description: atoms/groupers keyed by dimension name."""

    atoms: tuple[tuple[str, str, frozenset[str]], ...]  # (dim, level, labels)
    groupers: tuple[str, ...]  # one level per cube dimension
    aggregates: tuple[tuple[str, str], ...]

    def atom_for(self, dim_name: str):
        for d, lv, labels in self.atoms:
            if d == dim_name:
                return lv, labels
        return None


def row_matches(cube: OCube, q: QSpec, coords: tuple[str, ...]) -> bool:
    for j, dim in enumerate(cube.dims):
        atom = q.atom_for(dim.name)
        if atom is None:
            continue
        level, labels = atom
        if dim.anc(dim.levels[0], coords[j], level) not in labels:
            return False
    return True


def detailed_cells(cube: OCube, q: QSpec) -> set[tuple[str, ...]]:
    return {coords for coords, _ in cube.rows if row_matches(cube, q, coords)}


def detailed_signature(cube: OCube, q: QSpec) -> set[tuple[str, ...]]:
    per_dim = []
    for dim in cube.dims:
        atom = q.atom_for(dim.name)
        if atom is None:
            per_dim.append(list(dim.members[dim.levels[0]]))
        else:
            level, labels = atom
            out: list[str] = []
            for lab in sorted(labels):
                out.extend(m for m in dim.desc(level, lab, dim.levels[0])
                           if m not in out)
            per_dim.append(out)
    return set(itertools.product(*per_dim))


def query_signature(cube: OCube, q: QSpec) -> set[tuple[str, ...]]:
    out = set()
    for coords in detailed_signature(cube, q):
        out.add(tuple(dim.anc(dim.levels[0], c, g)
                      for dim, c, g in zip(cube.dims, coords, q.groupers)))
    return out


def evaluate(cube: OCube, q: QSpec) -> dict[tuple[str, ...], dict[str, float]]:
    groups: dict[tuple[str, ...], list[dict[str, float]]] = {}
    for coords, measures in cube.rows:
        if not row_matches(cube, q, coords):
            continue
        key = tuple(dim.anc(dim.levels[0], c, g)
                    for dim, c, g in zip(cube.dims, coords, q.groupers))
        groups.setdefault(key, []).append(measures)
    out: dict[tuple[str, ...], dict[str, float]] = {}
    for key, bag in groups.items():
        cell: dict[str, float] = {}
        for fn, m in q.aggregates:
            values = [b[m] for b in bag]
            if fn == "sum":
                v = math.fsum(values)
            elif fn == "count":
                v = float(len(values))
            elif fn == "avg":
                v = math.fsum(values) / len(values)
            elif fn == "min":
                v = min(values)
            elif fn == "max":
                v = max(values)
            else:
                raise AssertionError(fn)
            cell[f"{fn}({m})"] = v
        out[key] = cell
    return out


# --- coverage metrics ----------------------------------------------------------

def pden(cube: OCube, q: QSpec, history: list[QSpec],
         weighted: bool = False) -> float:
    mine = detailed_cells(cube, q)
    counter: Counter = Counter()
    for qi in history:
        counter.update(detailed_cells(cube, qi))
    covered = {c for c in mine if counter[c] > 0}
    if not covered:
        return 1.0
    if weighted:
        novel_w = len(mine) - len(covered)
        return novel_w / (novel_w + sum(counter[c] for c in covered))
    return (len(mine) - len(covered)) / len(mine)


def pdsn(cube: OCube, q: QSpec, history: list[QSpec],
         weighted: bool = False) -> float:
    mine = detailed_signature(cube, q)
    counter: Counter = Counter()
    for qi in history:
        counter.update(detailed_signature(cube, qi))
    covered = {c for c in mine if counter[c] > 0}
    if not covered:
        return 1.0
    if weighted:
        novel_w = len(mine) - len(covered)
        return novel_w / (novel_w + sum(counter[c] for c in covered))
    return (len(mine) - len(covered)) / len(mine)


def fsdn(cube: OCube, q: QSpec, history: list[QSpec]) -> int:
    mine = detailed_signature(cube, q)
    for qi in history:
        if mine <= detailed_signature(cube, qi):
            return 0
    return 1


def fslsn(q: QSpec, history: list[QSpec]) -> int:
    def canon(s: QSpec):
        return (frozenset(s.atoms), s.groupers, tuple(sorted(s.aggregates)))

    return 0 if any(canon(qi) == canon(q) for qi in history) else 1


def gbdsr(cube: OCube, q: QSpec, goals: list[QSpec]) -> float:
    mine = detailed_signature(cube, q)
    goal_union = set()
    for g in goals:
        goal_union |= detailed_signature(cube, g)
    if not mine:
        return 0.0
    return len(mine & goal_union) / len(mine)


def atoms_respect_groupers(cube: OCube, q: QSpec) -> bool:
    for dim, g in zip(cube.dims, q.groupers):
        atom = q.atom_for(dim.name)
        if atom and dim.depth(atom[0]) < dim.depth(g):
            return False
    return True


def same_level_comparable(cube: OCube, q: QSpec,
                          history: list[QSpec]) -> list[QSpec]:
    if not atoms_respect_groupers(cube, q):
        return []
    return [qi for qi in history
            if qi.groupers == q.groupers
            and sorted(qi.aggregates) == sorted(q.aggregates)
            and atoms_respect_groupers(cube, qi)]


def pslsn(cube: OCube, q: QSpec, history: list[QSpec]) -> float:
    others = same_level_comparable(cube, q, history)
    if not others:
        return 1.0
    mine = query_signature(cube, q)
    union = set()
    for qi in others:
        union |= query_signature(cube, qi)
    covered = mine & union
    if not covered:
        return 1.0
    return (len(mine) - len(covered)) / len(mine)


def pslen(cube: OCube, q: QSpec, history: list[QSpec]) -> float:
    others = same_level_comparable(cube, q, history)
    if not others:
        return 1.0
    mine = set(evaluate(cube, q))
    union = set()
    for qi in others:
        union |= set(evaluate(cube, qi))
    covered = mine & union
    if not covered:
        return 1.0
    return (len(mine) - len(covered)) / len(mine)


# --- distances ------------------------------------------------------------------

def cell_distance(cube: OCube, levels_a, coords_a, levels_b, coords_b) -> float:
    total = 0.0
    for dim, la, ca, lb, cb in zip(cube.dims, levels_a, coords_a,
                                   levels_b, coords_b):
        total += dim.value_distance(la, ca, lb, cb)
    return total / len(cube.dims)


def closest_relative(cube: OCube, levels_a, cells_a, levels_b, cells_b) -> float:
    dists = []
    for ca in cells_a:
        dists.append(min(cell_distance(cube, levels_a, ca, levels_b, cb)
                         for cb in cells_b))
    return statistics.fmean(dists)


def hausdorff(cube: OCube, levels_a, cells_a, levels_b, cells_b) -> float:
    def directed(xs, lx, ys, ly):
        return max(min(cell_distance(cube, lx, x, ly, y) for y in ys)
                   for x in xs)

    return max(directed(cells_a, levels_a, cells_b, levels_b),
               directed(cells_b, levels_b, cells_a, levels_a))


def jaccard_distance(cube: OCube, qa: QSpec, qb: QSpec) -> float:
    a, b = detailed_cells(cube, qa), detailed_cells(cube, qb)
    union = a | b
    if not union:
        return 0.0
    return 1.0 - len(a & b) / len(union)


def query_distance(cube: OCube, qa: QSpec, qb: QSpec,
                   weights=(0.5, 0.35, 0.15)) -> float:
    d_filter = 0.0
    d_level = 0.0
    for j, dim in enumerate(cube.dims):
        aa, ab = qa.atom_for(dim.name), qb.atom_for(dim.name)
        if aa != ab:
            d_filter += 1.0
        d_level += abs(dim.depth(qa.groupers[j]) - dim.depth(qb.groupers[j])) \
            / dim.height
    d_filter /= len(cube.dims)
    d_level /= len(cube.dims)
    sa, sb = set(qa.aggregates), set(qb.aggregates)
    d_meas = 1.0 - len(sa & sb) / len(sa | sb) if (sa | sb) else 0.0
    return weights[0] * d_filter + weights[1] * d_level + weights[2] * d_meas


# --- beliefs and surprise ---------------------------------------------------------

def belief_novelty(cube: OCube, levels, cells, anchors) -> float:
    """Novel share of the cells (label tuples at `levels`): a cell is covered
    iff its detailed signature is a subset of the union of the anchors'
    detailed signatures. `anchors` holds (levels, labels) pairs."""
    def detail(anchor_levels, labels) -> set[tuple[str, ...]]:
        return set(itertools.product(*[
            dim.desc(lv, lab, dim.levels[0])
            for dim, lv, lab in zip(cube.dims, anchor_levels, labels)]))

    known: set[tuple[str, ...]] = set()
    for anchor_levels, labels in anchors:
        known |= detail(anchor_levels, labels)
    covered = sum(1 for c in cells if detail(levels, c) <= known)
    if not covered:
        return 1.0
    return (len(cells) - covered) / len(cells)


def probability_surprise(statements, actual: float) -> float:
    """statements: iterable of (contains: bool-valued fn, probability)."""
    return math.fsum(p for contains, p in statements if not contains(actual))


def minmax_normalized_avg(dists: list[float]) -> float | None:
    if not dists:
        return None
    lo, hi = min(dists), max(dists)
    if hi == lo:
        return 0.0
    return (statistics.fmean(dists) - lo) / (hi - lo)


# --- cube-level surprise -------------------------------------------------------------
#
# A result is a list of (anchor, {column: value}) in result order. Expected
# values and labels map anchor -> {measure name: value or label}. A belief is
# (anchor, measure, kind, values, probability): values is a tuple of numbers
# for "set", (lo, hi, lo_closed, hi_closed) for "interval" and a label name
# for "label". Label rules map measure -> [(lo, hi, lo_closed, hi_closed,
# label)]; `order` lists ordinal labels, or is None for 0/1 label distance.


def measure_columns(row: dict[str, float], name: str) -> list[str]:
    """The column named `name` in any case, else every column aggregating
    measure `name`."""
    for col in row:
        if col.lower() == name.lower():
            return [col]
    return [col for col in row if col.lower().endswith(f"({name.lower()})")]


def fold(kind: str, values: list[float]) -> float:
    if kind == "count":
        return float(len([v for v in values if v > 0]))
    if kind == "sum":
        return math.fsum(values)
    if kind == "mean":
        return statistics.fmean(values)
    if kind == "median":
        return statistics.median(values)
    return max(values) if kind == "max" else min(values)


def _cube_score(per_cell, cell_agg, cube_agg):
    scores = [fold(cell_agg, s) for s in per_cell if s]
    return fold(cube_agg, scores) if scores else None


def _in_interval(x, lo, hi, lo_closed, hi_closed) -> bool:
    return ((lo <= x if lo_closed else lo < x)
            and (x <= hi if hi_closed else x < hi))


def rule_label(rules, measure: str, x: float) -> str | None:
    for name, intervals in rules.items():
        if name.lower() == measure.lower():
            for lo, hi, lo_closed, hi_closed, label in intervals:
                if _in_interval(x, lo, hi, lo_closed, hi_closed):
                    return label
    return None


def label_gap(order, a: str, b: str) -> float:
    if order is None:
        return 0.0 if a == b else 1.0
    return abs(order.index(a) - order.index(b)) / (len(order) - 1)


def cube_value_surprise(cells, expected, cell_agg, cube_agg):
    per_cell = []
    for anchor, row in cells:
        gaps = []
        for name, exp in expected.get(anchor, {}).items():
            gaps += [abs(row[col] - exp) for col in measure_columns(row, name)]
        per_cell.append(gaps)
    return _cube_score(per_cell, cell_agg, cube_agg)


def _beliefs_by_measure(beliefs, anchor, kind):
    out: dict[str, list] = {}
    for b_anchor, measure, b_kind, values, p in beliefs:
        if b_anchor == anchor and b_kind == kind:
            out.setdefault(measure, []).append((values, p))
    return out


def cube_probability_surprise(cells, beliefs, kind, cell_agg, cube_agg):
    """kind "set" (exact mode) or "interval" (interval mode)."""
    per_cell = []
    for anchor, row in cells:
        scores = []
        for measure, stmts in _beliefs_by_measure(beliefs, anchor, kind).items():
            for col in measure_columns(row, measure):
                x = row[col]
                if kind == "set":
                    held = [any(math.isclose(x, v, rel_tol=1e-12, abs_tol=1e-12)
                                for v in values) for values, _ in stmts]
                else:
                    held = [_in_interval(x, *values) for values, _ in stmts]
                scores.append(math.fsum(
                    p for (_, p), h in zip(stmts, held) if not h))
        per_cell.append(scores)
    return _cube_score(per_cell, cell_agg, cube_agg)


def cube_label_surprise(cells, expected, rules, order, cell_agg, cube_agg):
    per_cell = []
    for anchor, row in cells:
        gaps = []
        for name, exp_label in expected.get(anchor, {}).items():
            gaps += [label_gap(order, rule_label(rules, name, row[col]),
                               exp_label)
                     for col in measure_columns(row, name)]
        per_cell.append(gaps)
    return _cube_score(per_cell, cell_agg, cube_agg)


def strict_label_surprise(cells, expected, rules) -> bool:
    for anchor, row in cells:
        for name, exp_label in expected.get(anchor, {}).items():
            if any(rule_label(rules, name, row[col]) != exp_label
                   for col in measure_columns(row, name)):
                return True
    return False


def cube_prob_label_surprise(cells, beliefs, rules, order, cell_agg, cube_agg):
    """Strict mode when `order` is None, else loose: each off-label
    probability weighted by its label's distance from the actual one."""
    per_cell = []
    for anchor, row in cells:
        scores = []
        for measure, stmts in _beliefs_by_measure(beliefs, anchor, "label").items():
            for col in measure_columns(row, measure):
                actual = rule_label(rules, measure, row[col])
                scores.append(math.fsum(
                    p * (1.0 if order is None
                         else label_gap(order, label, actual))
                    for label, p in stmts if label != actual))
        per_cell.append(scores)
    return _cube_score(per_cell, cell_agg, cube_agg)


# --- expectation files --------------------------------------------------------------

class BadExpectationFile(Exception):
    pass


def load_expectations(path, cube: OCube, value_columns: tuple[str, ...],
                      parse) -> dict[tuple[tuple[str, str], ...], dict]:
    """Plain-`csv` reading of an expectation file: {anchor: {measure: value}}
    with one (level, label) pair per cube dimension, (ALL, all) where no
    column names a level of it. Raises BadExpectationFile for a file the
    loaders must reject."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise BadExpectationFile("no header")
    header = [h.strip().lower() for h in rows[0]]
    names = [c for c in ("measure",) + tuple(value_columns) if c in header]
    if "measure" not in names or len(names) < 2:
        raise BadExpectationFile("no measure or value column")
    m_col, v_col = header.index("measure"), header.index(names[1])
    at: dict[int, tuple[int, str]] = {}  # dimension position -> column, level
    for c, h in enumerate(header):
        if c == m_col or h in ("label", "expected"):
            continue
        owners = [(j, lv) for j, d in enumerate(cube.dims)
                  for lv in d.levels if lv.lower() == h]
        if len(owners) != 1 or owners[0][0] in at:
            raise BadExpectationFile(f"column {h!r}")
        at[owners[0][0]] = (c, owners[0][1])
    measures = {m.lower() for m in cube.measures}
    out: dict = {}
    for row in rows[1:]:
        if all(not f.strip() for f in row):
            continue
        if len(row) < len(header):
            raise BadExpectationFile("short row")
        anchor = []
        for j, d in enumerate(cube.dims):
            c, lv = at.get(j, (None, ALL_LEVEL))
            label = ALL_MEMBER if c is None else row[c].strip()
            if label not in d.members[lv]:
                raise BadExpectationFile(f"label {label!r}")
            anchor.append((lv, label))
        measure = row[m_col].strip()
        if measure.lower() not in measures:
            raise BadExpectationFile(f"measure {measure!r}")
        try:
            value = parse(row[v_col])
        except ValueError:
            raise BadExpectationFile(f"value {row[v_col]!r}") from None
        out.setdefault(tuple(anchor), {})[measure] = value
    return out
