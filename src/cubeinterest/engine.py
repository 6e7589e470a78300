"""Fact cube storage, query evaluation, signatures and detailed areas.

The detailed cube keeps its coordinates as dense base-level integer ids in
one column-major int32 rows x dimensions array, so each dimension's ids are
contiguous, plus float64 measure columns.
Query evaluation is a vectorized filter -> rollup -> group -> aggregate
pipeline; its filter reads one `Dimension.desc_mask` table per atom. A query's
detailed area is the fact rows it selects, its detailed cells the query at base
levels, and its query signature its detailed signature rolled up.
Signatures stay factored per dimension and are never enumerated: one walk,
`FactoredSignature.coverage`, counts a union's overlap, the sum of each box's
and the boxes holding the whole signature. Cell sets meet as packed keys
(`CellSet.meets`), in lexicographic coordinate order at any cube width.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateCoordinates,
    UnknownLevel,
    UnknownMeasure,
    UnknownMember,
)
from .mdm import CsvTable, Dimension, Level, Member

AGG_FUNCTIONS = ("sum", "avg", "count", "min", "max")


@dataclass(frozen=True)
class AtomicFilter:
    """One `level IN {members}` restriction on a single dimension."""

    dimension: str
    level: str
    values: frozenset[int]  # member ids at `level`

    def __post_init__(self):
        if not self.values:
            raise UnknownMember(
                f"atom on {self.dimension}.{self.level} has an empty value set")


@dataclass(frozen=True)
class SelectionCondition:
    """Conjunction of atomic filters, at most one per dimension.

    A dimension without an atom is unrestricted (equivalently filtered by
    ALL = {all}). Dimension names match ignoring case, as cube lookups do.
    """

    atoms: tuple[AtomicFilter, ...] = ()

    def __post_init__(self):
        seen = set()
        for a in self.atoms:
            if a.dimension.lower() in seen:
                raise DimensionMismatch(
                    f"two atoms on dimension {a.dimension}")
            seen.add(a.dimension.lower())
        # canonical atom order, so structural equality ignores input order
        object.__setattr__(self, "atoms",
                           tuple(sorted(self.atoms, key=lambda a: a.dimension)))

    def atom_for(self, dimension: str) -> AtomicFilter | None:
        for a in self.atoms:
            if a.dimension.lower() == dimension.lower():
                return a
        return None

    @property
    def is_empty(self) -> bool:
        return not self.atoms


class DetailedCube:
    """Immutable base-level fact table over a tuple of dimensions."""

    def __init__(self, dims: tuple[Dimension, ...], measures: tuple[str, ...],
                 coords: np.ndarray, values: np.ndarray):
        self.dims = tuple(dims)
        self.measures = tuple(measures)
        # column-major: a filter or roll-up reads one dimension's ids, and
        # only those
        self.coords = np.asfortranarray(coords, dtype=np.int32)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        if self.coords.shape != (len(self), len(self.dims)):
            raise DimensionMismatch("coordinate matrix shape mismatch")
        if self.values.shape != (len(self), len(self.measures)):
            raise UnknownMeasure("measure matrix shape mismatch")
        for j, dim in enumerate(self.dims):
            col = self.coords[:, j]
            if len(col) and (col.min() < 0 or col.max() >= dim.size(dim.base_level)):
                raise UnknownMember(
                    f"fact column {dim.name} holds out-of-range member ids")
        keys = pack_keys(self.coords, [d.size(d.base_level) for d in self.dims])
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise DuplicateCoordinates(
                "fact table holds duplicate coordinate tuples")

    def __len__(self) -> int:
        return self.values.shape[0] if self.values.ndim == 2 else self.coords.shape[0]

    def dim_index(self, name: str) -> int:
        for i, d in enumerate(self.dims):
            if d.name.lower() == name.lower():
                return i
        raise DimensionMismatch(f"cube has no dimension {name!r}")

    def dim(self, name: str) -> Dimension:
        return self.dims[self.dim_index(name)]

    def dim_with_level(self, name: str) -> Dimension:
        """The one dimension that has a level called `name`."""
        hits = [d for d in self.dims if d.has_level(name)]
        if len(hits) != 1:
            raise UnknownLevel(f"level {name!r} is ambiguous across dimensions"
                               if hits else f"no dimension has level {name!r}")
        return hits[0]

    def measure_index(self, name: str) -> int:
        for i, m in enumerate(self.measures):
            if m.lower() == name.lower():
                return i
        raise UnknownMeasure(f"cube has no measure {name!r}")

    def base_levels(self) -> tuple[str, ...]:
        return tuple(d.base_level.name for d in self.dims)


@dataclass(frozen=True)
class CubeQuery:
    """Aggregate query: base cube, selection, grouper levels, aggregates.

    `groupers` holds one level name per cube dimension (ALL drops the
    dimension from the grouping); `aggregates` is a tuple of
    (function, base measure) pairs. Names are matched in any case and
    stored as the schema spells them (dimension, level and measure names),
    so two queries that define the same cube compare equal, print alike
    and name their result columns alike.
    """

    cube: DetailedCube
    condition: SelectionCondition
    groupers: tuple[str, ...]
    aggregates: tuple[tuple[str, str], ...]

    def __post_init__(self):
        cube = self.cube
        if len(self.groupers) != len(cube.dims):
            raise DimensionMismatch(
                f"query has {len(self.groupers)} groupers for "
                f"{len(cube.dims)} dimensions")
        for dim, g in zip(cube.dims, self.groupers):
            if not dim.has_level(g):
                raise UnknownLevel(f"{dim.name} has no level {g!r}")
        if not self.aggregates:
            raise UnknownMeasure("query declares no aggregates")
        for fn, _ in self.aggregates:
            if fn not in AGG_FUNCTIONS:
                raise UnknownMeasure(f"unknown aggregate function {fn!r}")
        atoms = []
        for atom in self.condition.atoms:
            dim = cube.dim(atom.dimension)
            lv = dim.level(atom.level)
            top = dim.size(lv)
            for v in atom.values:
                if not 0 <= v < top:
                    raise UnknownMember(
                        f"atom on {dim.name}.{lv.name} holds bad member id {v}")
            atoms.append(AtomicFilter(dim.name, lv.name, atom.values))
        object.__setattr__(self, "condition", SelectionCondition(tuple(atoms)))
        object.__setattr__(self, "groupers", tuple(
            dim.level(g).name for dim, g in zip(cube.dims, self.groupers)))
        object.__setattr__(self, "aggregates", tuple(
            (fn, cube.measures[cube.measure_index(m)])
            for fn, m in self.aggregates))

    def grouper_for(self, dimension: str) -> str:
        return self.groupers[self.cube.dim_index(dimension)]

    def same_definition(self, other: "CubeQuery") -> bool:
        """Syntactic identity: same atoms (as a set), groupers, and
        aggregate multiset; atom and aggregate order are irrelevant."""
        if self.cube is not other.cube and (
                self.cube.dims != other.cube.dims
                or self.cube.measures != other.cube.measures):
            return False
        return (self.condition == other.condition
                and self.groupers == other.groupers
                and sorted(self.aggregates) == sorted(other.aggregates))

    def aggregate_labels(self) -> tuple[str, ...]:
        return tuple(f"{fn}({m})" for fn, m in self.aggregates)


@dataclass(frozen=True)
class Cell:
    """One coordinate tuple (member ids at the stated levels) with measures."""

    levels: tuple[str, ...]
    ids: tuple[int, ...]
    measures: Mapping[str, float] = field(default_factory=dict)


class CellSet:
    """A set of cells sharing one level per dimension, at `depths`.

    Measures are optional (signature-only sets carry none). A query result's
    coordinates are unique; `index` and `meets` allow repeats. A result
    never changes, so `index` keeps what it builds on the set: at most 16
    bytes per cell per depth tuple (8 per key word on a wide cube).
    """

    def __init__(self, dims: tuple[Dimension, ...], levels: tuple[str, ...],
                 coords: np.ndarray, measures: dict[str, np.ndarray] | None = None):
        self.dims = tuple(dims)
        self.levels = tuple(levels)
        self.coords = np.ascontiguousarray(coords, dtype=np.int32)
        if self.coords.size == 0:
            self.coords = self.coords.reshape(0, len(self.dims))
        self.measures = {k: np.asarray(v, dtype=np.float64)
                         for k, v in (measures or {}).items()}
        if (len(self.levels) != len(self.dims)
                or self.coords.shape[1:] != (len(self.dims),)
                or any(v.shape != (self.size,) for v in self.measures.values())):
            raise DimensionMismatch(
                "a cell set needs one level and coordinate column per "
                "dimension and one value per cell in each measure column")
        self.depths = tuple(d.level(lv).depth for d, lv in zip(dims, levels))
        self._index: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    def __len__(self) -> int:
        return self.size

    def packed_keys(self) -> np.ndarray:
        sizes = [d.size(lv) for d, lv in zip(self.dims, self.levels)]
        return pack_keys(self.coords, sizes)

    def index(self, depths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(sorted distinct packed keys of the cells' ancestors at the given
        per-dimension depths, each at or above the cells' own, and each
        cell's position among them), built once per depth tuple."""
        depths = tuple(depths)
        if depths not in self._index:
            rolled = [d.ancestor_map(own, depth)[col] for d, own, col, depth
                      in zip(self.dims, self.depths, self.coords.T, depths)]
            sizes = [d.size(d.levels[depth]) for d, depth in zip(self.dims, depths)]
            self._index[depths] = np.unique(
                pack_keys(np.column_stack(rolled), sizes), return_inverse=True)
        return self._index[depths]

    def meets(self, other: "CellSet", depths: Sequence[int]
              ) -> tuple[np.ndarray, np.ndarray]:
        """One bool per cell of this set and one per cell of `other`: True
        iff a cell on the other side has the same ancestor at `depths`. One
        binary search of this set's distinct keys into the other's."""
        (mine, at), (theirs, other_at) = self.index(depths), other.index(depths)
        pos = np.searchsorted(theirs, mine)
        hit = pos < len(theirs)
        hit[hit] = theirs[pos[hit]] == mine[hit]
        seen = np.bincount(pos[hit], minlength=len(theirs)) > 0
        return hit[at], seen[other_at]

    def iter_cells(self) -> Iterator[Cell]:
        names = list(self.measures)
        cols = [self.measures[n] for n in names]
        for i in range(self.size):
            ms = {n: float(c[i]) for n, c in zip(names, cols)}
            yield Cell(self.levels, tuple(int(x) for x in self.coords[i]), ms)

    def labels_row(self, i: int) -> tuple[str, ...]:
        return tuple(d.label_of(lv, self.coords[i, j])
                     for j, (d, lv) in enumerate(zip(self.dims, self.levels)))


@dataclass(frozen=True)
class FactoredSignature:
    """Per-dimension member-id sets denoting their Cartesian product."""

    dims: tuple[Dimension, ...]
    levels: tuple[str, ...]
    sets: tuple[np.ndarray, ...]  # sorted unique ids per dimension

    @property
    def size(self) -> int:
        n = 1
        for s in self.sets:
            n *= len(s)
        return n

    def rolled_up(self, levels: Sequence[str]) -> "FactoredSignature":
        """Each dimension's ids mapped up to `levels`, at or above its own."""
        lvs = [d.level(lv) for d, lv in zip(self.dims, levels)]
        sets = (np.unique(d.ancestor_map(d.level(own).depth, lv.depth)[ids])
                for d, own, lv, ids in zip(self.dims, self.levels, lvs, self.sets))
        return FactoredSignature(self.dims, tuple(lv.name for lv in lvs), tuple(sets))

    def coverage(self, others: Sequence["FactoredSignature"]
                 ) -> tuple[int, int, int]:
        """(|self ∩ union of others|, the sum of |self ∩ o|, how many others
        hold all of self), exact for any number of others.

        Partition refinement per dimension (the discrete case of Klee's
        measure problem): the ids of one dimension are grouped by the set of
        surviving boxes that hold them, and each group recurses on the next
        dimension with only those boxes. A cell of a last-dimension group
        lies in exactly the boxes alive there, so it adds 1 to the first
        count and their number to the second; a box holds all of self iff it
        is alive in every group. The cost is bounded by the number of
        distinct groups, not by 2^len(others).
        """
        for o in others:
            self._check_aligned(o)
        if self.size == 0:
            return 0, 0, len(others)
        # (dimension, alive boxes) -> (covered, weight, boxes holding the
        # whole sub-product from that dimension on), in Python ints
        memo: dict[tuple[int, tuple[int, ...]], tuple] = {}

        def count(j: int, alive: tuple[int, ...]):
            if not alive:
                return 0, 0, frozenset()
            if j == len(self.sets):
                return 1, len(alive), frozenset(alive)
            key = (j, alive)
            if key not in memo:
                # member[i, c]: box alive[c] holds the i-th id of dimension j
                ids = self.sets[j]
                parts = [others[b].sets[j] for b in alive]
                flat = np.concatenate(parts)
                box = np.repeat(np.arange(len(alive)), [len(p) for p in parts])
                pos = np.minimum(np.searchsorted(ids, flat), len(ids) - 1)
                hit = ids[pos] == flat
                member = np.zeros((len(ids), len(alive)), dtype=bool)
                member[pos[hit], box[hit]] = True
                # group ids by membership pattern, one packed row per id
                packed = np.packbits(member, axis=1)
                rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
                _, first, sizes = np.unique(rows, return_index=True,
                                            return_counts=True)
                boxes = np.array(alive)
                covered = weight = 0
                whole = frozenset(alive)
                for i, n in zip(first, sizes):
                    c, w, h = count(j + 1, tuple(boxes[member[i]].tolist()))
                    covered += int(n) * c
                    weight += int(n) * w
                    whole &= h
                memo[key] = covered, weight, whole
            return memo[key]

        covered, weight, whole = count(0, tuple(range(len(others))))
        return covered, weight, len(whole)

    def _check_aligned(self, other: "FactoredSignature"):
        if self.dims != other.dims or self.levels != other.levels:
            raise DimensionMismatch(
                "factored signatures are at different schemata")


# --- key packing ------------------------------------------------------------

def pack_keys(coords: np.ndarray, domain_sizes: list[int]) -> np.ndarray:
    """Mixed-radix packing of coordinate rows into keys in lexicographic row
    order: one int64 word per run of dimensions whose domain sizes multiply
    to below 2^62, so plain int64 keys for one word, else records of words,
    which numpy sorts and compares field by field."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, len(domain_sizes))
    word = np.zeros(len(coords), dtype=np.int64)
    words, total = [word], 1
    for j, s in enumerate(domain_sizes):
        s = max(int(s), 1)
        if total * s >= 2 ** 62:
            word = np.zeros(len(coords), dtype=np.int64)
            words.append(word)
            total = 1
        total *= s
        word *= s
        word += coords[:, j]
    if len(words) == 1:
        return word
    # each row's words viewed as one record with fields f0, f1, ...
    return np.column_stack(words).view(",".join(["i8"] * len(words)))[:, 0]


# --- fact loading -------------------------------------------------------------

class _MemberIds(dict):
    """Raw label -> member id at one level (the base level by default), one
    `Dimension.member` lookup per distinct raw label."""

    def __init__(self, dim: Dimension, level: Level | None = None):
        super().__init__()
        self.dim = dim
        self.level = level or dim.base_level

    def __missing__(self, label: str) -> int:
        mid = self[label] = self.dim.member(self.level, label.strip()).id
        return mid


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_facts(path: str | Path, dimensions: list[Dimension]) -> DetailedCube:
    """Load a fact CSV whose header is base-level dimension columns followed
    by measure columns. Dimension order follows the header.

    The file is read by `CsvTable`: labels are stripped and measures are
    parsed by Python's `float`. Each chunk of rows is converted column by
    column, so the loader holds one chunk of row strings plus the finished
    id and value columns, never the whole file as rows.

    Raises `EmptyFile` when the file has no header, `DimensionMismatch` when
    no header column names a base level or two name the same one (before
    any row is read), `UnknownMeasure` when no column is left for measures,
    `MalformedFactRow` when a row is shorter than the header or a measure
    is not a finite number and `UnknownMember` for a label its dimension's base
    level lacks, both naming the row (counted from the header as row 1,
    blank rows included), and `DuplicateCoordinates` when two rows share a
    coordinate tuple.
    """
    by_base = {d.base_level.name.lower(): d for d in dimensions}
    with CsvTable(path, "fact file") as table:
        header = table.header
        dim_cols = [i for i, h in enumerate(header) if h.lower() in by_base]
        measure_cols = [i for i, h in enumerate(header) if h.lower() not in by_base]
        if not dim_cols:
            raise DimensionMismatch(
                f"{table.path}: no dimension column matches a base level")
        names = [header[c].lower() for c in dim_cols]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise DimensionMismatch(f"{table.path}: column "
                                        f"{header[dim_cols[k]]} repeats a base level")
        if not measure_cols:
            raise UnknownMeasure(f"{table.path}: no measure columns")
        dims = [by_base[header[c].lower()] for c in dim_cols]
        ids = [_MemberIds(d) for d in dims]
        coord_parts = [np.empty((len(dims), 0), dtype=np.int32)]  # dims x rows
        value_parts = [np.empty((0, len(measure_cols)), dtype=np.float64)]
        for chunk in table.chunks():
            n = len(chunk)
            cols = list(zip(*chunk))
            try:
                coord_parts.append(np.stack(
                    [np.fromiter(map(m.__getitem__, cols[c]), np.int32, count=n)
                     for m, c in zip(ids, dim_cols)]))
                values = np.stack(
                    [np.fromiter(map(float, cols[c]), np.float64, count=n)
                     for c in measure_cols], axis=1)
            except UnknownMember as exc:
                # columns are read in turn: the first label its memo lacks failed
                row = next(r for m, c in zip(ids, dim_cols) for r in chunk
                           if r[c] not in m)
                raise table.error(row, exc, UnknownMember) from None
            except ValueError:
                row, c = next((r, c) for r in chunk for c in measure_cols
                              if not _is_number(r[c]))
                raise table.error(row, f"measure {header[c]} is not a number: "
                                  f"{row[c]!r}") from None
            if not np.isfinite(values).all():
                i, k = np.argwhere(~np.isfinite(values))[0]
                row, c = chunk[i], measure_cols[k]
                raise table.error(row, f"measure {header[c]} is not finite: "
                                  f"{row[c]!r}")
            value_parts.append(values)
    return DetailedCube(tuple(dims), tuple(header[c] for c in measure_cols),
                        np.concatenate(coord_parts, axis=1).T,
                        np.concatenate(value_parts))


# --- query operations -----------------------------------------------------------

def detailed_proxy(q: CubeQuery) -> CubeQuery:
    """Rewrite the query so its filter and groupers act at base levels.

    The proxy selects exactly the fact rows the original filter selects; the
    library itself evaluates the query at base levels (`detailed_area`)."""
    atoms = []
    for atom in q.condition.atoms:
        dim = q.cube.dim(atom.dimension)
        base = dim.base_level.name
        ids = dim.desc_ids(atom.level, atom.values, base)
        atoms.append(AtomicFilter(dim.name, base, frozenset(int(i) for i in ids)))
    return CubeQuery(
        cube=q.cube,
        condition=SelectionCondition(tuple(atoms)),
        groupers=q.cube.base_levels(),
        aggregates=q.aggregates,
    )


def condition_signature(condition: SelectionCondition,
                        cube: DetailedCube) -> FactoredSignature:
    """Base-level (detailed) factored signature of a selection condition:
    each dimension's atom rewritten to its base-level descendants, the full
    base domain when the dimension is unfiltered."""
    sets = []
    for dim in cube.dims:
        atom = condition.atom_for(dim.name)
        base = dim.base_level.name
        if atom is None:
            sets.append(np.arange(dim.size(base), dtype=np.int32))
        else:
            sets.append(dim.desc_ids(atom.level, atom.values, base))
    return FactoredSignature(cube.dims, cube.base_levels(), tuple(sets))


def detailed_signature(q: CubeQuery) -> FactoredSignature:
    """The base-level factored signature of the query's selection."""
    return condition_signature(q.condition, q.cube)


def query_signature_factored(q: CubeQuery) -> FactoredSignature:
    """The query signature as a factored product: the detailed signature
    rolled up to the query's groupers."""
    return detailed_signature(q).rolled_up(q.groupers)


# Fact rows per block of `selection_mask`. `take` widens its int32 ids to
# intp, so a block bounds that temporary at 256 KB instead of 8 bytes per
# fact row, and the mask's block stays in cache for every atom.
_MASK_BLOCK = 1 << 15


def selection_mask(q: CubeQuery) -> np.ndarray:
    """Boolean mask over fact rows selected by the query's condition.

    Each atom becomes one boolean table over its dimension's base ids
    (`Dimension.desc_mask`), and the mask keeps the rows whose base ids
    every table holds: one table lookup per row and atom, block by block.
    Tables are built per call.
    """
    cube = q.cube
    tables = []
    for atom in q.condition.atoms:
        j = cube.dim_index(atom.dimension)
        dim = cube.dims[j]
        tables.append((j, dim.desc_mask(atom.level, atom.values, dim.base_level)))
    mask = np.ones(len(cube), dtype=bool)
    for start in range(0, len(cube), _MASK_BLOCK):
        block = slice(start, start + _MASK_BLOCK)
        for j, table in tables:
            mask[block] &= table.take(cube.coords[block, j])
    return mask


def evaluate(q: CubeQuery, rows: np.ndarray | None = None) -> CellSet:
    """Run the query: filter facts, roll coordinates up to the grouper
    levels, and aggregate each same-coordinate group; given `rows`, the
    query's `detailed_area_keys`, the filter step is skipped.

    Groups with no qualifying fact rows are absent from the result. `avg`
    is derived from exact (sum, count) pairs; `count` values are exact
    integers widened to float64.
    """
    cube = q.cube
    sel = detailed_area_keys(q) if rows is None else rows
    depths = [cube.dims[j].level(g).depth for j, g in enumerate(q.groupers)]
    grouped = np.empty((len(sel), len(cube.dims)), dtype=np.int32)
    for j, dim in enumerate(cube.dims):
        grouped[:, j] = dim.ancestor_map(0, depths[j])[cube.coords[sel, j]]
    sizes = [d.size(lv) for d, lv in zip(cube.dims, q.groupers)]
    keys = pack_keys(grouped, sizes)
    uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    ngroups = len(uniq)
    coords = grouped[first] if ngroups else grouped.reshape(0, len(cube.dims))
    counts = np.bincount(inv, minlength=ngroups).astype(np.float64)
    measures: dict[str, np.ndarray] = {}
    for fn, mname in q.aggregates:
        col = cube.values[sel, cube.measure_index(mname)]
        label = f"{fn}({mname})"
        if fn == "count":
            measures[label] = counts.copy()
        elif fn == "sum":
            measures[label] = np.bincount(inv, weights=col, minlength=ngroups)
        elif fn == "avg":
            sums = np.bincount(inv, weights=col, minlength=ngroups)
            measures[label] = sums / counts if ngroups else sums
        elif fn == "min":
            acc = np.full(ngroups, np.inf)
            np.minimum.at(acc, inv, col)
            measures[label] = acc
        elif fn == "max":
            acc = np.full(ngroups, -np.inf)
            np.maximum.at(acc, inv, col)
            measures[label] = acc
    levels = tuple(cube.dims[j].level(g).name for j, g in enumerate(q.groupers))
    return CellSet(cube.dims, levels, coords, measures)


def detailed_area(q: CubeQuery) -> CellSet:
    """The base-level cells the query aggregates over: the query evaluated
    with base-level groupers, its condition selecting the rows."""
    return evaluate(replace(q, groupers=q.cube.base_levels()))


def detailed_area_keys(q: CubeQuery) -> np.ndarray:
    """Ascending ids of the fact rows the query selects: its detailed area,
    as fact coordinates are unique, in ids that compare only within one
    cube object."""
    return np.flatnonzero(selection_mask(q))


def cell_distance(dims: tuple[Dimension, ...], a: Cell, b: Cell) -> float:
    """Mean per-dimension member distance between two cells over the same
    dimensions (levels may differ)."""
    if len(a.ids) != len(dims) or len(b.ids) != len(dims):
        raise DimensionMismatch("cells do not span the cube's dimensions")
    total = 0.0
    for j, dim in enumerate(dims):
        ma = dim.member_by_id(a.levels[j], a.ids[j])
        mb = dim.member_by_id(b.levels[j], b.ids[j])
        total += dim.value_distance(ma, mb)
    return total / len(dims)
