"""Fact cube storage, query evaluation, signatures and detailed areas.

The detailed cube keeps its coordinates as dense base-level integer ids in
one column-major int32 rows x dimensions array, so each dimension's ids are
contiguous, plus float64 measure columns.
Query evaluation is a vectorized filter -> rollup -> group -> aggregate
pipeline; the filter reads one boolean member table per atom. A query's
detailed area is the ids of the fact rows it selects.
Signatures stay factored per dimension and are never enumerated:
`FactoredSignature.covered_size` counts a union's overlap and
`overlap_sizes` each box's.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateCoordinates,
    EmptyFile,
    MalformedFactRow,
    SignatureTooLarge,
    UnknownLevel,
    UnknownMeasure,
    UnknownMember,
)
from .mdm import Dimension, Level, Member

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
    (function, base measure) pairs.
    """

    cube: DetailedCube
    condition: SelectionCondition
    groupers: tuple[str, ...]
    aggregates: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(self.groupers) != len(self.cube.dims):
            raise DimensionMismatch(
                f"query has {len(self.groupers)} groupers for "
                f"{len(self.cube.dims)} dimensions")
        for dim, g in zip(self.cube.dims, self.groupers):
            if not dim.has_level(g):
                raise UnknownLevel(f"{dim.name} has no level {g!r}")
        if not self.aggregates:
            raise UnknownMeasure("query declares no aggregates")
        for fn, m in self.aggregates:
            if fn not in AGG_FUNCTIONS:
                raise UnknownMeasure(f"unknown aggregate function {fn!r}")
            self.cube.measure_index(m)
        for atom in self.condition.atoms:
            dim = self.cube.dim(atom.dimension)
            lv = dim.level(atom.level)
            top = dim.size(lv)
            for v in atom.values:
                if not 0 <= v < top:
                    raise UnknownMember(
                        f"atom on {dim.name}.{lv.name} holds bad member id {v}")

    def grouper_for(self, dimension: str) -> str:
        return self.groupers[self.cube.dim_index(dimension)]

    def same_definition(self, other: "CubeQuery") -> bool:
        """Syntactic identity: same atoms (as a set), groupers, and
        aggregate multiset; atom and aggregate order are irrelevant."""
        if self.cube is not other.cube and (
                self.cube.dims != other.cube.dims
                or self.cube.measures != other.cube.measures):
            return False
        if tuple(g.lower() for g in self.groupers) != tuple(
                g.lower() for g in other.groupers):
            return False
        mine = {(a.dimension.lower(), a.level.lower(), a.values)
                for a in self.condition.atoms}
        theirs = {(a.dimension.lower(), a.level.lower(), a.values)
                  for a in other.condition.atoms}
        if mine != theirs:
            return False
        return sorted(self.aggregates) == sorted(other.aggregates)

    def aggregate_labels(self) -> tuple[str, ...]:
        return tuple(f"{fn}({m})" for fn, m in self.aggregates)


@dataclass(frozen=True)
class Cell:
    """One coordinate tuple (member ids at the stated levels) with measures."""

    levels: tuple[str, ...]
    ids: tuple[int, ...]
    measures: Mapping[str, float] = field(default_factory=dict)


class CellSet:
    """A set of cells sharing one level per dimension.

    Coordinates are unique; measures are optional (signature-only sets carry
    none).
    """

    def __init__(self, dims: tuple[Dimension, ...], levels: tuple[str, ...],
                 coords: np.ndarray, measures: dict[str, np.ndarray] | None = None):
        self.dims = tuple(dims)
        self.levels = tuple(levels)
        self.coords = np.ascontiguousarray(coords, dtype=np.int32).reshape(
            -1, len(self.dims))
        self.measures = {k: np.asarray(v, dtype=np.float64)
                         for k, v in (measures or {}).items()}

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    def __len__(self) -> int:
        return self.size

    def domain_sizes(self) -> list[int]:
        return [d.size(lv) for d, lv in zip(self.dims, self.levels)]

    def packed_keys(self) -> np.ndarray:
        return pack_keys(self.coords, self.domain_sizes())

    def rollup_keys(self, depths: Sequence[int]) -> np.ndarray:
        """Packed keys of each cell's ancestors at the given per-dimension
        depths, each at or above the cells' own level."""
        rolled = [d.ancestor_map(d.level(lv).depth, depth)[col] for d, lv, col, depth
                  in zip(self.dims, self.levels, self.coords.T, depths)]
        sizes = [d.size(d.levels[depth]) for d, depth in zip(self.dims, depths)]
        return pack_keys(np.column_stack(rolled), sizes)

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

    def overlap_sizes(self, others: Sequence["FactoredSignature"]) -> list[int]:
        """|self ∩ o| for every o in others.

        Per dimension, the others' id sets are concatenated and looked up in
        one boolean table of self's ids, and the hits are counted by box
        with one `bincount`; a box's overlap is the product of its counts,
        in Python ints so it stays exact.
        """
        for o in others:
            self._check_aligned(o)
        sizes = [1 if self.size else 0] * len(others)
        for dim, level, ids, parts in zip(self.dims, self.levels, self.sets,
                                          zip(*(o.sets for o in others))):
            if not any(sizes):
                break
            member = np.zeros(dim.size(level), dtype=bool)
            member[ids] = True
            box = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
            counts = np.bincount(box[member[np.concatenate(parts)]],
                                 minlength=len(parts))
            sizes = [n * c for n, c in zip(sizes, counts.tolist())]
        return sizes

    def covered_size(self, others: Sequence["FactoredSignature"]) -> int:
        """|self ∩ (union of others)|, exact for any number of others.

        Partition refinement per dimension (the discrete case of Klee's
        measure problem): the ids of one dimension are grouped by the set of
        surviving boxes that hold them, and each group recurses on the next
        dimension with only those boxes. The cost is bounded by the number
        of distinct groups, not by 2^len(others).
        """
        for o in others:
            self._check_aligned(o)
        if self.size == 0:
            return 0
        memo: dict[tuple[int, tuple[int, ...]], int] = {}

        def count(j: int, alive: tuple[int, ...]) -> int:
            if not alive:
                return 0
            if j == len(self.sets):
                return 1
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
                memo[key] = sum(
                    int(n) * count(j + 1, tuple(boxes[member[i]].tolist()))
                    for i, n in zip(first, sizes))
            return memo[key]

        return count(0, tuple(range(len(others))))

    def _check_aligned(self, other: "FactoredSignature"):
        if self.dims != other.dims or self.levels != other.levels:
            raise DimensionMismatch(
                "factored signatures are at different schemata")


# --- key packing ------------------------------------------------------------

def pack_keys(coords: np.ndarray, domain_sizes: list[int]) -> np.ndarray:
    """Mixed-radix packing of coordinate rows into int64 scalars."""
    total = 1
    for s in domain_sizes:
        total *= max(int(s), 1)
    if total >= 2 ** 62:
        raise SignatureTooLarge(
            "coordinate space too large for packed int64 keys")
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, len(domain_sizes))
    keys = np.zeros(coords.shape[0], dtype=np.int64)
    for j, s in enumerate(domain_sizes):
        keys *= max(int(s), 1)
        keys += coords[:, j]
    return keys


# --- fact loading -------------------------------------------------------------

# Rows per chunk. The loader holds one chunk of row strings at a time. On a
# 500K-row file (2-core host), 4,096-row chunks loaded in 0.45 s with a
# 72 MB peak and 65,536-row chunks in 0.55 s with a 110 MB peak.
_CHUNK_ROWS = 4096


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


def _malformed(path: Path, first: int, raw: list[list[str]], row: list[str],
               what: str, kind: type = MalformedFactRow) -> Exception:
    """A `kind` error naming `row` by its number in the file; `raw` is its
    chunk as read, starting at row number `first`."""
    k = next(k for k, r in enumerate(raw) if r is row)
    return kind(f"{path}: row {first + k}: {what}")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_facts(path: str | Path, dimensions: list[Dimension]) -> DetailedCube:
    """Load a fact CSV whose header is base-level dimension columns followed
    by measure columns. Dimension order follows the header.

    Blank rows are skipped, labels are stripped and measures are parsed by
    Python's `float`. The file is read in chunks of rows and each chunk is
    converted column by column, so the loader holds one chunk of row
    strings plus the finished id and value columns, never the whole file
    as rows.

    Raises `EmptyFile` when the file has no header, `DimensionMismatch` when
    no header column names a base level or two name the same one (before
    any row is read), `UnknownMeasure` when no column is left for measures,
    `MalformedFactRow` when a row is shorter than the header or a measure
    is not a finite number and `UnknownMember` for a label its dimension's base
    level lacks, both naming the row (counted from the header as row 1,
    blank rows included), and `DuplicateCoordinates` when two rows share a
    coordinate tuple.
    """
    path = Path(path)
    by_base = {d.base_level.name.lower(): d for d in dimensions}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyFile(f"{path}: empty fact file") from None
        dim_cols = [i for i, h in enumerate(header) if h.lower() in by_base]
        measure_cols = [i for i, h in enumerate(header) if h.lower() not in by_base]
        if not dim_cols:
            raise DimensionMismatch(
                f"{path}: no dimension column matches a base level")
        names = [header[c].lower() for c in dim_cols]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise DimensionMismatch(
                    f"{path}: column {header[dim_cols[k]]} repeats a base level")
        if not measure_cols:
            raise UnknownMeasure(f"{path}: no measure columns")
        dims = [by_base[header[c].lower()] for c in dim_cols]
        ids = [_MemberIds(d) for d in dims]
        coord_parts = [np.empty((len(dims), 0), dtype=np.int32)]  # dims x rows
        value_parts = [np.empty((0, len(measure_cols)), dtype=np.float64)]
        row_no = 1  # rows read so far, header included
        while raw := list(itertools.islice(reader, _CHUNK_ROWS)):
            first, row_no = row_no + 1, row_no + len(raw)
            chunk = [r for r in raw if r and any(map(str.strip, r))]
            if not chunk:
                continue
            if min(map(len, chunk)) < len(header):
                row = next(r for r in chunk if len(r) < len(header))
                raise _malformed(path, first, raw, row, f"{len(row)} fields, "
                                 f"header has {len(header)}")
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
                raise _malformed(path, first, raw, row, str(exc),
                                 UnknownMember) from None
            except ValueError:
                row, c = next((r, c) for r in chunk for c in measure_cols
                              if not _is_number(r[c]))
                raise _malformed(path, first, raw, row, f"measure {header[c]} "
                                 f"is not a number: {row[c]!r}") from None
            if not np.isfinite(values).all():
                i, k = np.argwhere(~np.isfinite(values))[0]
                row, c = chunk[i], measure_cols[k]
                raise _malformed(path, first, raw, row, f"measure {header[c]} "
                                 f"is not finite: {row[c]!r}")
            value_parts.append(values)
    return DetailedCube(tuple(dims), tuple(header[c] for c in measure_cols),
                        np.concatenate(coord_parts, axis=1).T,
                        np.concatenate(value_parts))


# --- query operations -----------------------------------------------------------

def detailed_proxy(q: CubeQuery) -> CubeQuery:
    """Rewrite the query so its filter and groupers act at base levels.

    The proxy selects exactly the fact rows the original filter selects.
    """
    atoms = []
    for atom in q.condition.atoms:
        dim = q.cube.dim(atom.dimension)
        base = dim.base_level.name
        ids = dim.desc_ids(atom.level, sorted(atom.values), base)
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
            sets.append(dim.desc_ids(atom.level, sorted(atom.values), base))
    return FactoredSignature(cube.dims, cube.base_levels(), tuple(sets))


def detailed_signature(q: CubeQuery) -> FactoredSignature:
    """The base-level factored signature of the query's selection."""
    return condition_signature(q.condition, q.cube)


def query_signature_factored(q: CubeQuery) -> FactoredSignature:
    """The query signature as a factored product: the base-level signature
    of the filter with each dimension mapped up to the query's grouper."""
    detailed = condition_signature(q.condition, q.cube)
    levels = []
    sets = []
    for dim, grouper, base_ids in zip(q.cube.dims, q.groupers, detailed.sets):
        lv = dim.level(grouper)
        levels.append(lv.name)
        amap = dim.ancestor_map(0, lv.depth)
        sets.append(np.unique(amap[base_ids]).astype(np.int32))
    return FactoredSignature(q.cube.dims, tuple(levels), tuple(sets))


# Fact rows per block of `selection_mask`. `take` widens its int32 ids to
# intp, so a block bounds that temporary at 256 KB instead of 8 bytes per
# fact row, and the mask's block stays in cache for every atom.
_MASK_BLOCK = 1 << 15


def selection_mask(q: CubeQuery) -> np.ndarray:
    """Boolean mask over fact rows selected by the query's condition.

    Each atom becomes one boolean member table over its dimension's base
    ids (the atom's members at its level, read through the base-to-level
    ancestor map), and the mask keeps the rows whose base ids every table
    holds: one table lookup per row and atom, block by block. Tables are
    built per call.
    """
    cube = q.cube
    tables = []
    for atom in q.condition.atoms:
        j = cube.dim_index(atom.dimension)
        dim = cube.dims[j]
        lv = dim.level(atom.level)
        member = np.zeros(dim.size(lv), dtype=bool)
        member[list(atom.values)] = True
        tables.append((j, member.take(dim.ancestor_map(0, lv.depth))))
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
    """The base-level cells the query aggregates over: the evaluated
    detailed proxy."""
    return evaluate(detailed_proxy(q))


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
