"""Multidimensional model: dimensions, level hierarchies, member encoding.

Each dimension is a linear chain of levels, depth 0 being the finest and the
synthesized top level ALL (single member ``all``) the coarsest. Members are
interned to dense integer ids per (dimension, level); labels live in side
tables. Rollup navigation is array-based; descendants have one rule,
`Dimension.desc_mask`, which selections, signatures and detailed areas read.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    EmptyFile,
    InconsistentRollup,
    LevelAboveMember,
    LevelBelowMember,
    LevelNotInDimension,
    MalformedFactRow,
    UnknownMember,
)

ALL_LEVEL = "ALL"
ALL_MEMBER = "all"


@dataclass(frozen=True)
class Level:
    name: str
    depth: int


@dataclass(frozen=True)
class Member:
    dimension: str
    level: str
    id: int
    label: str


class Dimension:
    """A named linear hierarchy with integer-encoded members.

    Construction is single-threaded; instances are immutable afterwards and
    safe to share across concurrent readers.
    """

    def __init__(self, name: str, level_names: list[str],
                 labels: list[list[str]], parents: list[np.ndarray]):
        self.name = name
        if ALL_LEVEL.lower() in (n.lower() for n in level_names):
            raise InconsistentRollup(
                f"dimension {name}: level {ALL_LEVEL} is implicit and may not be declared")
        names = list(level_names) + [ALL_LEVEL]
        self.levels: tuple[Level, ...] = tuple(
            Level(n, d) for d, n in enumerate(names))
        self._by_name = {lv.name.lower(): lv for lv in self.levels}
        if len(self._by_name) != len(self.levels):
            raise InconsistentRollup(f"dimension {name}: duplicate level names")
        # labels[d][i] is the label of member id i at depth d; ALL holds "all".
        self._labels: list[list[str]] = [list(ls) for ls in labels] + [[ALL_MEMBER]]
        self._ids: list[dict[str, int]] = [
            {lab: i for i, lab in enumerate(ls)} for ls in self._labels]
        # parents[d] maps ids at depth d to ids at depth d+1; the last link
        # (to ALL) is implicit and synthesized here.
        top = np.zeros(len(self._labels[-2]), dtype=np.int32)
        self._parent: list[np.ndarray] = [
            np.asarray(p, dtype=np.int32) for p in parents] + [top]
        self._validate()
        self._anc_cache: dict[tuple[int, int], np.ndarray] = {}

    def _validate(self):
        ndepths = len(self.levels)
        if len(self._labels) != ndepths or len(self._parent) != ndepths - 1:
            raise InconsistentRollup(
                f"dimension {self.name}: level/label/parent arity mismatch")
        for d, ids in enumerate(self._ids):
            if len(ids) != len(self._labels[d]):
                raise InconsistentRollup(
                    f"dimension {self.name}: duplicate member labels at "
                    f"level {self.levels[d].name}")
        for d, par in enumerate(self._parent):
            if len(par) != len(self._labels[d]):
                raise InconsistentRollup(
                    f"dimension {self.name}: parent map at depth {d} is not total")
            hi = len(self._labels[d + 1])
            if len(par) and (par.min() < 0 or par.max() >= hi):
                raise InconsistentRollup(
                    f"dimension {self.name}: parent id out of range at depth {d}")

    # --- schema lookups ----------------------------------------------------

    @property
    def height(self) -> int:
        """Number of hierarchy edges from the base level up to ALL."""
        return len(self.levels) - 1

    @property
    def base_level(self) -> Level:
        return self.levels[0]

    @property
    def all_member(self) -> Member:
        return Member(self.name, ALL_LEVEL, 0, ALL_MEMBER)

    def level(self, name: str | Level) -> Level:
        if isinstance(name, Level):
            name = name.name
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise LevelNotInDimension(
                f"dimension {self.name} has no level {name!r}") from None

    def has_level(self, name: str) -> bool:
        return name.lower() in self._by_name

    def size(self, level: str | Level) -> int:
        return len(self._labels[self.level(level).depth])

    def member(self, level: str | Level, label: str) -> Member:
        lv = self.level(level)
        try:
            mid = self._ids[lv.depth][label]
        except KeyError:
            raise UnknownMember(
                f"{self.name}.{lv.name} has no member {label!r}") from None
        return Member(self.name, lv.name, mid, label)

    def member_by_id(self, level: str | Level, mid: int) -> Member:
        lv = self.level(level)
        labels = self._labels[lv.depth]
        if not 0 <= mid < len(labels):
            raise UnknownMember(f"{self.name}.{lv.name} has no member id {mid}")
        return Member(self.name, lv.name, mid, labels[mid])

    def label_of(self, level: str | Level, mid: int) -> str:
        return self._labels[self.level(level).depth][int(mid)]

    def members(self, level: str | Level) -> list[Member]:
        lv = self.level(level)
        return [Member(self.name, lv.name, i, lab)
                for i, lab in enumerate(self._labels[lv.depth])]

    # --- rollup navigation ---------------------------------------------------

    def ancestor_map(self, from_depth: int, to_depth: int) -> np.ndarray:
        """Array mapping every id at from_depth to its ancestor id at to_depth."""
        if to_depth < from_depth:
            raise LevelBelowMember(
                f"cannot map depth {from_depth} to finer depth {to_depth}")
        key = (from_depth, to_depth)
        cached = self._anc_cache.get(key)
        if cached is not None:
            return cached
        amap = np.arange(len(self._labels[from_depth]), dtype=np.int32)
        for d in range(from_depth, to_depth):
            amap = self._parent[d][amap]
        self._anc_cache[key] = amap
        return amap

    def anc(self, member: Member, to_level: str | Level) -> Member:
        lv_from = self.level(member.level)
        lv_to = self.level(to_level)
        if lv_to.depth < lv_from.depth:
            raise LevelBelowMember(
                f"{lv_to.name} is below {lv_from.name} in {self.name}")
        aid = int(self.ancestor_map(lv_from.depth, lv_to.depth)[member.id])
        return self.member_by_id(lv_to, aid)

    def desc_mask(self, level: str | Level, ids, to_level: str | Level) -> np.ndarray:
        """One bool per id at to_level, True iff its ancestor at `level` is in
        `ids`: the member table at `level`, read through the ancestor map."""
        lv_from, lv_to = self.level(level), self.level(to_level)
        if lv_to.depth > lv_from.depth:
            raise LevelAboveMember(
                f"{lv_to.name} is above {lv_from.name} in {self.name}")
        member = np.zeros(len(self._labels[lv_from.depth]), dtype=bool)
        ids = list(ids)  # atoms hold a few ids: Python's min/max beat numpy's
        if ids and (min(ids) < 0 or max(ids) >= len(member)):
            bad = sorted({int(i) for i in ids if not 0 <= i < len(member)})
            raise UnknownMember(f"{self.name}.{lv_from.name} has no member ids {bad}")
        member[ids] = True
        return member.take(self.ancestor_map(lv_to.depth, lv_from.depth))

    def desc_ids(self, level: str | Level, ids, to_level: str | Level) -> np.ndarray:
        """Ascending ids at to_level whose ancestor at `level` is in `ids`."""
        return np.flatnonzero(self.desc_mask(level, ids, to_level)).astype(np.int32)

    def desc(self, member: Member, to_level: str | Level) -> list[Member]:
        lv_to = self.level(to_level)
        out = self.desc_ids(member.level, [member.id], lv_to)
        labels = self._labels[lv_to.depth]
        return [Member(self.name, lv_to.name, int(i), labels[int(i)]) for i in out]

    def lca(self, a: Member, b: Member) -> Member:
        """Lowest member that is an ancestor of both (may be one of them)."""
        da, db = self.level(a.level).depth, self.level(b.level).depth
        ia, ib = a.id, b.id
        d = max(da, db)
        ia = int(self.ancestor_map(da, d)[ia])
        ib = int(self.ancestor_map(db, d)[ib])
        while ia != ib:
            ia = int(self._parent[d][ia])
            ib = int(self._parent[d][ib])
            d += 1
        return self.member_by_id(self.levels[d], ia)

    def value_distance(self, a: Member, b: Member) -> float:
        """Hop-count distance through the least common ancestor, normalized
        by twice the hierarchy height. 0 iff the members coincide; 1 only
        for two base members meeting at ALL."""
        lca = self.lca(a, b)
        dl = self.level(lca.level).depth
        hops = (dl - self.level(a.level).depth) + (dl - self.level(b.level).depth)
        return hops / (2.0 * self.height)

    def __repr__(self):
        chain = " < ".join(lv.name for lv in self.levels)
        return f"Dimension({self.name}: {chain})"


def dimension_from_rows(name: str, level_names: list[str],
                        rows: list[tuple[str, ...]]) -> Dimension:
    """Build a dimension from full rollup paths, one row per base member.

    `level_names` runs finest-to-coarsest and must not include ALL. Rows with
    the same member mapped to two different parents are rejected.
    """
    if not rows:
        raise EmptyFile(f"dimension {name}: no rollup rows")
    width = len(level_names)
    if width < 1:
        raise EmptyFile(f"dimension {name}: no levels declared")
    labels: list[list[str]] = [[] for _ in range(width)]
    ids: list[dict[str, int]] = [{} for _ in range(width)]
    parent_of: list[dict[int, int]] = [{} for _ in range(max(width - 1, 0))]
    for row in rows:
        if len(row) != width:
            raise InconsistentRollup(
                f"dimension {name}: row {row!r} has {len(row)} fields, "
                f"expected {width}")
        path = []
        for d, label in enumerate(row):
            label = label.strip()
            if not label:
                raise InconsistentRollup(
                    f"dimension {name}: empty member label in row {row!r}")
            mid = ids[d].get(label)
            if mid is None:
                mid = len(labels[d])
                ids[d][label] = mid
                labels[d].append(label)
            path.append(mid)
        for d in range(width - 1):
            known = parent_of[d].get(path[d])
            if known is None:
                parent_of[d][path[d]] = path[d + 1]
            elif known != path[d + 1]:
                raise InconsistentRollup(
                    f"dimension {name}: member {row[d]!r} at level "
                    f"{level_names[d]} maps to both "
                    f"{labels[d + 1][known]!r} and {row[d + 1]!r}")
    # every row is a full path, so every member below the top has a parent
    parents = [np.array([parent_of[d][mid] for mid in range(len(labels[d]))],
                        dtype=np.int32) for d in range(width - 1)]
    return Dimension(name, list(level_names), labels, parents)


# Rows per chunk. The loader holds one chunk of row strings at a time. On a
# 500K-row file (2-core host), 4,096-row chunks loaded in 0.45 s with a
# 72 MB peak and 65,536-row chunks in 0.55 s with a 110 MB peak.
_CHUNK_ROWS = 4096


class CsvTable(contextlib.AbstractContextManager):
    """The one reading rule for CSV input, as a context manager: UTF-8 with
    or without a byte-order mark, a stripped header (else `EmptyFile` naming
    `what`), then `chunks` of rows, numbered from the header as row 1 with
    blank rows; short rows are refused and fields past the header ignored."""

    def __init__(self, path: str | Path, what: str):
        self.path = Path(path)
        self._fh = self.path.open(newline="", encoding="utf-8-sig")
        self._reader = csv.reader(self._fh)
        header = next(self._reader, None)
        if header is None:
            self._fh.close()
            raise EmptyFile(f"{self.path}: empty {what}")
        self.header = [h.strip() for h in header]
        # the rows `error` can number: the header, then the last chunk read
        self._first, self._raw = 1, [self.header]

    def __exit__(self, *exc):
        self._fh.close()

    def chunks(self) -> Iterator[list[list[str]]]:
        """The rows in chunks of `_CHUNK_ROWS` as read, less blank rows."""
        width = len(self.header)
        while raw := list(itertools.islice(self._reader, _CHUNK_ROWS)):
            self._first, self._raw = self._first + len(self._raw), raw
            if chunk := [r for r in raw if any(map(str.strip, r))]:
                if min(map(len, chunk)) < width:
                    row = next(r for r in chunk if len(r) < width)
                    raise self.error(row, f"{len(row)} fields, header has {width}")
                yield chunk

    def error(self, row, what, kind: type = MalformedFactRow) -> Exception:
        """A `kind` error naming the file and the number of `row` in it."""
        k = next(k for k, r in enumerate(self._raw) if r is row)
        return kind(f"{self.path}: row {self._first + k}: {what}")


def load_dimension(path: str | Path, name: str | None = None) -> Dimension:
    """Load a dimension from a hierarchy CSV, read by `CsvTable`.

    The header names the levels finest-to-coarsest (no ALL column); each data
    row is one base member's full rollup path.
    """
    with CsvTable(path, "hierarchy file") as table:
        width = len(table.header)
        rows = [tuple(r[:width]) for chunk in table.chunks() for r in chunk]
    return dimension_from_rows(table.path.stem if name is None else name,
                               table.header, rows)
