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
import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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
                        rows: Iterable[tuple[str, ...]]) -> Dimension:
    """Build a dimension from full rollup paths, one row per base member.

    `level_names` runs finest-to-coarsest and must not include ALL. Rows with
    the same member mapped to two different parents are rejected.
    """
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
    if not labels[0]:
        raise EmptyFile(f"dimension {name}: no rollup rows")
    # every row is a full path, so every member below the top has a parent
    parents = [np.array([parent_of[d][mid] for mid in range(len(labels[d]))],
                        dtype=np.int32) for d in range(width - 1)]
    return Dimension(name, list(level_names), labels, parents)


# Characters per block of text, about 1,300 rows of the benchmark's facts.
# On its 500K-row file (2-core host, median of 7 alternating runs)
# load_facts took 0.29 s with a 67.0 MB peak, against 0.31 s and 66.7 MB
# for 2**14, 0.31 s and 67.8 MB for 2**16, and 0.62 s and 68.3 MB reading
# rows with csv.reader. `_split` leaves a block longer than the csv field
# limit (131,072 characters by default) to csv.reader, so keep blocks shorter.
_BLOCK_CHARS = 1 << 15


def _texts(fh) -> Iterator[str]:
    """The rest of `fh` in blocks of `_BLOCK_CHARS` characters, each with
    the rest of its last line."""
    while text := fh.read(_BLOCK_CHARS):
        yield text + fh.readline()


class CsvTable(contextlib.AbstractContextManager):
    """The one reading rule for CSV input that README's "Input files" sets
    out, as a context manager: the header, stripped and less trailing empty
    fields (none: `EmptyFile` naming `what`), then the rows' `columns` per
    block of text (`_texts`). A block with no quote whose rows are regular
    (`_split`) is split at its commas and line ends into the strings
    `csv.reader` gives; other blocks go through `csv.reader`, and from the
    first quote on so does the rest of the file, so quoted fields may span
    blocks."""

    def __init__(self, path: str | Path, what: str):
        self.path = Path(path)
        self._fh = self.path.open(newline="", encoding="utf-8-sig")
        # the next row's number, the last block's row numbers and the index
        # in them of the row `rows` gave last (None for the header, row 1)
        self._next, self._numbers, self._at = 2, [], None
        try:
            header = next(csv.reader(self._fh), None)
        except csv.Error as exc:
            self._fh.close()
            raise self.error(exc) from None
        if header is None:
            self._fh.close()
            raise EmptyFile(f"{self.path}: empty {what}")
        self.header = [h.strip() for h in header]
        while self.header and not self.header[-1]:
            self.header.pop()

    def __exit__(self, *exc):
        self._fh.close()

    def columns(self) -> Iterator[list[list[str]]]:
        """Per block of text, the header's columns of its rows less blank
        ones; a block of blank rows, or a header without fields, gives none."""
        width = len(self.header)
        texts = _texts(self._fh) if width else ()
        for text in texts:
            quoted = '"' in text
            if not quoted and (cols := _split(text, width)):
                self._numbers = range(self._next, self._next + len(cols[0]))
                self._next += len(cols[0])
                yield cols
                continue
            for raw in self._parsed([text], texts if quoted else ()):
                keep = [k for k, r in enumerate(raw) if any(map(str.strip, r))]
                self._numbers = [self._next + k for k in keep]
                self._next += len(raw)
                rows = [raw[k] for k in keep]
                if short := [k for k, r in enumerate(rows) if len(r) < width]:
                    raise self.error(f"{len(rows[short[0]])} fields, header "
                                     f"has {width}", i=short[0])
                if rows:
                    yield [list(c) for c in zip(*rows)][:width]

    def rows(self) -> Iterator[tuple[str, ...]]:
        """The rows less blank ones as tuples of the header's width; until
        they run out, `error` names by default the row given last."""
        for cols in self.columns():
            for self._at, row in enumerate(zip(*cols)):
                yield row
        self._at = None

    def error(self, what, kind: type = MalformedFactRow,
              i: int | None = None) -> Exception:
        """A `kind` error naming the file and row `i` of the block `columns`
        gave last, by default the row `rows` gave last (the header, row 1,
        before any)."""
        i = self._at if i is None else i
        number = 1 if i is None else self._numbers[i]
        return kind(f"{self.path}: row {number}: {what}")

    def _parsed(self, *texts) -> Iterator[list[list[str]]]:
        """The rows `csv.reader` reads from the `texts`, a list per text of
        the rows ending in it; then any `csv.Error`, naming its row."""
        cut = False  # whether the last line given ends its text

        def lines():
            nonlocal cut
            for text in itertools.chain(*texts):
                *head, last = io.StringIO(text, newline="")
                cut = False
                yield from head
                cut = True
                yield last

        raw = []
        try:
            for row in csv.reader(lines()):
                raw.append(row)
                if cut:
                    yield raw
                    raw = []
            return
        except csv.Error as exc:
            error = MalformedFactRow(
                f"{self.path}: row {self._next + len(raw)}: {exc}")
        yield raw  # the rows before the refused one come first
        raise error


def _split(text: str, width: int) -> list[list[str]] | None:
    """The columns of a quote-free block of text ending in a line end, if
    no row is irregular; CRLF ends a line as LF does, in `csv.reader` too.
    A block longer than the csv field limit may hold a longer field, so it
    counts as irregular."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if (not text.endswith("\n") or "\r" in text
            or len(text) > csv.field_size_limit()):
        return None
    # Each LF now starts a field: the next row's first, or a last one of
    # its own. The rows are regular iff there are width fields per row and
    # that last one, and the fields at every width-th place hold all n LFs.
    flat = text.replace("\n", ",\n").split(",")
    n, heads = text.count("\n"), "".join(flat[width::width])
    if len(flat) != n * width + 1 or heads.count("\n") != n:
        return None
    first = [flat[0], *heads.split("\n")[1:-1]]  # less the LFs
    if "" in first or any(map(str.isspace, first)):
        return None
    return [first] + [flat[c::width] for c in range(1, width)]


def load_dimension(path: str | Path, name: str | None = None) -> Dimension:
    """Load a dimension from a hierarchy CSV, read by `CsvTable`.

    The header names the levels finest-to-coarsest (no ALL column); each data
    row is one base member's full rollup path. Errors name the file and row.
    """
    with CsvTable(path, "hierarchy file") as table:
        try:
            return dimension_from_rows(
                table.path.stem if name is None else name, table.header,
                table.rows())
        except InconsistentRollup as exc:
            raise table.error(exc, InconsistentRollup) from None
