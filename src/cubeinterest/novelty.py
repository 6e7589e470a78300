"""Novelty metrics: history-based and belief-based coverage of a query.

Every partial metric counts how much of the assessed universe (query
signature, detailed signature, result cells, or detailed-area cells) is
covered and how much is novel, and returns the novel fraction with the
partition, which also gives the occurrence-weighted variant
(`weighted_novel_fraction`). Partitions carry exact counts only. Factored
signatures are never enumerated: the covered count against a union of
factored signatures comes from `FactoredSignature.covered_size`, and the
covered weight and `fsdn`'s containment test from the per-box counts of
`FactoredSignature.overlap_sizes`. Result cells are compared as packed
keys, detailed areas as fact row ids. Belief coverage rolls each anchor up
to the cells' levels and checks each cell only against the anchors in it.

The detailed and extensional metrics take the query and each history item
as a `CubeQuery` or a `context.HistoryEntry`, and read the rows, result
cells and detailed signature from the entry. A bare query is wrapped in a
fresh entry for the call, so a plain call selects each query's rows once.
`harness.interestingness_vector` passes entries that memoise these values,
so one assessment selects the fact rows of the query alone and probes each
history entry's rows once (`HistoryEntry.hits`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .context import Anchor, BeliefStore, QueryOrEntry, as_entry, known_cells
from .engine import (
    Cell,
    CellSet,
    CubeQuery,
    FactoredSignature,
    detailed_area,
    pack_keys,
    query_signature_factored,
)
from .errors import LevelMismatch
from .mdm import Dimension


@dataclass(frozen=True)
class CoveragePartition:
    """Exact covered/novel counts of an assessed universe of cells or
    coordinates. `covered_weight` sums, over the covered part, how many
    members of the covering collection hold each element."""

    universe_size: int
    covered_count: int
    novel_count: int
    covered_weight: float = 0.0
    skipped_statements: int = 0

    def __post_init__(self):
        if self.covered_count + self.novel_count != self.universe_size:
            raise ValueError("partition does not cover the universe")

    @property
    def novel_fraction(self) -> float:
        """Novel share of the universe; 1.0 when nothing is covered
        (including the degenerate empty universe)."""
        if self.covered_count == 0:
            return 1.0
        return self.novel_count / self.universe_size

    @property
    def covered_fraction(self) -> float:
        return 1.0 - self.novel_fraction

    @property
    def weighted_novel_fraction(self) -> float:
        """Novel weight over total weight: novel cells weigh 1, covered
        cells weigh their occurrence count."""
        if self.covered_count == 0:
            return 1.0
        return self.novel_count / (self.novel_count + self.covered_weight)


def factored_partition(target: FactoredSignature,
                       others: Sequence[FactoredSignature]) -> CoveragePartition:
    """Coverage of a factored signature by the union of others; each other
    signature adds its overlap with the target to the covered weight."""
    cov = target.covered_size(others)
    weight = sum(target.overlap_sizes(others))
    return CoveragePartition(target.size, cov, target.size - cov,
                             covered_weight=float(weight))


# --- same-level metrics ----------------------------------------------------

def fslsn(q: CubeQuery, history: Sequence[CubeQuery]) -> int:
    """Full same-level syntactic novelty: 0 iff some history query is
    syntactically identical to q."""
    return 0 if any(qi.same_definition(q) for qi in history) else 1


def _atoms_respect_groupers(q: CubeQuery) -> bool:
    """True when every filter atom sits at or above its dimension's grouper
    level, i.e. the filter selects whole result coordinates and shared
    coordinates of two such queries aggregate identical detailed content."""
    for atom in q.condition.atoms:
        dim = q.cube.dim(atom.dimension)
        if dim.level(atom.level).depth < dim.level(
                q.grouper_for(atom.dimension)).depth:
            return False
    return True


def comparable_same_level(q: CubeQuery,
                          history: Sequence[CubeQuery]) -> list[int]:
    """Positions of the history queries whose same-level comparison with q
    is meaningful: same groupers, same aggregate multiset, and filters (on
    both sides) that respect the grouper levels."""
    if not _atoms_respect_groupers(q):
        return []
    target = sorted(q.aggregates)
    out = []
    for i, qi in enumerate(history):
        if tuple(g.lower() for g in qi.groupers) != tuple(
                g.lower() for g in q.groupers):
            continue
        if sorted(qi.aggregates) != target:
            continue
        if not _atoms_respect_groupers(qi):
            continue
        out.append(i)
    return out


def same_level_partition(q: QueryOrEntry, others: Sequence[QueryOrEntry],
                         basis: str = "syntactic") -> CoveragePartition:
    """Coverage of q's same-level universe by pre-screened queries: the
    query signature's coordinates for the syntactic basis, the result cells
    for the extensional one."""
    if basis not in ("syntactic", "extensional"):
        raise ValueError(f"unknown basis {basis!r}")
    mine, others = as_entry(q), [as_entry(o) for o in others]
    if basis == "syntactic":
        return factored_partition(
            query_signature_factored(mine.query),
            [query_signature_factored(o.query) for o in others])
    keys = mine.result_cells.packed_keys()
    hits = np.zeros(len(keys), dtype=np.int64)
    for o in others:
        hits += np.isin(keys, o.result_cells.packed_keys())
    cov = int(np.count_nonzero(hits))
    return CoveragePartition(len(keys), cov, len(keys) - cov,
                             covered_weight=float(hits.sum()))


def same_level_novelty(q: QueryOrEntry, history: Sequence[QueryOrEntry],
                       basis: str = "syntactic"
                       ) -> tuple[float, CoveragePartition]:
    """Fraction of q's same-level coordinates (syntactic) or result cells
    (extensional) not covered by comparable history queries.

    Returns 1 with an all-novel partition when no history query is
    comparable.
    """
    mine, history = as_entry(q), [as_entry(h) for h in history]
    keep = comparable_same_level(mine.query, [h.query for h in history])
    part = same_level_partition(mine, [history[i] for i in keep], basis)
    return part.novel_fraction, part


# --- detailed syntactic metrics ----------------------------------------------

def fsdn(q: QueryOrEntry, history: Sequence[QueryOrEntry]) -> int:
    """Full syntactic detailed novelty: 0 iff some history query's detailed
    signature contains q's, that is, overlaps it in all of q's coordinates."""
    mine = as_entry(q).detailed_signature
    others = [as_entry(h).detailed_signature for h in history]
    return 0 if mine.size in mine.overlap_sizes(others) else 1


def pdsn(q: QueryOrEntry, history: Sequence[QueryOrEntry]
         ) -> tuple[float, CoveragePartition]:
    """Partial detailed syntactic novelty: the share of q's detailed
    signature not covered by the union of the history's detailed
    signatures."""
    part = factored_partition(
        as_entry(q).detailed_signature,
        [as_entry(h).detailed_signature for h in history])
    return part.novel_fraction, part


# --- detailed extensional metrics -----------------------------------------------

def pden(q: QueryOrEntry, history: Sequence[QueryOrEntry]
         ) -> tuple[float, CoveragePartition]:
    """Partial detailed extensional novelty: the share of q's detailed-area
    cells absent from the union of the history's detailed areas.

    Callers comparing like with like should pre-filter the history to the
    query's aggregate/measure multiset (see
    `context.filter_history_same_measures`); relevance passes the history
    unfiltered on purpose. The partition's `weighted_novel_fraction` is the
    weighted variant (wdn): a covered cell weighs one per history query
    containing it, a novel cell weighs 1.

    Detailed areas are selected fact rows (cube coordinates are unique), so
    this works on each entry's `rows`, which compare only over q's cube
    object (`HistoryEntry.rows_over`): a bare query's are selected once in
    the call, an entry's once in its life. q's rows are read against each
    history entry through `HistoryEntry.hits`, whose probes q's entry
    keeps for the other metrics of the call. The union of the hits gives
    the covered count and the sum of their counts the weight, both exact
    integers.
    """
    mine = as_entry(q)
    covered = np.zeros(len(mine.rows), dtype=bool)
    weight = 0
    for h in history:
        hits = mine.hits(as_entry(h))
        covered |= hits
        weight += int(np.count_nonzero(hits))
    total = len(covered)
    cov = int(np.count_nonzero(covered))
    part = CoveragePartition(total, cov, total - cov,
                             covered_weight=float(weight))
    return part.novel_fraction, part


# --- belief-based novelty ---------------------------------------------------------

def belief_novelty(q: QueryOrEntry, beliefs: BeliefStore, pi: float,
                   mode: str = "arbitrary") -> tuple[float, CoveragePartition]:
    """Share of the query's cells not pinned down by sufficiently confident
    beliefs.

    `same_level` compares result cells against belief anchors at exactly
    the query's grouper levels; `detailed` compares detailed-area cells
    against base-level anchors; `arbitrary` admits anchors at levels at or
    below the query's. Coverage is `covered_cells` in every mode.
    Statements anchored at ineligible levels are skipped and counted in the
    partition's diagnostics. The result cells come from the entry, when
    q is one.
    """
    if mode not in ("same_level", "detailed", "arbitrary"):
        raise ValueError(f"unknown belief novelty mode {mode!r}")
    mine = as_entry(q)
    cube = mine.query.cube
    star = known_cells(beliefs, pi)
    cells = detailed_area(mine.query) if mode == "detailed" else mine.result_cells
    depths = [d.level(lv).depth for d, lv in zip(cube.dims, cells.levels)]
    admits = operator.le if mode == "arbitrary" else operator.eq
    eligible = [a for a in star
                if all(admits(d.level(al).depth, depth)
                       for d, (al, _), depth in zip(cube.dims, a, depths))]
    cov = int(covered_cells(cells, eligible).sum())
    part = CoveragePartition(cells.size, cov, cells.size - cov,
                             skipped_statements=len(star) - len(eligible))
    return part.novel_fraction, part


def _detailed_box(dims: tuple[Dimension, ...],
                  anchor: Iterable[tuple[str, int]]) -> FactoredSignature:
    """Base-level detailed signature of one anchored cell."""
    return FactoredSignature(
        dims, tuple(d.base_level.name for d in dims),
        tuple(d.desc_ids(lv, [mid], d.base_level)
              for d, (lv, mid) in zip(dims, anchor)))


def covered_cells(cells: CellSet, anchors: Sequence[Anchor]) -> np.ndarray:
    """One bool per cell: True iff the cell's detailed signature is a subset
    of the union of the anchors' detailed signatures. Anchors above the
    cells' levels raise LevelMismatch; the others, rolled up, each lie inside
    one cell, which is checked only against the anchors inside it."""
    dims = cells.dims
    depths = [d.level(lv).depth for d, lv in zip(dims, cells.levels)]
    rolled = np.empty((len(anchors), len(dims)), dtype=np.int64)
    for i, anchor in enumerate(anchors):
        for j, (level, mid) in enumerate(anchor):
            depth = dims[j].level(level).depth
            if depth > depths[j]:
                raise LevelMismatch(
                    f"anchor level {level} is above cell level "
                    f"{cells.levels[j]} on {dims[j].name}")
            rolled[i, j] = dims[j].ancestor_map(depth, depths[j])[mid]
    covered = np.zeros(cells.size, dtype=bool)
    keys = cells.packed_keys()
    anchor_keys = pack_keys(rolled, cells.domain_sizes())
    for c in np.flatnonzero(np.isin(keys, anchor_keys)):
        target = _detailed_box(dims, zip(cells.levels, cells.coords[c].tolist()))
        inside = [_detailed_box(dims, anchors[i])
                  for i in np.flatnonzero(anchor_keys == keys[c])]
        covered[c] = target.covered_size(inside) == target.size
    return covered


def full_coverage(dims: tuple[Dimension, ...], cell: Cell,
                  cstar: Iterable[Anchor]) -> bool:
    """`covered_cells` for one cell: True iff its detailed signature lies in
    the union of the anchors'; anchors above it raise LevelMismatch."""
    cells = CellSet(dims, cell.levels, np.array([cell.ids]))
    return bool(covered_cells(cells, list(cstar))[0])
