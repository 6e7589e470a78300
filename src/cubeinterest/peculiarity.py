"""Peculiarity metrics: how far a query sits from a query collection.

Three families: syntactic distance over query definitions (filter, grouper
levels, aggregates), value-based distances over result cells (directed
closest-relative and Hausdorff, built on the hierarchy hop-count cell
distance), and Jaccard distance over detailed areas with k-NN selection.
The cell distance depends only on the per-dimension depths of the cells'
least common ancestors (LCA), so cells are never paired up: both sets are
rolled up to each LCA-depth profile and matched as packed keys, both ways,
by one sorted probe. One such walk per pair of results gives both scores.
Detailed areas are fact row ids, and the Jaccard intersection with each
member is counted from q's one probe of it (`HistoryEntry.hits`).
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .context import QueryOrEntry, as_entry
from .engine import CellSet, CubeQuery
from .errors import (
    EmptyCollection,
    EmptyResult,
    KOutOfRange,
    PairLimitExceeded,
    SchemaMismatch,
)

# The dense pair matrix of `pairwise_cell_distances` refuses to build beyond
# this many pairs; the metrics themselves need no matrix and no cap.
PAIR_CAP = 1_000_000

AGG_KINDS = ("min", "max", "average", "median", "knn")


@dataclass(frozen=True)
class DistanceWeights:
    """Weights of the filter / grouper-level / measure components of the
    syntactic query distance."""

    w_filter: float = 0.5
    w_levels: float = 0.35
    w_measures: float = 0.15

    def __post_init__(self):
        if min(self.w_filter, self.w_levels, self.w_measures) < 0:
            raise ValueError("distance weights must be nonnegative")
        if abs(self.w_filter + self.w_levels + self.w_measures - 1.0) > 1e-9:
            raise ValueError("distance weights must sum to 1")


DEFAULT_WEIGHTS = DistanceWeights()


@dataclass(frozen=True)
class AggregationSpec:
    """How per-query distances collapse into one peculiarity score."""

    kind: str = "average"
    k: int | None = None

    def __post_init__(self):
        if self.kind not in AGG_KINDS:
            raise ValueError(f"unknown aggregation {self.kind!r}")
        if self.kind == "knn":
            if self.k is None or self.k < 1:
                raise KOutOfRange("knn aggregation needs k >= 1")
        elif self.k is not None:
            raise ValueError(f"aggregation {self.kind!r} takes no k")

    def apply(self, values: Sequence[float]) -> float:
        if not values:
            raise EmptyCollection("no distances to aggregate")
        if self.kind == "min":
            return min(values)
        if self.kind == "max":
            return max(values)
        if self.kind == "average":
            return sum(values) / len(values)
        if self.kind == "median":
            return float(statistics.median(values))
        if self.k > len(values):
            raise KOutOfRange(
                f"k={self.k} exceeds the {len(values)} available distances")
        return sorted(values)[self.k - 1]


# --- syntactic distance -----------------------------------------------------

def _check_same_space(qa: CubeQuery, qb: CubeQuery):
    if qa.cube is qb.cube:
        return
    if qa.cube.dims != qb.cube.dims or qa.cube.measures != qb.cube.measures:
        raise SchemaMismatch("queries are not over the same base cube")


def query_distance_components(qa: CubeQuery,
                              qb: CubeQuery) -> tuple[float, float, float]:
    """(filter, level, measure) component distances, each in [0, 1].

    Filter: per dimension, 0 iff both queries restrict it identically (an
    absent filter counts as ALL), else 1; averaged. Levels: per-dimension
    grouper depth gap over the hierarchy height, averaged. Measures: Jaccard
    distance between the (function, measure) pair sets.
    """
    _check_same_space(qa, qb)
    dims = qa.cube.dims
    d_filter = 0.0
    d_level = 0.0
    for i, dim in enumerate(dims):
        a, b = qa.condition.atom_for(dim.name), qb.condition.atom_for(dim.name)
        key_a = (dim.level(a.level).depth, a.values) if a else None
        key_b = (dim.level(b.level).depth, b.values) if b else None
        if key_a != key_b:
            d_filter += 1.0
        ga = dim.level(qa.groupers[i]).depth
        gb = dim.level(qb.groupers[i]).depth
        d_level += abs(ga - gb) / dim.height
    d_filter /= len(dims)
    d_level /= len(dims)
    set_a, set_b = set(qa.aggregates), set(qb.aggregates)
    union = set_a | set_b
    d_meas = 1.0 - len(set_a & set_b) / len(union) if union else 0.0
    return d_filter, d_level, d_meas


def query_distance(qa: CubeQuery, qb: CubeQuery,
                   weights: DistanceWeights = DEFAULT_WEIGHTS) -> float:
    """Weighted sum of the three component distances; symmetric and 0 on
    identical definitions."""
    d_filter, d_level, d_meas = query_distance_components(qa, qb)
    return (weights.w_filter * d_filter + weights.w_levels * d_level
            + weights.w_measures * d_meas)


def syntactic_peculiarity(q: CubeQuery, collection: Sequence[CubeQuery],
                          agg: AggregationSpec = AggregationSpec("average"),
                          weights: DistanceWeights = DEFAULT_WEIGHTS) -> float:
    """Aggregate syntactic distance of q to a query collection."""
    if not collection:
        raise EmptyCollection("peculiarity needs a non-empty query collection")
    return agg.apply([query_distance(q, qi, weights) for qi in collection])


# --- value-based distances ----------------------------------------------------

def _profiles(a: CellSet, b: CellSet):
    """Yield (distance, depths) per LCA-depth profile. Two cells whose keys
    at `depths` match meet at or below the profile, so their distance is at
    most its distance, with equality at their own LCA profile."""
    if a.dims != b.dims:
        raise SchemaMismatch("cell sets are over different dimensions")
    if a.size == 0 or b.size == 0:
        raise EmptyResult("cell distance needs non-empty cell sets")
    own_a = [d.level(lv).depth for d, lv in zip(a.dims, a.levels)]
    own_b = [d.level(lv).depth for d, lv in zip(b.dims, b.levels)]
    ranges = [range(max(da, db), d.height + 1)
              for d, da, db in zip(a.dims, own_a, own_b)]
    for depths in itertools.product(*ranges):
        total = 0.0
        for d, da, db, dl in zip(a.dims, own_a, own_b, depths):
            total += ((dl - da) + (dl - db)) / (2.0 * d.height)
        yield total / len(a.dims), depths


def nearest_cell_distances(a: CellSet, b: CellSet
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-cell distances of `a` to `b` and of `b` to `a`, from one walk
    over the profiles: per cell, the least distance of a profile at which
    its key appears among the other set's."""
    return _nearest(a, b, {})


def _nearest(a: CellSet, b: CellSet, rolled_b: dict):
    """`nearest_cell_distances`, memoising b's (sorted unique keys, inverse)
    per depth tuple in `rolled_b`. One binary-search probe of a's keys gives
    a's hits, and the unique keys hit, read through the inverse, give b's."""
    a_to_b, b_to_a = np.full(a.size, np.inf), np.full(b.size, np.inf)
    for dist, depths in _profiles(a, b):
        if depths not in rolled_b:
            rolled_b[depths] = np.unique(b.rollup_keys(depths), return_inverse=True)
        uniq, inverse = rolled_b[depths]
        keys = a.rollup_keys(depths)
        pos = np.minimum(np.searchsorted(uniq, keys), len(uniq) - 1)
        hit = uniq[pos] == keys
        np.putmask(a_to_b, hit & (a_to_b > dist), dist)
        seen = np.bincount(pos[hit], minlength=len(uniq)) > 0
        np.putmask(b_to_a, seen[inverse] & (b_to_a > dist), dist)
    return a_to_b, b_to_a


def pairwise_cell_distances(a: CellSet, b: CellSet) -> np.ndarray:
    """Dense |a| x |b| matrix of cell distances: per pair, the least
    distance of a profile at which the two cells' keys match."""
    if a.size * b.size > PAIR_CAP:
        raise PairLimitExceeded(
            f"{a.size}x{b.size} cell pairs exceed the cap of {PAIR_CAP}")
    out = np.full((a.size, b.size), np.inf)
    for dist, depths in _profiles(a, b):
        hit = a.rollup_keys(depths)[:, None] == b.rollup_keys(depths)
        np.minimum(out, np.where(hit, dist, np.inf), out=out)
    return out


def closest_relative_distance(a: CellSet, b: CellSet) -> float:
    """Directed closest-relative distance: each cell of `a` is paired with
    its nearest cell of `b` and the pair distances are averaged. Not
    symmetric in general."""
    return float(nearest_cell_distances(a, b)[0].mean())


def closest_relative_symmetric(a: CellSet, b: CellSet) -> float:
    """Average of the two directed closest-relative distances."""
    return 0.5 * sum(float(d.mean()) for d in nearest_cell_distances(a, b))


def hausdorff_distance(a: CellSet, b: CellSet) -> float:
    """Symmetric Hausdorff distance: the larger of the two directed
    max-of-min-pair distances."""
    return max(float(d.max()) for d in nearest_cell_distances(a, b))


def directed_hausdorff(a: CellSet, b: CellSet) -> float:
    return float(nearest_cell_distances(a, b)[0].max())


def value_peculiarity(q: QueryOrEntry, collection: Sequence[QueryOrEntry],
                      agg: AggregationSpec = AggregationSpec("average")
                      ) -> tuple[float, float] | None:
    """Aggregate result-cell distances of q to a query collection, as the
    pair (closest-relative directed from each member towards q, Hausdorff),
    both from one profile walk per member (`nearest_cell_distances`). The
    walks share q's keys, rolled up once per depth tuple for this call only.

    Results are read from entries, and a bare query is evaluated once. A
    cell distance needs cells on both sides, so a member with an empty
    result leaves the collection, and the aggregation runs over the members
    left. None when q's result is empty or no member is left.
    """
    if not collection:
        raise EmptyCollection("peculiarity needs a non-empty query collection")
    mine = as_entry(q).result_cells
    results = [r for r in (as_entry(x).result_cells for x in collection)
               if r.size]
    if not mine.size or not results:
        return None
    closest, hausdorff, rolled = [], [], {}
    for r in results:
        rq, qr = _nearest(r, mine, rolled)
        closest.append(float(rq.mean()))
        hausdorff.append(max(float(rq.max()), float(qr.max())))
    return agg.apply(closest), agg.apply(hausdorff)


# --- Jaccard over detailed areas ---------------------------------------------

def jaccard_detailed_distance(qa: QueryOrEntry, qb: QueryOrEntry) -> float:
    """1 minus the Jaccard similarity of the two detailed areas, which must
    be over one cube object; 0 when both areas are empty (identical). The
    intersection is counted from one probe, `HistoryEntry.hits`."""
    mine, other = as_entry(qa), as_entry(qb)
    inter = int(np.count_nonzero(mine.hits(other)))
    union = len(mine.rows) + len(other.rows) - inter
    if union == 0:
        return 0.0
    return 1.0 - inter / union


def jaccard_peculiarity(q: QueryOrEntry, collection: Sequence[QueryOrEntry],
                        k: int = 1) -> float:
    """k-th smallest Jaccard distance between q's detailed area and the
    detailed areas of the collection (distances sorted ascending; ties keep
    collection order, which cannot change the returned value). The areas
    are the entries' rows, over q's cube object only; q and each bare query
    are selected once, and each member is probed once through q's entry
    (`HistoryEntry.hits`), which reuses a probe an earlier metric made."""
    if not collection:
        raise EmptyCollection("peculiarity needs a non-empty query collection")
    if not 1 <= k <= len(collection):
        raise KOutOfRange(f"k={k} outside 1..{len(collection)}")
    mine = as_entry(q)
    distances = sorted(jaccard_detailed_distance(mine, x) for x in collection)
    return distances[k - 1]
