"""Relevance metrics: overlap of a query with goals or beacon queries.

Goal-based relevance compares the query's detailed signature against the
detailed signature of a declared selection condition. History-based
relevance reuses the novelty partitions (with the history passed unfiltered,
since measures play no role in relevance) and reports the covered fraction,
which by construction complements the corresponding novelty score exactly.
"""

from __future__ import annotations

from typing import Sequence

from .context import Goal, QueryOrEntry, as_entry
from .engine import CubeQuery, condition_signature
from .errors import LevelMismatch
from .novelty import (
    CoveragePartition,
    _atoms_respect_groupers,
    factored_partition,
    fsdn,
    fslsn,
    pden,
    pdsn,
    same_level_partition,
)


def gbdsr(q: CubeQuery, goal: Goal) -> tuple[float, CoveragePartition]:
    """Goal-based detailed syntactic relevance: the fraction of the query's
    detailed signature inside the goal condition's detailed signature."""
    return multi_goal_gbdsr(q, [goal])


def multi_goal_gbdsr(q: QueryOrEntry, goals: Sequence[Goal]
                     ) -> tuple[float, CoveragePartition]:
    """Relevance against the union of several goals' detailed signatures
    (overlaps are not double-counted). q's signature is read from the
    entry, when q is one; the goals' are built per call."""
    if not goals:
        raise ValueError("at least one goal is required")
    mine = as_entry(q)
    part = factored_partition(
        mine.detailed_signature,
        [condition_signature(g, mine.query.cube) for g in goals])
    return part.covered_fraction, part


def same_level_relevance(q: CubeQuery, beacons: Sequence[CubeQuery],
                         mode: str = "partial",
                         basis: str = "syntactic") -> float:
    """Relevance of q against beacon queries defined at the same levels.

    Raises LevelMismatch unless every beacon shares q's grouper levels; the
    same-level treatment is only meaningful on a homogeneous space.
    """
    if mode not in ("full", "partial"):
        raise ValueError(f"unknown mode {mode!r}")
    mine = tuple(g.lower() for g in q.groupers)
    for qi in beacons:
        if tuple(g.lower() for g in qi.groupers) != mine:
            raise LevelMismatch(
                "same-level relevance needs all queries at the query's levels")
    if mode == "full":
        return 0.0 if fslsn(q, beacons) else 1.0
    # Aggregates are irrelevant to relevance; beacons only need filters
    # that respect the shared grouper levels for the comparison to hold.
    if not _atoms_respect_groupers(q):
        return 0.0
    eligible = [qi for qi in beacons if _atoms_respect_groupers(qi)]
    if not eligible:
        return 0.0
    return same_level_partition(q, eligible, basis=basis).covered_fraction


def detailed_relevance(q: QueryOrEntry, history: Sequence[QueryOrEntry],
                       mode: str = "partial",
                       basis: str = "extensional") -> float:
    """History-based relevance at the detailed level.

    `full` is the complement of full detailed novelty; `partial` is the
    covered fraction of the detailed signature (syntactic) or detailed area
    (extensional). Pass the history unfiltered: aggregate functions and
    measures do not matter for relevance. q and the history items may be
    queries or history entries; they pass through to `fsdn`, `pdsn` and
    `pden`, which read detailed signatures and keys from entries.
    """
    if mode == "full":
        return 1.0 - fsdn(q, history)
    if mode != "partial":
        raise ValueError(f"unknown mode {mode!r}")
    if basis == "syntactic":
        score, _part = pdsn(q, history)
    elif basis == "extensional":
        score, _part = pden(q, history)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return 1.0 - score
