"""Randomized micro-instances: every metric against a brute-force oracle.

Each seed builds one small cube twice (package structures and plain-python
oracle structures) plus a bundle of random queries, then checks every
metric the package computes against exhaustive enumeration, to 1e-9.
"""

import dataclasses
import random

import pytest

import oracles
from conftest import build_instance
from cubeinterest.context import (
    BeliefStatement,
    BeliefStore,
    ExpectedValues,
    SessionContext,
    ValueInterval,
)
from cubeinterest.engine import SelectionCondition, evaluate
from cubeinterest.harness import AssessConfig, interestingness_vector
from cubeinterest import novelty, peculiarity, relevance, surprise

SEEDS = range(100)
TOL = 1e-9


def _approx(expected):
    return pytest.approx(expected, rel=TOL, abs=TOL)


def _result_labels(cells):
    return [cells.labels_row(i) for i in range(cells.size)]


def _anchor_labels(dims, anchor):
    return (tuple(lv for lv, _ in anchor),
            tuple(d.label_of(lv, mid) for d, (lv, mid) in zip(dims, anchor)))


def _finer_anchors(rnd, dims, cell):
    """Anchors below one result cell: all or some of its children one level
    down on one dimension, or a few of its base-level descendants."""
    finer = [j for j, (d, lv) in enumerate(zip(dims, cell.levels))
             if d.level(lv).depth > 0]
    if not finer:
        return []
    kind = rnd.choice(("children", "some_children", "base"))
    if kind == "base":
        out = []
        for _ in range(rnd.randint(1, 3)):
            out.append(tuple(
                (d.base_level.name,
                 rnd.choice(d.desc_ids(lv, [mid], d.base_level).tolist()))
                for d, lv, mid in zip(dims, cell.levels, cell.ids)))
        return out
    j = rnd.choice(finer)
    dim = dims[j]
    below = dim.levels[dim.level(cell.levels[j]).depth - 1].name
    children = dim.desc_ids(cell.levels[j], [cell.ids[j]], below).tolist()
    if kind == "some_children":
        children = rnd.sample(children, rnd.randint(1, len(children)))
    anchor = list(zip(cell.levels, cell.ids))
    out = []
    for child in children:
        anchor[j] = (below, child)
        out.append(tuple(anchor))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_match_oracles(seed):
    inst = build_instance(seed, n_queries=3 + seed % 5)
    cube, ocube = inst.cube, inst.ocube
    q, q_spec = inst.q, inst.q_spec
    history, history_specs = inst.history, inst.history_specs

    # --- history-based novelty ------------------------------------------------
    assert novelty.fslsn(q, history) == oracles.fslsn(q_spec, history_specs)
    assert novelty.fsdn(q, history) == oracles.fsdn(ocube, q_spec, history_specs)

    got, part = novelty.pdsn(q, history)
    assert got == _approx(oracles.pdsn(ocube, q_spec, history_specs))
    assert part.weighted_novel_fraction == _approx(
        oracles.pdsn(ocube, q_spec, history_specs, weighted=True))

    got, part = novelty.pden(q, history)
    assert got == _approx(oracles.pden(ocube, q_spec, history_specs))
    assert part.weighted_novel_fraction == _approx(
        oracles.pden(ocube, q_spec, history_specs, weighted=True))

    got, _ = novelty.same_level_novelty(q, history, "syntactic")
    assert got == _approx(oracles.pslsn(ocube, q_spec, history_specs))
    got, _ = novelty.same_level_novelty(q, history, "extensional")
    assert got == _approx(oracles.pslen(ocube, q_spec, history_specs))

    # --- relevance ---------------------------------------------------------------
    assert relevance.detailed_relevance(q, history, mode="full") == \
        1.0 - oracles.fsdn(ocube, q_spec, history_specs)
    got = relevance.detailed_relevance(q, history, basis="syntactic")
    assert got == _approx(1.0 - oracles.pdsn(ocube, q_spec, history_specs))
    got = relevance.detailed_relevance(q, history, basis="extensional")
    assert got == _approx(1.0 - oracles.pden(ocube, q_spec, history_specs))

    goals = [SelectionCondition(qi.condition.atoms) for qi in history[:2]]
    goal_specs = [oracles.QSpec(s.atoms, s.groupers, s.aggregates)
                  for s in history_specs[:2]]
    if goals:
        got, _ = relevance.gbdsr(q, goals[0])
        assert got == _approx(oracles.gbdsr(ocube, q_spec, goal_specs[:1]))
        got, _ = relevance.multi_goal_gbdsr(q, goals)
        assert got == _approx(oracles.gbdsr(ocube, q_spec, goal_specs))

    same_level = [(qi, si) for qi, si in zip(history, history_specs)
                  if si.groupers == q_spec.groupers]
    if same_level:
        beacons = [qi for qi, _ in same_level]
        specs = [si for _, si in same_level]
        eligible = oracles.same_level_comparable(
            ocube, oracles.QSpec(q_spec.atoms, q_spec.groupers,
                                 specs[0].aggregates), specs)
        got = relevance.same_level_relevance(q, beacons, "partial")
        if not oracles.atoms_respect_groupers(ocube, q_spec):
            assert got == 0.0
        else:
            respecting = [s for s in specs
                          if oracles.atoms_respect_groupers(ocube, s)]
            if respecting:
                mine = oracles.query_signature(ocube, q_spec)
                union = set()
                for s in respecting:
                    union |= oracles.query_signature(ocube, s)
                assert got == _approx(len(mine & union) / len(mine))
            else:
                assert got == 0.0

    # --- peculiarity ----------------------------------------------------------------
    if history:
        got = peculiarity.syntactic_peculiarity(q, history)
        dists = [oracles.query_distance(ocube, q_spec, s)
                 for s in history_specs]
        assert got == _approx(sum(dists) / len(dists))
        k = 1 + seed % len(history)
        got = peculiarity.syntactic_peculiarity(
            q, history, peculiarity.AggregationSpec("knn", k))
        assert got == _approx(sorted(dists)[k - 1])

        got = peculiarity.jaccard_peculiarity(q, history, k=k)
        jds = sorted(oracles.jaccard_distance(ocube, q_spec, s)
                     for s in history_specs)
        assert got == _approx(jds[k - 1])

        mine = evaluate(q)
        other = evaluate(history[0])
        if 0 < mine.size * other.size <= 2500:
            got = peculiarity.closest_relative_distance(other, mine)
            assert got == _approx(oracles.closest_relative(
                ocube, other.levels, _result_labels(other),
                mine.levels, _result_labels(mine)))
            got = peculiarity.hausdorff_distance(other, mine)
            assert got == _approx(oracles.hausdorff(
                ocube, other.levels, _result_labels(other),
                mine.levels, _result_labels(mine)))

    # --- belief novelty ----------------------------------------------------------------
    rnd = random.Random(seed * 31 + 7)
    result = evaluate(q)
    cells = list(result.iter_cells())
    if cells:
        anchors = [tuple(zip(cell.levels, cell.ids))
                   for cell in rnd.sample(cells, min(len(cells), 3))]
        for cell in rnd.sample(cells, min(len(cells), 3)):
            anchors += _finer_anchors(rnd, cube.dims, cell)
        statements = [
            BeliefStatement("Amt", "set", frozenset({float(i)}),
                            round(rnd.uniform(0.1, 1.0), 3), anchor)
            for i, anchor in enumerate(anchors)]
        store = BeliefStore(statements)
        pi = round(rnd.uniform(0.0, 1.0), 3)
        known = {s.anchor for s in statements if s.probability >= pi}
        result_cells = list(oracles.evaluate(ocube, q_spec))
        base = tuple(od.levels[0] for od in ocube.dims)
        for mode, levels, universe in (
                ("same_level", q_spec.groupers, result_cells),
                ("arbitrary", q_spec.groupers, result_cells),
                ("detailed", base, list(oracles.detailed_cells(ocube, q_spec)))):
            eligible = [
                a for a in known
                if all(od.depth(lv) == od.depth(cl) or (
                    mode == "arbitrary" and od.depth(lv) < od.depth(cl))
                       for od, (lv, _), cl in zip(ocube.dims, a, levels))]
            got, part = novelty.belief_novelty(q, store, pi, mode)
            assert part.skipped_statements == len(known) - len(eligible), mode
            expect = oracles.belief_novelty(
                ocube, levels, universe,
                [_anchor_labels(cube.dims, a) for a in eligible])
            assert got == _approx(expect), mode

    # --- surprise -----------------------------------------------------------------------
    if cells:
        column = q.aggregate_labels()[0]
        expected = ExpectedValues()
        dists = []
        for i, cell in enumerate(rnd.sample(cells, min(len(cells), 4))):
            anchor = tuple(zip(cell.levels, cell.ids))
            offset = rnd.choice([0.0, rnd.uniform(-50, 50)])
            expected.register(anchor, column, cell.measures[column] + offset)
            dists.append(abs(offset))
        got = surprise.normalized_value_surprise(result, expected,
                                                 measure=column)
        assert got == _approx(oracles.minmax_normalized_avg(dists))

        target = cells[0]
        anchor = tuple(zip(target.levels, target.ids))
        actual = target.measures[column]
        stmts = []
        sum_off = 0.0
        for _ in range(3):
            lo = actual + rnd.uniform(-100, 50)
            hi = lo + rnd.uniform(1, 120)
            p = round(rnd.uniform(0.05, 0.4), 3)
            stmts.append(BeliefStatement(
                column, "interval", ValueInterval(lo, hi), p, anchor))
            if not (lo <= actual < hi):
                sum_off += p
        assert surprise.probability_surprise(stmts, actual, "interval") == \
            _approx(sum_off)


@pytest.mark.parametrize("seed", SEEDS)
def test_complementarity_exact(seed):
    """History-based relevance and novelty sum to exactly 1."""
    inst = build_instance(seed, n_queries=3 + seed % 5)
    nov_s, _ = novelty.pdsn(inst.q, inst.history)
    rel_s = relevance.detailed_relevance(inst.q, inst.history,
                                         basis="syntactic")
    assert nov_s + rel_s == 1.0
    nov_e, _ = novelty.pden(inst.q, inst.history)
    rel_e = relevance.detailed_relevance(inst.q, inst.history,
                                         basis="extensional")
    assert nov_e + rel_e == 1.0


@pytest.mark.parametrize("seed", SEEDS)
def test_harness_matches_oracles(seed):
    """The harness's shared inputs (each history entry's memoised keys and
    results, every other entry with a cached result) give the oracle's
    scores, in a first assessment and in a second that reads the memo."""
    inst = build_instance(seed, n_queries=3 + seed % 5)
    q, q_spec = inst.q, inst.q_spec
    history, specs = inst.history, inst.history_specs
    if seed % 2:
        # a history that shares q's measures: pden and pder complement
        history = [dataclasses.replace(qi, aggregates=q.aggregates)
                   for qi in history]
        specs = [oracles.QSpec(s.atoms, s.groupers, q_spec.aggregates)
                 for s in specs]
    ctx = SessionContext(inst.cube)
    for i, qi in enumerate(history):
        ctx.history.append(qi, evaluate(qi) if i % 2 else None)
    same = [s for s in specs
            if sorted(s.aggregates) == sorted(q_spec.aggregates)]
    k = 1 + seed % len(history)
    cfg = AssessConfig(metrics=("novelty", "relevance", "peculiarity"),
                       jaccard_k=k)
    jds = sorted(oracles.jaccard_distance(inst.ocube, q_spec, s)
                 for s in specs)
    value = _oracle_value_peculiarity(inst.ocube, q, history)
    for _ in range(2):
        scores = interestingness_vector(q, ctx, cfg).scores
        pden, pder = scores["novelty"]["pden"], scores["relevance"]["pder"]
        assert pden == _approx(oracles.pden(inst.ocube, q_spec, same))
        assert scores["novelty"]["wdn"] == _approx(
            oracles.pden(inst.ocube, q_spec, same, weighted=True))
        assert pder == _approx(1.0 - oracles.pden(inst.ocube, q_spec, specs))
        if seed % 2:
            assert pden + pder == 1.0
        assert scores["peculiarity"]["jaccard"] == _approx(jds[k - 1])
        for key, expected in value.items():
            if expected is None:
                assert scores["peculiarity"][key] is None, key
            else:
                assert scores["peculiarity"][key] == _approx(expected), key


def _oracle_value_peculiarity(ocube, q, history) -> dict:
    """Average oracle pair distance from each history result to q's, over
    the history results with cells; None when q's result is empty or no
    history result has cells."""
    mine = evaluate(q)
    results = [r for r in map(evaluate, history) if r.size]
    if not mine.size or not results:
        return {"value_cr": None, "value_hausdorff": None}
    out = {}
    for key, fn in (("value_cr", oracles.closest_relative),
                    ("value_hausdorff", oracles.hausdorff)):
        dists = [fn(ocube, r.levels, _result_labels(r),
                    mine.levels, _result_labels(mine)) for r in results]
        out[key] = sum(dists) / len(dists)
    return out
