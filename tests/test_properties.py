"""Metric axioms checked property-style over generated instances.

Each @given example counts as one generated case; the per-test example
counts are sized so the module generates well over a thousand cases.
"""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    build_instance,
    check_expectation_loaders,
    write_expectation_file,
)
from cubeinterest.context import (
    BeliefStatement,
    BeliefStore,
    HistoryEntry,
    known_cells,
)
from cubeinterest.engine import (
    CellSet,
    cell_distance,
    condition_signature,
    evaluate,
    pack_keys,
    query_signature_factored,
)
from cubeinterest.errors import NominalLooseUnsupported
from cubeinterest.novelty import belief_novelty, fsdn, pden, pdsn, fslsn
from cubeinterest.peculiarity import (
    AggregationSpec,
    hausdorff_distance,
    jaccard_detailed_distance,
    jaccard_peculiarity,
    nearest_cell_distances,
    query_distance,
    syntactic_peculiarity,
    value_peculiarity,
)
from cubeinterest.relevance import detailed_relevance, gbdsr
from cubeinterest.surprise import LabelDomain

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
EXAMPLES = 100


def small(seed, n_queries=4):
    return build_instance(seed, n_queries=n_queries, max_rows=60)


# --- score ranges ------------------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_partial_scores_within_unit_interval(seed):
    inst = small(seed)
    for fn in (pden, pdsn):
        score, part = fn(inst.q, inst.history)
        for value in (score, part.weighted_novel_fraction):
            assert 0.0 <= value <= 1.0
        assert part.covered_count + part.novel_count == part.universe_size
    for basis in ("syntactic", "extensional"):
        score = detailed_relevance(inst.q, inst.history, basis=basis)
        assert 0.0 <= score <= 1.0
    if inst.history:
        goal = inst.history[0].condition
        score, _ = gbdsr(inst.q, goal)
        assert 0.0 <= score <= 1.0
        assert 0.0 <= syntactic_peculiarity(inst.q, inst.history) <= 1.0
        assert 0.0 <= jaccard_peculiarity(inst.q, inst.history, k=1) <= 1.0


# --- distance axioms ------------------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_value_distance_axioms(seed):
    inst = small(seed, n_queries=1)
    for dim in inst.cube.dims:
        members = dim.members(dim.base_level) + dim.members(
            dim.levels[-2].name if dim.height > 1 else dim.base_level)
        for a in members[:6]:
            for b in members[:6]:
                d = dim.value_distance(a, b)
                assert 0.0 <= d <= 1.0
                assert d == dim.value_distance(b, a)
                assert (d == 0.0) == (a == b)


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_query_distance_axioms(seed):
    inst = small(seed)
    assert query_distance(inst.q, inst.q) == 0.0
    for qi in inst.history:
        d = query_distance(inst.q, qi)
        assert 0.0 <= d <= 1.0
        assert d == query_distance(qi, inst.q)


@settings(max_examples=EXAMPLES // 2, deadline=None)
@given(seeds)
def test_result_distance_axioms(seed):
    inst = small(seed, n_queries=2)
    a = evaluate(inst.q)
    if a.size == 0 or a.size ** 2 > 2500:
        return
    assert hausdorff_distance(a, a) == 0.0
    b = evaluate(inst.history[0]) if inst.history else a
    if 0 < a.size * b.size <= 2500:
        d = hausdorff_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == hausdorff_distance(b, a)
        a_to_b, b_to_a = nearest_cell_distances(a, b)
        b_to_a_swapped, a_to_b_swapped = nearest_cell_distances(b, a)
        assert np.array_equal(a_to_b, a_to_b_swapped)
        assert np.array_equal(b_to_a, b_to_a_swapped)


def _cell_set(data, dims, min_size=1, unique=True) -> CellSet:
    """A random cell set: per dimension a level (ALL included) and the
    members at it below one random ancestor, so that many cells share
    ancestors and their rolled-up keys repeat; by default non-empty and
    with unique coordinates, as a query result has."""
    levels, pools = [], []
    for d in dims:
        lo = data.draw(st.integers(0, d.height))
        up = data.draw(st.integers(lo, d.height))
        amap = d.ancestor_map(lo, up)
        top = data.draw(st.sampled_from(sorted(set(amap.tolist()))))
        levels.append(d.levels[lo].name)
        pools.append(np.flatnonzero(amap == top).tolist())
    coords = data.draw(st.lists(st.tuples(*map(st.sampled_from, pools)),
                                min_size=min_size, max_size=12, unique=unique))
    return CellSet(dims, tuple(levels), np.array(coords))


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds, st.data())
def test_meets_matches_isin_of_rolled_keys(seed, data):
    """`meets` both ways equals `np.isin` over the packed keys of the cells'
    ancestors, with repeated coordinates, an empty side and two sets at
    different levels."""
    dims = small(seed, n_queries=1).cube.dims
    a = _cell_set(data, dims, min_size=0, unique=False)
    b = _cell_set(data, dims, min_size=0, unique=False)
    depths = tuple(data.draw(st.integers(max(da, db), d.height))
                   for d, da, db in zip(dims, a.depths, b.depths))

    def keys(c):
        rolled = np.array([[d.ancestor_map(own, to)[i]
                            for d, own, to, i in zip(dims, c.depths, depths, row)]
                           for row in c.coords.tolist()], dtype=np.int64)
        return pack_keys(rolled, [d.size(d.levels[t])
                                  for d, t in zip(dims, depths)])

    empty = CellSet(dims, b.levels, np.array([]))
    for x, y in ((a, b), (b, a), (a, empty), (empty, a)):
        hit_x, hit_y = x.meets(y, depths)
        assert np.array_equal(hit_x, np.isin(keys(x), keys(y)))
        assert np.array_equal(hit_y, np.isin(keys(y), keys(x)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds, st.data())
def test_nearest_cell_distances_match_cell_pairs(seed, data):
    dims = small(seed, n_queries=1).cube.dims
    a, b = _cell_set(data, dims), _cell_set(data, dims)
    matrix = np.array([[cell_distance(dims, ca, cb) for cb in b.iter_cells()]
                       for ca in a.iter_cells()])
    a_to_b, b_to_a = nearest_cell_distances(a, b)
    assert np.array_equal(a_to_b, matrix.min(axis=1))
    assert np.array_equal(b_to_a, matrix.min(axis=0))


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds, st.data(), st.sampled_from(["min", "max", "average", "median"]))
def test_value_peculiarity_aggregates_plain_pair_walks(seed, data, kind):
    """The walks of one call share q's rolled-up keys and still score as
    one plain `nearest_cell_distances` call per member."""
    inst = small(seed, n_queries=1)
    dims = inst.cube.dims
    mine = _cell_set(data, dims)
    members = [_cell_set(data, dims) for _ in range(data.draw(st.integers(1, 5)))]
    pairs = [nearest_cell_distances(r, mine) for r in members]
    agg = AggregationSpec(kind)
    # each entry's supplied result stands for its query's
    got = value_peculiarity(HistoryEntry(inst.q, mine),
                            [HistoryEntry(inst.q, r) for r in members], agg)
    assert got == (agg.apply([float(rq.mean()) for rq, _ in pairs]),
                   agg.apply([max(float(rq.max()), float(qr.max()))
                              for rq, qr in pairs]))


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_jaccard_axioms(seed):
    inst = small(seed, n_queries=2)
    assert jaccard_detailed_distance(inst.q, inst.q) == 0.0
    for qi in inst.history:
        d = jaccard_detailed_distance(inst.q, qi)
        assert 0.0 <= d <= 1.0
        assert d == jaccard_detailed_distance(qi, inst.q)


# --- monotonicity -----------------------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_novelty_nonincreasing_in_history(seed):
    inst = small(seed, n_queries=6)
    prev_e, prev_s = None, None
    for n in range(len(inst.history) + 1):
        score_e, _ = pden(inst.q, inst.history[:n])
        score_s, _ = pdsn(inst.q, inst.history[:n])
        if prev_e is not None:
            assert score_e <= prev_e
            assert score_s <= prev_s
        prev_e, prev_s = score_e, score_s


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds, st.integers(0, 4))
def test_belief_novelty_monotone(seed, extra):
    inst = small(seed, n_queries=1)
    cells = list(evaluate(inst.q).iter_cells())
    if not cells:
        return
    import random as _random

    rnd = _random.Random(seed ^ 0xBEEF)
    statements = []
    for cell in cells[:3 + extra]:
        anchor = tuple(zip(cell.levels, cell.ids))
        statements.append(BeliefStatement(
            "Amt", "set", frozenset({1.0}),
            round(rnd.uniform(0, 1), 3), anchor))
    store = BeliefStore(statements)
    # raising the threshold never decreases novelty
    scores = [belief_novelty(inst.q, store, pi, "same_level")[0]
              for pi in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert scores == sorted(scores)
    # adding beliefs never increases novelty
    partial = BeliefStore(statements[:1])
    full_score, _ = belief_novelty(inst.q, store, 0.3, "same_level")
    part_score, _ = belief_novelty(inst.q, partial, 0.3, "same_level")
    assert full_score <= part_score
    # knownness itself is monotone nonincreasing in the threshold
    sizes = [len(known_cells(store, pi)) for pi in (0.0, 0.5, 1.0)]
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_knn_nondecreasing_in_k(seed):
    inst = small(seed, n_queries=5)
    if not inst.history:
        return
    syn = [syntactic_peculiarity(inst.q, inst.history,
                                 AggregationSpec("knn", k))
           for k in range(1, len(inst.history) + 1)]
    assert syn == sorted(syn)
    jac = [jaccard_peculiarity(inst.q, inst.history, k=k)
           for k in range(1, len(inst.history) + 1)]
    assert jac == sorted(jac)


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_wdn_bounded_by_pden(seed):
    inst = small(seed)
    unweighted, part = pden(inst.q, inst.history)
    assert part.weighted_novel_fraction <= unweighted + 1e-12


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_full_novelty_implies_partial(seed):
    inst = small(seed)
    if fsdn(inst.q, inst.history) == 0:
        score, _ = pdsn(inst.q, inst.history)
        assert score == 0.0
    if fslsn(inst.q, inst.history + [inst.q]) != 0:
        raise AssertionError("fslsn must detect the query itself")


# --- complementarity and structure ------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_relevance_complements_novelty(seed):
    inst = small(seed)
    nov_e, _ = pden(inst.q, inst.history)
    nov_s, _ = pdsn(inst.q, inst.history)
    assert detailed_relevance(inst.q, inst.history,
                              basis="extensional") + nov_e == 1.0
    assert detailed_relevance(inst.q, inst.history,
                              basis="syntactic") + nov_s == 1.0


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_goal_relevance_monotone_in_goals(seed):
    inst = small(seed, n_queries=4)
    if len(inst.history) < 2:
        return
    from cubeinterest.relevance import multi_goal_gbdsr

    goals = [qi.condition for qi in inst.history]
    one, _ = multi_goal_gbdsr(inst.q, goals[:1])
    both, _ = multi_goal_gbdsr(inst.q, goals[:2])
    assert both >= one - 1e-12


@settings(max_examples=EXAMPLES // 2, deadline=None)
@given(seeds)
def test_signature_bounds_result(seed):
    """Query signatures are syntactic upper bounds of result coordinates."""
    inst = small(seed, n_queries=1)
    sig = query_signature_factored(inst.q)
    product = set(itertools.product(*sig.sets))
    result = evaluate(inst.q)
    for i in range(result.size):
        assert tuple(int(x) for x in result.coords[i]) in product


@settings(max_examples=EXAMPLES // 2, deadline=None)
@given(seeds)
def test_factored_membership_is_product_membership(seed):
    inst = small(seed, n_queries=1)
    sig = condition_signature(inst.q.condition, inst.cube)
    mat = set(itertools.product(*sig.sets))
    import random as _random

    rnd = _random.Random(seed)
    domains = [range(d.size(d.base_level)) for d in inst.cube.dims]
    for _ in range(50):
        coords = tuple(rnd.choice(dom) for dom in domains)
        assert (coords in mat) == all(c in ids
                                      for c, ids in zip(coords, sig.sets))


@settings(max_examples=EXAMPLES // 2, deadline=None)
@given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8,
                unique=True))
def test_label_domain_distance_axioms(labels):
    domain = LabelDomain(tuple(labels), "ordinal")
    for a in labels:
        for b in labels:
            d = domain.distance(a, b)
            assert 0.0 <= d <= 1.0
            assert d == domain.distance(b, a)
            assert (d == 0.0) == (a == b)
    nominal = LabelDomain(tuple(labels), "nominal")
    with pytest.raises(NominalLooseUnsupported):
        nominal.distance(labels[0], labels[0])


# --- expectation loaders --------------------------------------------------------------

@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds, st.randoms(use_true_random=False),
       st.sampled_from([0.0, 0.05, 0.2]))
def test_expectation_loaders_return_reference_or_raise(seed, rnd, flaw_rate):
    """Flawed files raise a CubeInterestError; any other file loads as the
    plain-csv reference reads it."""
    inst = small(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_expectation_file(Path(tmp) / "expected.csv", inst, rnd,
                                      flaw_rate)
        check_expectation_loaders(path, inst)
