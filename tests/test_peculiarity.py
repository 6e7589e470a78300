import dataclasses

import numpy as np
import pytest

import oracles
from conftest import build_instance
from cubeinterest.engine import CellSet, DetailedCube, cell_distance, evaluate
from cubeinterest.errors import (
    EmptyCollection,
    EmptyResult,
    KOutOfRange,
    PairLimitExceeded,
    SchemaMismatch,
)
from cubeinterest.mdm import dimension_from_rows
from cubeinterest.novelty import pden
from cubeinterest.peculiarity import (
    AggregationSpec,
    PAIR_CAP,
    DistanceWeights,
    closest_relative_distance,
    closest_relative_symmetric,
    directed_hausdorff,
    hausdorff_distance,
    jaccard_detailed_distance,
    jaccard_peculiarity,
    nearest_cell_distances,
    pairwise_cell_distances,
    query_distance,
    query_distance_components,
    syntactic_peculiarity,
    value_peculiarity,
)
from cubeinterest import qlang


@pytest.fixture(scope="module")
def geo_cube(geo_dimension):
    date = dimension_from_rows("Date", ["Month", "Year"], [
        ("1996-01", "1996"), ("1996-02", "1996"),
        ("1997-01", "1997"), ("1997-02", "1997"),
    ])
    n_cities = geo_dimension.size("City")
    coords = [(c, m) for c in range(n_cities) for m in range(4)]
    vals = [(float(i + 1),) for i in range(len(coords))]
    return DetailedCube((geo_dimension, date), ("Amt",),
                        np.array(coords, dtype=np.int32), np.array(vals))


def q_of(cube, text):
    return qlang.parse_query(text, cube)


def test_distance_weights_validation():
    DistanceWeights(0.5, 0.35, 0.15)
    with pytest.raises(ValueError):
        DistanceWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        DistanceWeights(-0.2, 0.7, 0.5)


def test_reference_table_distances(pkdd_query, pkdd_history):
    expected = [(1.0, 0.5), (1.0, 0.5), (1.0, 0.5), (2 / 3, 1 / 3)]
    for qi, (dphi, total) in zip(pkdd_history, expected):
        got_phi, got_level, got_meas = query_distance_components(pkdd_query, qi)
        assert got_phi == pytest.approx(dphi, abs=0.005)
        assert got_level == 0.0
        assert got_meas == 0.0
        assert query_distance(pkdd_query, qi) == pytest.approx(total, abs=0.005)


def test_query_distance_identity_symmetry(pkdd_query, pkdd_history):
    assert query_distance(pkdd_query, pkdd_query) == 0.0
    for qi in pkdd_history:
        assert query_distance(pkdd_query, qi) == \
            query_distance(qi, pkdd_query)


def test_query_distance_level_and_measure_components(geo_cube):
    qa = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City, Date.Month")
    qb = q_of(geo_cube, "SELECT sum(Amt) BY Geo.Country, Date.Month")
    dphi, dlevel, dmeas = query_distance_components(qa, qb)
    assert dphi == 0.0
    assert dlevel == pytest.approx((1 / 3) / 2)  # one-level gap on Geo only
    assert dmeas == 1.0  # disjoint aggregate sets
    qc = q_of(geo_cube, "SELECT avg(Amt), sum(Amt) BY Geo.City, Date.Month")
    _, _, dmeas_partial = query_distance_components(qa, qc)
    assert dmeas_partial == 0.5


def test_query_distance_schema_mismatch(geo_cube, pkdd_cube):
    qa = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City")
    qb = q_of(pkdd_cube, "SELECT avg(Amt) BY Account.District")
    with pytest.raises(SchemaMismatch):
        query_distance(qa, qb)


def test_syntactic_peculiarity_reference_average(pkdd_query, pkdd_history):
    score = syntactic_peculiarity(pkdd_query, pkdd_history)
    assert score == pytest.approx(0.46, abs=0.005)


def test_syntactic_peculiarity_aggregations(pkdd_query, pkdd_history):
    knn1 = syntactic_peculiarity(pkdd_query, pkdd_history,
                                 AggregationSpec("knn", 1))
    knn4 = syntactic_peculiarity(pkdd_query, pkdd_history,
                                 AggregationSpec("knn", 4))
    assert knn1 == syntactic_peculiarity(pkdd_query, pkdd_history,
                                         AggregationSpec("min"))
    assert knn4 == syntactic_peculiarity(pkdd_query, pkdd_history,
                                         AggregationSpec("max"))
    med = syntactic_peculiarity(pkdd_query, pkdd_history,
                                AggregationSpec("median"))
    assert knn1 <= med <= knn4


def test_syntactic_peculiarity_self_collection(pkdd_query):
    assert syntactic_peculiarity(pkdd_query, [pkdd_query]) == 0.0


def test_syntactic_peculiarity_errors(pkdd_query, pkdd_history):
    with pytest.raises(EmptyCollection):
        syntactic_peculiarity(pkdd_query, [])
    with pytest.raises(KOutOfRange):
        syntactic_peculiarity(pkdd_query, pkdd_history,
                              AggregationSpec("knn", 5))
    with pytest.raises(KOutOfRange):
        AggregationSpec("knn", 0)


def test_closest_relative_identical(geo_cube):
    q = q_of(geo_cube, "SELECT avg(Amt) BY Geo.Country, Date.Year")
    cells = evaluate(q)
    assert closest_relative_distance(cells, cells) == 0.0
    assert hausdorff_distance(cells, cells) == 0.0


def test_closest_relative_singletons(geo_cube):
    # cells differing only by Athens vs Canada on Geo: (5/6)/2
    qa = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City, Date.Year "
                        "WHERE Geo.City IN {Athens} AND Date.Year IN {1996}")
    qb = q_of(geo_cube, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                        "WHERE Geo.Country IN {Canada} AND Date.Year IN {1996}")
    a, b = evaluate(qa), evaluate(qb)
    assert a.size == b.size == 1
    assert closest_relative_distance(a, b) == pytest.approx(5 / 12)
    assert hausdorff_distance(a, b) == pytest.approx(5 / 12)


def test_closest_relative_directed(geo_cube):
    qa = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City WHERE "
                        "Geo.City IN {Athens}")
    qb = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City WHERE "
                        "Geo.City IN {Athens, Toronto}")
    a, b = evaluate(qa), evaluate(qb)
    d_ab = closest_relative_distance(a, b)
    d_ba = closest_relative_distance(b, a)
    assert d_ab == 0.0           # every cell of a appears in b
    assert d_ba == pytest.approx(0.25)  # Toronto pairs with Athens at 1/2
    sym = closest_relative_symmetric(a, b)
    assert sym == pytest.approx((d_ab + d_ba) / 2)


def test_cell_set_distances_match_oracle(geo_cube, geo_oracle):
    qa = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City, Date.Year "
                        "WHERE Geo.City IN {Athens, Paris}")
    qb = q_of(geo_cube, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                        "WHERE Geo.Country IN {Canada, Italy, Greece}")
    a, b = evaluate(qa), evaluate(qb)
    date_o = oracles.ODim("Date", ["Month", "Year"], [
        ("1996-01", "1996"), ("1996-02", "1996"),
        ("1997-01", "1997"), ("1997-02", "1997"),
    ])
    ocube = oracles.OCube([geo_oracle, date_o], ["Amt"])
    cells_a = [a.labels_row(i) for i in range(a.size)]
    cells_b = [b.labels_row(i) for i in range(b.size)]
    assert closest_relative_distance(a, b) == pytest.approx(
        oracles.closest_relative(ocube, a.levels, cells_a, b.levels, cells_b))
    assert hausdorff_distance(a, b) == pytest.approx(
        oracles.hausdorff(ocube, a.levels, cells_a, b.levels, cells_b))
    matrix = pairwise_cell_distances(a, b)
    for i, ca in enumerate(a.iter_cells()):
        for j, cb in enumerate(b.iter_cells()):
            # bit-identical to the member-pair path
            assert matrix[i, j] == cell_distance(a.dims, ca, cb)
            assert matrix[i, j] == pytest.approx(oracles.cell_distance(
                ocube, a.levels, cells_a[i], b.levels, cells_b[j]))
    a_to_b, b_to_a = nearest_cell_distances(a, b)
    assert np.array_equal(a_to_b, matrix.min(axis=1))
    assert np.array_equal(b_to_a, matrix.min(axis=0))


def test_hausdorff_containment_direction(geo_cube):
    qa = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City WHERE "
                        "Geo.City IN {Athens, Paris}")
    qb = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City WHERE "
                        "Geo.City IN {Athens, Paris, Toronto}")
    a, b = evaluate(qa), evaluate(qb)
    h_ab = directed_hausdorff(a, b)
    h_ba = directed_hausdorff(b, a)
    assert h_ab <= h_ba
    assert hausdorff_distance(a, b) == h_ba
    # same-direction bound: max of the min-pair distances >= their mean
    assert directed_hausdorff(a, b) >= closest_relative_distance(a, b)
    assert directed_hausdorff(b, a) >= closest_relative_distance(b, a)


def test_pair_cap_and_empty(geo_cube):
    cells = evaluate(q_of(geo_cube, "SELECT avg(Amt) BY Geo.City, Date.Month"))
    # the cap is checked before any allocation, so the coordinates need not
    # be distinct
    big_a = CellSet(cells.dims, cells.levels, np.zeros((1001, 2)))
    big_b = CellSet(cells.dims, cells.levels, np.zeros((1000, 2)))
    assert big_a.size * big_b.size > PAIR_CAP
    with pytest.raises(PairLimitExceeded):
        pairwise_cell_distances(big_a, big_b)
    empty = CellSet(cells.dims, cells.levels, np.zeros((0, 2)))
    with pytest.raises(EmptyResult):
        hausdorff_distance(cells, empty)


def test_value_peculiarity_self(geo_cube):
    q = q_of(geo_cube, "SELECT avg(Amt) BY Geo.Country")
    assert value_peculiarity(q, [q]) == (0.0, 0.0)
    with pytest.raises(EmptyCollection):
        value_peculiarity(q, [])


def test_value_peculiarity_maximally_distant_bound(geo_cube):
    # singleton results maximally apart on every dimension: distance hits 1
    q = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City, Date.Month WHERE "
                       "Geo.City IN {Athens} AND Date.Month IN {1996-01}")
    far = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City, Date.Month WHERE "
                         "Geo.City IN {Toronto} AND Date.Month IN {1997-02}")
    got, _ = value_peculiarity(q, [far], agg=AggregationSpec("min"))
    assert got == pytest.approx(1.0)


def test_value_peculiarity_composed_oracle(geo_cube, geo_oracle):
    q = q_of(geo_cube, "SELECT avg(Amt) BY Geo.City WHERE "
                       "Geo.City IN {Athens, Rome}")
    history = [
        q_of(geo_cube, "SELECT avg(Amt) BY Geo.City WHERE Geo.City IN {Paris}"),
        q_of(geo_cube, "SELECT avg(Amt) BY Geo.City WHERE "
                       "Geo.City IN {Toronto, Montreal}"),
        q_of(geo_cube, "SELECT avg(Amt) BY Geo.City WHERE Geo.City IN {Athens}"),
    ]
    date_o = oracles.ODim("Date", ["Month", "Year"], [
        ("1996-01", "1996"), ("1996-02", "1996"),
        ("1997-01", "1997"), ("1997-02", "1997"),
    ])
    ocube = oracles.OCube([geo_oracle, date_o], ["Amt"])
    mine = evaluate(q)
    mine_cells = [mine.labels_row(i) for i in range(mine.size)]
    dists = []
    for qi in history:
        r = evaluate(qi)
        cells = [r.labels_row(i) for i in range(r.size)]
        dists.append(oracles.hausdorff(
            ocube, r.levels, cells, mine.levels, mine_cells))
    expected = sum(dists) / len(dists)
    _, got = value_peculiarity(q, history, agg=AggregationSpec("average"))
    assert got == pytest.approx(expected)
    got_min, _ = value_peculiarity(q, history, agg=AggregationSpec("min"))
    assert got_min == pytest.approx(min(
        oracles.closest_relative(
            ocube, (r := evaluate(qi)).levels,
            [r.labels_row(i) for i in range(r.size)],
            mine.levels, mine_cells)
        for qi in history))


def test_jaccard_reference(pkdd_query, pkdd_history):
    assert jaccard_peculiarity(pkdd_query, pkdd_history, k=2) == \
        pytest.approx(0.94, abs=0.005)
    jds = sorted(jaccard_detailed_distance(pkdd_query, qi)
                 for qi in pkdd_history)
    assert jds == pytest.approx([0.90, 0.94, 0.98, 1.00], abs=0.005)


def test_jaccard_self_and_bounds(pkdd_query, pkdd_history):
    assert jaccard_peculiarity(pkdd_query, [pkdd_query], k=1) == 0.0
    with pytest.raises(KOutOfRange):
        jaccard_peculiarity(pkdd_query, pkdd_history, k=5)
    with pytest.raises(EmptyCollection):
        jaccard_peculiarity(pkdd_query, [], k=1)


def test_jaccard_knn_monotone_in_k(pkdd_query, pkdd_history):
    values = [jaccard_peculiarity(pkdd_query, pkdd_history, k=k)
              for k in range(1, 5)]
    assert values == sorted(values)


def test_jaccard_matches_set_oracle_random():
    for seed in range(25):
        inst = build_instance(seed)
        if not inst.history:
            continue
        for qi, spec in zip(inst.history, inst.history_specs):
            got = jaccard_detailed_distance(inst.q, qi)
            expected = oracles.jaccard_distance(inst.ocube, inst.q_spec, spec)
            assert got == pytest.approx(expected, abs=1e-12)


def test_detailed_areas_compare_over_one_cube_object():
    """Detailed areas are row ids, which compare only over one cube object:
    a history query over a second cube built from the same dimensions,
    coordinates and values is refused, and over one cube the row-id
    metrics agree with the set oracle."""
    for seed in range(25):
        inst = build_instance(seed)
        if not inst.history:
            continue
        cube = inst.cube
        twin = DetailedCube(cube.dims, cube.measures, cube.coords, cube.values)
        other = dataclasses.replace(inst.history[0], cube=twin)
        for call in (lambda: pden(inst.q, [other]),
                     lambda: jaccard_peculiarity(inst.q, [other]),
                     lambda: jaccard_detailed_distance(inst.q, other)):
            with pytest.raises(SchemaMismatch):
                call()
        distances = [oracles.jaccard_distance(inst.ocube, inst.q_spec, spec)
                     for spec in inst.history_specs]
        assert jaccard_peculiarity(inst.q, inst.history) == \
            pytest.approx(min(distances), abs=1e-12)
        for qi, expected in zip(inst.history, distances):
            assert jaccard_detailed_distance(inst.q, qi) == \
                pytest.approx(expected, abs=1e-12)
        assert pden(inst.q, inst.history)[0] == pytest.approx(
            oracles.pden(inst.ocube, inst.q_spec, inst.history_specs),
            abs=1e-12)


def test_query_distance_matches_oracle_random():
    for seed in range(25):
        inst = build_instance(seed)
        for qi, spec in zip(inst.history, inst.history_specs):
            got = query_distance(inst.q, qi)
            expected = oracles.query_distance(inst.ocube, inst.q_spec, spec)
            assert got == pytest.approx(expected, abs=1e-12)
