import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest

import oracles
from conftest import build_instance, cellset_to_labels, spec_to_query
from cubeinterest.context import HistoryEntry, SessionContext
from cubeinterest.engine import (
    AtomicFilter,
    Cell,
    CubeQuery,
    DetailedCube,
    FactoredSignature,
    SelectionCondition,
    cell_distance,
    condition_signature,
    detailed_area,
    detailed_area_keys,
    detailed_proxy,
    detailed_signature,
    evaluate,
    load_facts,
    pack_keys,
    query_signature_factored,
    selection_mask,
)
from cubeinterest.errors import (
    DimensionMismatch,
    DuplicateCoordinates,
    UnknownLevel,
    UnknownMeasure,
    UnknownMember,
)
from cubeinterest.harness import generate_star_data, interestingness_vector
from cubeinterest.mdm import dimension_from_rows
from cubeinterest.novelty import pden, pdsn, same_level_novelty
from cubeinterest.peculiarity import query_distance_components, value_peculiarity
from cubeinterest import engine, qlang


@pytest.fixture(scope="module")
def tiny():
    geo = dimension_from_rows("Geo", ["City", "Country"], [
        ("Athens", "Greece"), ("Thessaloniki", "Greece"),
        ("Paris", "France"), ("Lyon", "France"),
    ])
    date = dimension_from_rows("Date", ["Month", "Year"], [
        ("1996-01", "1996"), ("1996-02", "1996"),
        ("1997-01", "1997"), ("1997-02", "1997"),
    ])
    coords, vals = [], []
    for c in range(4):
        for m in range(4):
            coords.append((c, m))
            vals.append((float(10 * c + m),))
    cube = DetailedCube((geo, date), ("Amt",),
                        np.array(coords, dtype=np.int32), np.array(vals))
    return cube


def test_detailed_proxy_year_to_days(pkdd_cube):
    q = qlang.parse_query(
        "SELECT avg(Amt) BY Account.District WHERE Date.Year IN {1996}",
        pkdd_cube)
    proxy = detailed_proxy(q)
    assert proxy.groupers == pkdd_cube.base_levels()
    atom = proxy.condition.atom_for("Date")
    assert atom.level == "Day"
    assert len(atom.values) == 366  # 1996 is a leap year
    date = pkdd_cube.dim("Date")
    labels = {date.label_of("Day", v) for v in atom.values}
    assert min(labels) == "1996-01-01" and max(labels) == "1996-12-31"


def test_detailed_proxy_empty_condition(tiny):
    q = qlang.parse_query("SELECT sum(Amt) BY Geo.Country", tiny)
    proxy = detailed_proxy(q)
    assert proxy.condition.is_empty
    assert proxy.groupers == ("City", "Month")


def test_detailed_proxy_selects_same_rows(tiny):
    q = qlang.parse_query(
        "SELECT sum(Amt) BY Geo.Country WHERE Date.Year IN {1996} "
        "AND Geo.Country IN {Greece}", tiny)
    assert np.array_equal(selection_mask(q), selection_mask(detailed_proxy(q)))


def test_condition_signature_rejects_ids_outside_the_level(tiny):
    """A hand-built condition is not checked against a cube, so the
    signature checks its ids: one outside the level raises UnknownMember."""
    for bad in (2, -1):
        cond = SelectionCondition((AtomicFilter("Date", "Year", frozenset({0, bad})),))
        with pytest.raises(UnknownMember, match=re.escape(f"ids [{bad}]")):
            condition_signature(cond, tiny)


def test_condition_signature_shapes(tiny):
    cond = qlang.parse_condition("Geo.City IN {Athens}", tiny)
    detailed = condition_signature(cond, tiny)
    assert detailed.levels == ("City", "Month")
    assert detailed.size == 1 * 4
    empty = condition_signature(SelectionCondition(), tiny)
    assert empty.size == 16


def test_atom_dimension_matches_ignoring_case():
    """An atom naming its dimension in another case selects, signs, scores
    and prints as the canonical atom does, and counts as the same
    dimension."""
    cube = generate_star_data(2000, 7).cube()
    r1 = frozenset({cube.dim("Account").member("Region", "R1").id})

    def query(name):
        return CubeQuery(cube, SelectionCondition(
            (AtomicFilter(name, "Region", r1),)), ("Region", "ALL", "ALL"),
            (("sum", "Amt"),))

    lower, canon = query("account"), query("Account")
    assert lower.same_definition(canon)
    assert selection_mask(lower).sum() == selection_mask(canon).sum() == 291
    sig, ref = detailed_signature(lower), detailed_signature(canon)
    assert sig.size == ref.size == 4_732_992
    assert all(np.array_equal(a, b) for a, b in zip(sig.sets, ref.sets))
    assert pdsn(lower, [canon])[0] == pden(lower, [canon])[0] == 0.0
    assert qlang.print_query(lower) == qlang.print_query(canon)
    assert " WHERE " in qlang.print_query(lower)
    assert query_distance_components(lower, canon) == (0.0, 0.0, 0.0)
    with pytest.raises(DimensionMismatch):
        SelectionCondition((AtomicFilter("Account", "Region", r1),
                            AtomicFilter("account", "Region", r1)))


def test_condition_signature_year_expansion(pkdd_cube):
    cond = qlang.parse_condition("Date.Year IN {1996}", pkdd_cube)
    sig = condition_signature(cond, pkdd_cube)
    date_set = sig.sets[pkdd_cube.dim_index("Date")]
    assert len(date_set) == 366
    account_set = sig.sets[pkdd_cube.dim_index("Account")]
    assert len(account_set) == pkdd_cube.dim("Account").size("Account")


def _signature_labels(sig) -> list[tuple[str, ...]]:
    """Labels of every coordinate in the product of a signature's sets."""
    return [tuple(d.label_of(lv, int(i))
                  for d, lv, i in zip(sig.dims, sig.levels, ids))
            for ids in itertools.product(*sig.sets)]


def test_query_signature_collapses_to_country(tiny):
    q = qlang.parse_query(
        "SELECT avg(Amt) BY Geo.Country WHERE Geo.City IN "
        "{Athens, Thessaloniki}", tiny)
    sig = query_signature_factored(q)
    assert sig.size == 1  # both cities roll to Greece, Date collapses to all
    assert _signature_labels(sig) == [("Greece", "all")]


def test_query_signature_unfiltered_base(tiny):
    q = qlang.parse_query("SELECT avg(Amt) BY Geo.City, Date.Month", tiny)
    sig = query_signature_factored(q)
    assert sig.size == 16
    assert len(set(_signature_labels(sig))) == 16


def test_query_signature_matches_enumeration_oracle(pkdd_cube, pkdd_query):
    sig = query_signature_factored(pkdd_query)
    account = pkdd_cube.dim("Account")
    date = pkdd_cube.dim("Date")
    districts = account.size("District")
    assert sig.size == districts * 1 * 12
    got = set(_signature_labels(sig))
    expected = {
        (account.label_of("District", d), "all", f"1996-{m:02d}")
        for d in range(districts) for m in range(1, 13)}
    assert got == expected


def test_evaluate_single_row_to_all(tiny):
    geo, date = tiny.dims
    cube = DetailedCube((geo, date), ("Amt",),
                        np.array([[0, 0]], dtype=np.int32),
                        np.array([[42.0]]))
    q = qlang.parse_query("SELECT sum(Amt) BY Geo.ALL", cube)
    res = evaluate(q)
    assert res.size == 1
    assert res.measures["sum(Amt)"][0] == 42.0


def test_evaluate_empty_selection():
    geo = dimension_from_rows("Geo", ["City", "Country"], [
        ("Athens", "Greece"), ("Paris", "France"),
    ])
    date = dimension_from_rows("Date", ["Month", "Year"], [
        ("1996-01", "1996"), ("1997-01", "1997"),
    ])
    # Athens only has 1996 facts; filtering 1997 selects nothing.
    cube = DetailedCube((geo, date), ("Amt",),
                        np.array([[0, 0], [1, 1]], dtype=np.int32),
                        np.array([[1.0], [2.0]]))
    q = qlang.parse_query(
        "SELECT sum(Amt) BY Geo.Country WHERE Geo.City IN {Athens} "
        "AND Date.Year IN {1997}", cube)
    res = evaluate(q)
    assert res.size == 0
    assert res.measures["sum(Amt)"].shape == (0,)


def test_evaluate_matches_two_pass_oracle(pkdd_cube, pkdd_history):
    q1 = pkdd_history[0]
    res = cellset_to_labels(evaluate(q1))
    # naive re-implementation: filter rows, hash-group, average
    account = pkdd_cube.dim("Account")
    date = pkdd_cube.dim("Date")
    status = pkdd_cube.dim("Status")
    groups = {}
    for i in range(len(pkdd_cube)):
        acc, st, day = pkdd_cube.coords[i]
        district = account.anc(account.member_by_id("Account", acc),
                               "District").label
        year = date.anc(date.member_by_id("Day", day), "Year").label
        st_label = status.label_of("Status", st)
        if district != "Prague" or st_label != "A" or year not in ("1995", "1996"):
            continue
        month = date.anc(date.member_by_id("Day", day), "Month").label
        groups.setdefault((district, "all", month), []).append(
            pkdd_cube.values[i, 0])
    expected = {k: math.fsum(v) / len(v) for k, v in groups.items()}
    assert set(res) == set(expected)
    for key, cell in res.items():
        assert cell["avg(Amt)"] == pytest.approx(expected[key], rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_evaluate_matches_oracle_random(seed):
    inst = build_instance(seed)
    for spec, query in zip(inst.specs, inst.queries):
        got = cellset_to_labels(evaluate(query))
        expected = oracles.evaluate(inst.ocube, spec)
        assert set(got) == set(expected)
        for key in got:
            for name, value in expected[key].items():
                assert got[key][name] == pytest.approx(
                    value, rel=1e-9, abs=1e-9), (key, name)


def test_rollup_commutation(pkdd_cube, pkdd_query):
    """Re-aggregating the detailed area by mapped coordinates reproduces the
    evaluated result (sum/count exactly, avg via sum/count)."""
    area = detailed_area(pkdd_query)
    q_sums = qlang.parse_query(
        "SELECT sum(Amt), count(Amt) BY Account.District, Date.Month "
        "WHERE Date.Year IN {1996}", pkdd_cube)
    res = cellset_to_labels(evaluate(q_sums))
    account, status, date = pkdd_cube.dims
    regrouped: dict[tuple, list[float]] = {}
    for i in range(area.size):
        acc, st, day = area.coords[i]
        key = (account.anc(account.member_by_id("Account", acc), "District").label,
               "all",
               date.anc(date.member_by_id("Day", day), "Month").label)
        regrouped.setdefault(key, []).append(float(area.measures["avg(Amt)"][i]))
    assert set(regrouped) == set(res)
    for key, values in regrouped.items():
        assert res[key]["sum(Amt)"] == pytest.approx(math.fsum(values), rel=1e-12)
        assert res[key]["count(Amt)"] == len(values)


def test_detailed_area_matches_evaluated_proxy(pkdd_cube):
    """`detailed_area(q)` (q at base levels) gives the cells of the old path,
    `evaluate(detailed_proxy(q))`: the same levels, coordinates in the same
    order and every measure, for each aggregate function and for an empty
    selection."""
    aggs = ", ".join(f"{fn}(Amt)" for fn in engine.AGG_FUNCTIONS)
    for where in ("Date.Year IN {1996} AND Status.Status IN {A, B}",
                  "Account.District IN {Prague, Brno}",
                  "Account.Account IN {A1001} AND Date.Day IN {1996-01-02}",
                  None):
        q = qlang.parse_query(f"SELECT {aggs} BY Account.District"
                              + (f" WHERE {where}" if where else ""), pkdd_cube)
        got, ref = detailed_area(q), evaluate(detailed_proxy(q))
        assert got.levels == ref.levels == pkdd_cube.base_levels()
        assert np.array_equal(got.coords, ref.coords)
        assert list(got.measures) == list(ref.measures) == list(q.aggregate_labels())
        for name, col in ref.measures.items():
            assert np.array_equal(got.measures[name], col), (where, name)
        assert (got.size == 0) == (where is not None and "A1001" in where)


def _row_keys(q) -> list:
    """Sorted packed base-level keys of the fact rows `detailed_area_keys`
    returns for q."""
    cube = q.cube
    return sorted(pack_keys(cube.coords[detailed_area_keys(q)],
                            [d.size(d.base_level) for d in cube.dims]))


def test_detailed_area_unfiltered_is_all_rows(tiny):
    q = qlang.parse_query("SELECT avg(Amt) BY Geo.Country", tiny)
    area = detailed_area(q)
    assert area.size == len(tiny)
    assert sorted(area.packed_keys()) == _row_keys(q)


def test_detailed_area_keys_equal_aggregated_area(pkdd_cube, pkdd_history):
    # the selected rows must be the cells of evaluate(detailed_proxy(q))
    for q in pkdd_history:
        area = detailed_area(q)
        assert sorted(area.packed_keys()) == _row_keys(q)


def test_detailed_area_containment_reference(pkdd_query, pkdd_history, pkdd_cube):
    q_keys = set(detailed_area_keys(pkdd_query))
    q4 = pkdd_history[3]
    assert set(detailed_area_keys(q4)) <= q_keys
    q2 = pkdd_history[1]
    assert not (set(detailed_area_keys(q2)) & q_keys)
    q1_keys = set(detailed_area_keys(pkdd_history[0]))
    assert set(detailed_area_keys(q2)) <= q1_keys


def test_entry_hits_match_isin(pkdd_query, pkdd_history, pkdd_cube):
    """`HistoryEntry.hits` marks one bool per row of the entry, True iff
    the other entry selects it, including against an empty selection and
    a selection disjoint from q's; the probe is kept on the entry."""
    empty = qlang.parse_query(
        "SELECT avg(Amt) BY Account.District WHERE Account.Account IN {A1001}"
        " AND Date.Day IN {1996-01-02}", pkdd_cube)
    mine = HistoryEntry(pkdd_query)
    others = [HistoryEntry(qi) for qi in [*pkdd_history, empty]]
    assert others[-1].rows.size == 0
    disjoint = [o for o in others
                if o.rows.size and not np.isin(mine.rows, o.rows).any()]
    assert disjoint  # the fixture history holds one (see the test above)
    for other in others:
        got = mine.hits(other)
        assert got.dtype == bool and got.tolist() == \
            np.isin(mine.rows, other.rows).tolist()
        assert mine.hits(other) is got
    assert not mine.hits(others[-1]).any()
    assert not mine.hits(disjoint[0]).any()
    assert not HistoryEntry(empty).hits(mine).size


def test_selection_mask_matches_row_oracle():
    """One member-table lookup per atom selects exactly the rows the
    label-walk oracle matches: on each random micro-instance's queries and
    on one atom at every level of every dimension, ALL included."""
    for seed in range(100):
        inst = build_instance(seed)
        rnd = random.Random(seed)
        specs = list(inst.specs)
        first = inst.specs[0]
        for odim in inst.ocube.dims:
            for level in odim.levels:
                labels = odim.members[level]
                picked = rnd.sample(labels, rnd.randint(1, len(labels)))
                specs.append(dataclasses.replace(
                    first, atoms=((odim.name, level, frozenset(picked)),)))
        for spec in specs:
            expected = [oracles.row_matches(inst.ocube, spec, coords)
                        for coords, _ in inst.ocube.rows]
            got = selection_mask(spec_to_query(inst.cube, spec))
            assert got.tolist() == expected, (seed, spec.atoms)


@pytest.mark.parametrize("block", [None, 777])
def test_selection_mask_star_every_level(monkeypatch, block):
    """On the star cube: single atoms at every level of every dimension
    (ALL included) with one, some and all members, random multi-atom
    conditions and the empty condition agree with the rows whose ancestor
    at each atom's level is among the atom's values, with the cube in one
    block and in many blocks, the last one partial."""
    if block is not None:
        monkeypatch.setattr(engine, "_MASK_BLOCK", block)
    cube = generate_star_data(20_000, 7).cube()
    rnd = random.Random(3)
    per_dim = []
    for dim in cube.dims:
        atoms = []
        for lv in dim.levels:
            n = dim.size(lv)
            for k in sorted({1, max(1, n // 2), n}):
                atoms.append(AtomicFilter(dim.name, lv.name, frozenset(
                    rnd.sample(range(n), k))))
        per_dim.append(atoms)

    def expected(atoms):
        mask = np.ones(len(cube), dtype=bool)
        for a in atoms:
            j = cube.dim_index(a.dimension)
            dim = cube.dims[j]
            up = dim.ancestor_map(0, dim.level(a.level).depth)[cube.coords[:, j]]
            mask &= np.isin(up, list(a.values))
        return mask

    conditions = [()] + [(a,) for atoms in per_dim for a in atoms]
    for _ in range(30):
        dims = rnd.sample(range(len(cube.dims)), rnd.randint(2, len(cube.dims)))
        conditions.append(tuple(rnd.choice(per_dim[j]) for j in dims))
    for atoms in conditions:
        q = CubeQuery(cube, SelectionCondition(atoms), cube.base_levels(),
                      (("sum", "Amt"),))
        assert np.array_equal(selection_mask(q), expected(atoms)), atoms


def test_factored_membership_matches_product(tiny):
    cond = qlang.parse_condition(
        "Geo.City IN {Athens, Paris} AND Date.Year IN {1996}", tiny)
    sig = condition_signature(cond, tiny)
    product = set(itertools.product(*sig.sets))
    geo, date = tiny.dims
    for city in range(4):
        for month in range(4):
            selected = (geo.label_of("City", city) in ("Athens", "Paris")
                        and date.label_of("Month", month).startswith("1996"))
            assert ((city, month) in product) == selected
    assert sig.size == len(product)


@pytest.fixture(scope="module")
def box_schema():
    dims = tuple(dimension_from_rows(name, [name],
                                     [(f"{name}{i}",) for i in range(n)])
                 for name, n in (("A", 5), ("B", 4), ("C", 6)))
    return dims, tuple(d.base_level.name for d in dims)


def test_coverage_matches_product(box_schema):
    """`coverage` gives the union's overlap, the sum of the per-box overlaps
    and the number of boxes holding the whole target, as product sets do."""
    dims, levels = box_schema
    sizes = [d.size(lv) for d, lv in zip(dims, levels)]
    rng = np.random.default_rng(0)

    def box(overlapping=None):
        sets = []
        for j, n in enumerate(sizes):
            ids = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            if overlapping is not None:
                ids = np.append(ids, rng.choice(overlapping.sets[j]))
            sets.append(np.unique(ids).astype(np.int32))
        return FactoredSignature(dims, levels, tuple(sets))

    def product(sig):
        return set(itertools.product(*(s.tolist() for s in sig.sets)))

    def check(target, others):
        union = set().union(*(product(o) for o in others))
        mine = product(target)
        assert target.coverage(others) == (
            len(mine & union),
            sum(len(mine & product(o)) for o in others),
            sum(mine <= product(o) for o in others))

    for n in range(31):
        target = box()
        check(target, [box(target if n % 2 else None) for _ in range(n)])
    for n in (13, 20, 30):  # many boxes, every one overlapping the target
        target = box()
        check(target, [box(target) for _ in range(n)])

    target = box()
    assert target.coverage([]) == (0, 0, 0)
    full = FactoredSignature(dims, levels, tuple(
        np.arange(n, dtype=np.int32) for n in sizes))
    assert target.coverage([box(), full, box()])[0] == target.size
    check(target, [box(), full, box()])
    assert target.coverage([full]) == (target.size, target.size, 1)
    assert target.coverage([full, target, full])[2] == 3
    hollow = FactoredSignature(dims, levels, (np.zeros(0, dtype=np.int32),)
                               + target.sets[1:])
    assert hollow.coverage([full]) == (0, 0, 1)
    check(hollow, [full, target])
    check(target, [hollow, full])
    assert hollow.coverage([full, target]) == (0, 0, 2)
    assert target.coverage([hollow]) == (0, 0, 0)


WIDE_DIMS, WIDE_BASE, WIDE_GROUPS = 7, 500, 10


@pytest.fixture(scope="module")
def wide():
    """1,000 fact rows over 7 dimensions of 500 base members each, which
    roll up to 10 groups: 500^7 base coordinates, more than one int64 word
    holds. Built through the package and as oracle structures."""
    rows_of = {f"W{j}": [(f"w{j}_{i}", f"g{j}_{i % WIDE_GROUPS}")
                         for i in range(WIDE_BASE)] for j in range(WIDE_DIMS)}
    levels = {name: [f"{name}B", f"{name}G"] for name in rows_of}
    dims = tuple(dimension_from_rows(name, levels[name], rows)
                 for name, rows in rows_of.items())
    ocube = oracles.OCube([oracles.ODim(name, levels[name], rows)
                           for name, rows in rows_of.items()], ["Amt"])
    rng = np.random.default_rng(7)
    coords = np.unique(rng.integers(0, WIDE_BASE, size=(1000, WIDE_DIMS)),
                       axis=0)
    amounts = np.round(rng.uniform(1.0, 1000.0, size=len(coords)), 2)
    for row, amt in zip(coords.tolist(), amounts.tolist()):
        ocube.add(tuple(rows_of[d.name][i][0] for d, i in zip(dims, row)),
                  Amt=amt)
    cube = DetailedCube(dims, ("Amt",), coords.astype(np.int32),
                        amounts.reshape(-1, 1))
    return cube, ocube


def _wide_spec(atoms, groupers, fn="avg"):
    """A query over the wide cube: (dimension number, groups) atoms at the
    group level, and one grouper level per dimension (B, G or ALL)."""
    return oracles.QSpec(
        tuple((f"W{j}", f"W{j}G", frozenset(f"g{j}_{g}" for g in groups))
              for j, groups in atoms),
        tuple("ALL" if lv == "ALL" else f"W{j}{lv}"
              for j, lv in enumerate(groupers)),
        ((fn, "Amt"),))


def test_pack_keys_order_rows_as_lexsort():
    """Keys are int64 while one word holds the coordinate space, else
    records of int64 words; either way they order rows as `np.lexsort`."""
    rng = np.random.default_rng(3)
    for sizes, words in (([77, 5000, 1826], 1), ([50_000] * 4, 2),
                         ([WIDE_BASE] * WIDE_DIMS, 2), ([3, 2 ** 61, 2 ** 40], 3)):
        coords = np.column_stack([rng.integers(0, s, size=2000) for s in sizes])
        keys = pack_keys(coords, sizes)
        assert (keys.dtype == np.int64 if words == 1
                else len(keys.dtype.names) == words), sizes
        assert np.array_equal(np.argsort(keys, kind="stable"),
                              np.lexsort(coords.T[::-1])), sizes


def test_wide_cube_scores_match_oracles(wide):
    """A cube wider than one packed word gets a full score vector, and its
    base-level results, extensional same-level novelty and value
    peculiarity match the oracles."""
    cube, ocube = wide
    base = ["B"] * WIDE_DIMS
    q_spec = _wide_spec([(0, [0]), (1, [0, 1])], base)
    specs = [_wide_spec([(0, [0]), (2, [0, 1, 2])], base),
             _wide_spec([(1, [1]), (3, [4])], base),
             _wide_spec([(0, [0, 1]), (1, [0])], ["G", "B"] + ["ALL"] * 5,
                        fn="sum")]
    q = spec_to_query(cube, q_spec)
    history = [spec_to_query(cube, s) for s in specs]
    for spec, query in zip([q_spec] + specs, [q] + history):
        got, expected = (cellset_to_labels(evaluate(query)),
                         oracles.evaluate(ocube, spec))
        assert got.keys() == expected.keys() and got
        for key, measures in expected.items():
            assert got[key] == pytest.approx(measures, rel=1e-9, abs=1e-9)
    got, part = same_level_novelty(q, history, "extensional")
    assert part.covered_count > 0
    assert got == pytest.approx(oracles.pslen(ocube, q_spec, specs),
                                rel=1e-9, abs=1e-9)

    mine = evaluate(q)
    results = [evaluate(h) for h in history]
    expected = [sum(fn(ocube, r.levels, [r.labels_row(i) for i in range(r.size)],
                       mine.levels,
                       [mine.labels_row(i) for i in range(mine.size)])
                    for r in results) / len(results)
                for fn in (oracles.closest_relative, oracles.hausdorff)]
    assert value_peculiarity(q, history) == pytest.approx(
        expected, rel=1e-9, abs=1e-9)

    ctx = SessionContext(cube)
    for i, h in enumerate(history):
        ctx.history.append(h, evaluate(h) if i % 2 else None)
    for i, cell in enumerate(itertools.islice(mine.iter_cells(), 3)):
        ctx.expected_values.register(tuple(zip(cell.levels, cell.ids)), "Amt",
                                     cell.measures["avg(Amt)"] + i + 1)
    report = interestingness_vector(q, ctx)
    assert None not in report.vector.values(), report.vector


def test_cell_distance_cases(tiny):
    geo, date = tiny.dims
    a = Cell(("City", "Month"), (0, 0))
    assert cell_distance(tiny.dims, a, a) == 0.0
    b = Cell(("City", "Month"), (2, 0))  # Athens vs Paris, same month
    assert cell_distance(tiny.dims, a, b) == pytest.approx(
        geo.value_distance(geo.member_by_id("City", 0),
                           geo.member_by_id("City", 2)) / 2)
    c = Cell(("City", "Month"), (2, 2))  # both dims maximally distant
    assert cell_distance(tiny.dims, a, c) == pytest.approx(
        (1.0 + 1.0) / 2)
    with pytest.raises(DimensionMismatch):
        cell_distance(tiny.dims, a, Cell(("City",), (0,)))


def test_cube_rejects_duplicates(tiny):
    with pytest.raises(DuplicateCoordinates):
        DetailedCube(tiny.dims, ("Amt",),
                     np.array([[0, 0], [0, 0]], dtype=np.int32),
                     np.array([[1.0], [2.0]]))


def test_query_validation(tiny):
    with pytest.raises(UnknownLevel):
        CubeQuery(tiny, SelectionCondition(), ("Planet", "Month"),
                  (("sum", "Amt"),))
    with pytest.raises(UnknownMeasure):
        CubeQuery(tiny, SelectionCondition(), ("Country", "Month"),
                  (("sum", "Qty"),))
    with pytest.raises(UnknownMeasure):
        CubeQuery(tiny, SelectionCondition(), ("Country", "Month"),
                  (("mode", "Amt"),))
    with pytest.raises(UnknownMember):
        CubeQuery(tiny, SelectionCondition(
            (AtomicFilter("Geo", "City", frozenset({99})),)),
            ("Country", "Month"), (("sum", "Amt"),))


def test_load_facts_roundtrip(tmp_path, tiny):
    path = tmp_path / "facts.csv"
    geo, date = tiny.dims
    lines = ["City,Month,Amt"]
    for i in range(len(tiny)):
        lines.append(f"{geo.label_of('City', tiny.coords[i, 0])},"
                     f"{date.label_of('Month', tiny.coords[i, 1])},"
                     f"{tiny.values[i, 0]}")
    path.write_text("\n".join(lines) + "\n")
    cube = load_facts(path, list(tiny.dims))
    assert len(cube) == len(tiny)
    assert cube.measures == ("Amt",)
    assert sorted(map(tuple, cube.coords.tolist())) == \
        sorted(map(tuple, tiny.coords.tolist()))
