import random
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from cubeinterest.context import (
    BeliefStatement,
    BeliefStore,
    ExpectedLabels,
    ExpectedValues,
    ValueInterval,
    cell_anchor,
    load_expected_values,
)
from cubeinterest.engine import CellSet, evaluate
from cubeinterest.errors import (
    NoExpectedValues,
    NominalLooseUnsupported,
    UnknownMeasure,
    UnlabeledValue,
)
from cubeinterest.mdm import dimension_from_rows
from cubeinterest.surprise import (
    LabelDomain,
    LabelingScheme,
    SurpriseConfig,
    cell_value_surprise,
    cube_prob_label_surprise,
    cube_probability_surprise,
    label_surprise,
    normalized_value_surprise,
    prob_label_surprise,
    probability_surprise,
    strict_label_surprise,
    value_surprise,
)
from cubeinterest import qlang
from conftest import PKDD


WORK_RULES = ("WorkHours: [0..15) -> Bad\n"
              "WorkHours: [15..20] -> OK\n"
              "WorkHours: (20..40] -> Good\n"
              "ORDER Bad < OK < Good\n")


@pytest.fixture(scope="module")
def work_scheme():
    schemes, domain = qlang.parse_label_rules(WORK_RULES)
    return schemes, domain


# --- cell value surprise -----------------------------------------------------------

def test_cell_value_surprise_zero_and_gap():
    assert cell_value_surprise({"avg(WorkHours)": 19.0},
                               {"WorkHours": 19.0}) == 0.0
    assert cell_value_surprise({"avg(Amt)": 29448.0},
                               {"Amt": 20048.0}) == 9400.0


def test_cell_value_surprise_two_measures_max():
    measures = {"avg(Amt)": 10.0, "sum(Qty)": 100.0}
    expected = {"Amt": 14.0, "Qty": 99.0}
    assert cell_value_surprise(measures, expected, cell_agg="max") == 4.0
    assert cell_value_surprise(measures, expected, cell_agg="min") == 1.0
    assert cell_value_surprise(measures, expected, cell_agg="sum") == 5.0


def test_cell_value_surprise_requires_a_match():
    with pytest.raises(NoExpectedValues):
        cell_value_surprise({"avg(Amt)": 1.0}, {"Qty": 2.0})


# --- cube value surprise -----------------------------------------------------------

def test_reference_normalized_value_surprise(pkdd_cube, pkdd_query):
    expected = load_expected_values(PKDD / "expected_values.csv", pkdd_cube)
    result = evaluate(pkdd_query)
    raw = value_surprise(result, expected,
                         SurpriseConfig(cell_agg="max", cube_agg="mean"))
    assert raw == pytest.approx(2350.0)  # (9400+0+0+0)/4
    norm = normalized_value_surprise(result, expected)
    assert norm == pytest.approx(0.25, abs=0.005)


def test_value_surprise_all_exact(pkdd_cube, pkdd_query):
    result = evaluate(pkdd_query)
    expected = ExpectedValues()
    for cell in result.iter_cells():
        expected.register(cell_anchor(cell.levels, cell.ids), "Amt",
                          cell.measures["avg(Amt)"])
    assert value_surprise(result, expected) == 0.0
    assert normalized_value_surprise(result, expected) == 0.0


def test_value_surprise_no_match_is_none(pkdd_query):
    result = evaluate(pkdd_query)
    assert value_surprise(result, ExpectedValues()) is None
    assert normalized_value_surprise(result, ExpectedValues()) is None


def test_normalized_value_surprise_matches_oracle(pkdd_cube, pkdd_query):
    expected = load_expected_values(PKDD / "expected_values.csv", pkdd_cube)
    result = evaluate(pkdd_query)
    cells = list(result.iter_cells())
    for both in (False, True):
        if both:  # one anchor expects under the base measure and the column
            anchor = next(a for a in (cell_anchor(c.levels, c.ids)
                                      for c in cells)
                          if "Amt" in expected.lookup(a))
            expected.register(anchor, "avg(Amt)", 0.0)
        dists = []
        for cell in cells:
            exp = expected.lookup(cell_anchor(cell.levels, cell.ids))
            for name, value in exp.items():
                dists += [abs(cell.measures[col] - value)
                          for col in oracles.measure_columns(cell.measures,
                                                             name)]
        assert normalized_value_surprise(result, expected) == pytest.approx(
            oracles.minmax_normalized_avg(dists))
    assert len(dists) == 5


# --- probability surprise ----------------------------------------------------------

def _beliefs(cube, *texts):
    return [qlang.parse_belief(t, cube) for t in texts]


def test_strict_probability_surprise_off_value_mass(pkdd_cube):
    stmts = _beliefs(
        pkdd_cube,
        "P(Amt IN {100} | District=Olomouc, Year=1996) = 0.2",
        "P(Amt IN {80} | District=Olomouc, Year=1996) = 0.7",
        "P(Amt IN {70} | District=Olomouc, Year=1996) = 0.1",
    )
    assert probability_surprise(stmts, 70.0, "exact") == pytest.approx(0.9)
    assert probability_surprise(stmts, 80.0, "exact") == pytest.approx(0.3)
    assert probability_surprise(stmts, 100.0, "exact") == pytest.approx(0.8)


def test_probability_surprise_full_mass_on_actual(pkdd_cube):
    stmts = _beliefs(pkdd_cube, "P(Amt IN {42}) = 1")
    assert probability_surprise(stmts, 42.0, "exact") == 0.0


def test_interval_probability_overlapping_both_contain(pkdd_cube):
    stmts = _beliefs(
        pkdd_cube,
        "P(Amt IN [0..100] | District=Olomouc) = 0.4",
        "P(Amt IN [50..150] | District=Olomouc) = 0.5",
    )
    # actual inside both intervals: neither contributes
    assert probability_surprise(stmts, 75.0, "interval") == 0.0
    assert probability_surprise(stmts, 120.0, "interval") == pytest.approx(0.4)
    assert probability_surprise(stmts, 500.0, "interval") == pytest.approx(0.9)
    # oracle: plain sum over non-containing statements
    expected = oracles.probability_surprise(
        [(lambda x: 0 <= x <= 100, 0.4), (lambda x: 50 <= x <= 150, 0.5)],
        120.0)
    assert probability_surprise(stmts, 120.0, "interval") == pytest.approx(expected)


def test_probability_surprise_mode_filters_kind(pkdd_cube):
    stmts = _beliefs(
        pkdd_cube,
        "P(Amt IN {10} | District=Olomouc) = 0.3",
        "P(Amt IN [0..5] | District=Olomouc) = 0.6",
    )
    assert probability_surprise(stmts, 7.0, "exact") == pytest.approx(0.3)
    assert probability_surprise(stmts, 7.0, "interval") == pytest.approx(0.6)


def test_cube_probability_surprise(pkdd_cube, pkdd_query):
    result = evaluate(pkdd_query)
    cell = next(result.iter_cells())
    labels = result.labels_row(0)
    actual = cell.measures["avg(Amt)"]
    anchor_text = (f"District={labels[0]}, Month={labels[2]}")
    store = BeliefStore(_beliefs(
        pkdd_cube,
        f"P(Amt IN [{actual - 1}..{actual + 1}] | {anchor_text}) = 0.6",
        f"P(Amt IN [0..1] | {anchor_text}) = 0.3",
    ))
    score = cube_probability_surprise(result, store, "interval")
    assert score == pytest.approx(0.3)  # only the off-range statement counts
    assert cube_probability_surprise(result, store, "exact") is None


# --- label surprise -----------------------------------------------------------------

def _work_cube():
    from cubeinterest.engine import DetailedCube
    from cubeinterest.mdm import dimension_from_rows

    geo = dimension_from_rows("Geo", ["City", "Country"], [
        ("Athens", "Greece"), ("Paris", "France"),
    ])
    date = dimension_from_rows("Date", ["Year"], [("2020",), ("2021",)])
    coords = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int32)
    vals = np.array([[19.0], [5.0], [22.0], [16.0]])
    return DetailedCube((geo, date), ("WorkHours",), coords, vals)


def test_label_surprise_reference_cases(work_scheme):
    schemes, domain = work_scheme
    cube = _work_cube()
    q = qlang.parse_query(
        "SELECT avg(WorkHours) BY Geo.City, Date.Year", cube)
    result = evaluate(q)
    expected = ExpectedLabels()
    geo, date = cube.dims
    athens_2020 = (("City", geo.member("City", "Athens").id),
                   ("Year", date.member("Year", "2020").id))
    paris_2020 = (("City", geo.member("City", "Paris").id),
                  ("Year", date.member("Year", "2020").id))
    expected.register(athens_2020, "WorkHours", "OK")   # actual 19 -> OK
    expected.register(paris_2020, "WorkHours", "OK")    # actual 5 -> Bad
    score = label_surprise(result, expected, schemes)
    assert score == pytest.approx(0.5)  # one hit, one miss, averaged
    assert strict_label_surprise(result, expected, schemes) is True
    expected_ok = ExpectedLabels()
    expected_ok.register(athens_2020, "WorkHours", "OK")
    assert label_surprise(result, expected_ok, schemes) == 0.0
    assert strict_label_surprise(result, expected_ok, schemes) is False


def test_label_surprise_interval_distance(work_scheme):
    schemes, domain = work_scheme
    cube = _work_cube()
    q = qlang.parse_query(
        "SELECT avg(WorkHours) BY Geo.City, Date.Year", cube)
    result = evaluate(q)
    geo, date = cube.dims
    paris_2020 = (("City", geo.member("City", "Paris").id),
                  ("Year", date.member("Year", "2020").id))
    expected = ExpectedLabels()
    expected.register(paris_2020, "WorkHours", "Good")  # actual 5 -> Bad
    nominal = label_surprise(result, expected, schemes)
    interval = label_surprise(result, expected, schemes, domain=domain,
                              label_distance="interval")
    assert nominal == 1.0
    assert interval == pytest.approx(1.0)  # Bad and Good sit 2/2 apart
    expected_ok = ExpectedLabels()
    expected_ok.register(paris_2020, "WorkHours", "OK")
    assert label_surprise(result, expected_ok, schemes, domain=domain,
                          label_distance="interval") == pytest.approx(0.5)


def test_label_surprise_vacuous_and_gap(work_scheme):
    schemes, _ = work_scheme
    cube = _work_cube()
    q = qlang.parse_query(
        "SELECT avg(WorkHours) BY Geo.City, Date.Year", cube)
    result = evaluate(q)
    assert label_surprise(result, ExpectedLabels(), schemes) is None
    assert strict_label_surprise(result, ExpectedLabels(), schemes) is False
    geo, date = cube.dims
    anchor = (("City", 0), ("Year", 0))
    expected = ExpectedLabels()
    expected.register(anchor, "WorkHours", "OK")
    gappy = {"WorkHours": LabelingScheme("WorkHours", (
        next(iter(schemes["WorkHours"].intervals)),))}
    with pytest.raises(UnlabeledValue):
        label_surprise(result, expected, gappy)


def test_ordinal_label_distance_position_gap():
    domain = LabelDomain(("VeryBad", "Bad", "Good", "VeryGood"), "ordinal")
    assert domain.distance("Bad", "Good") == pytest.approx(1 / 3)
    assert domain.distance("VeryBad", "VeryGood") == 1.0
    # two steps apart in a 4-label domain
    assert domain.distance("Bad", "VeryGood") == pytest.approx(2 / 3)


def test_nominal_domain_has_no_distance():
    domain = LabelDomain(("A", "B"), "nominal")
    with pytest.raises(NominalLooseUnsupported):
        domain.distance("A", "B")


# --- probabilistic label surprise -----------------------------------------------------

def test_prob_label_strict(pkdd_cube):
    stmts = _beliefs(
        pkdd_cube,
        "P(label(Amt) = OK | District=Olomouc) = 0.2",
        "P(label(Amt) = Bad | District=Olomouc) = 0.5",
        "P(label(Amt) = Good | District=Olomouc) = 0.3",
    )
    assert prob_label_surprise(stmts, "OK", "strict") == pytest.approx(0.8)
    assert prob_label_surprise(stmts, "Bad", "strict") == pytest.approx(0.5)


def test_prob_label_all_mass_on_actual(pkdd_cube):
    stmts = _beliefs(pkdd_cube, "P(label(Amt) = OK | District=Olomouc) = 1")
    assert prob_label_surprise(stmts, "OK", "strict") == 0.0


def test_prob_label_loose(pkdd_cube):
    domain = LabelDomain(("Bad", "OK", "Good"), "ordinal")
    stmts = _beliefs(
        pkdd_cube,
        "P(label(Amt) = Bad | District=Olomouc) = 0.5",
        "P(label(Amt) = Good | District=Olomouc) = 0.3",
    )
    # actual OK: both labels sit one step away -> weight 1/2 each
    got = prob_label_surprise(stmts, "OK", "loose", domain)
    assert got == pytest.approx(0.5 * 0.5 + 0.5 * 0.3)
    # actual Bad: Good is two steps away -> weight 1
    got2 = prob_label_surprise(stmts, "Bad", "loose", domain)
    assert got2 == pytest.approx(1.0 * 0.3)
    with pytest.raises(NominalLooseUnsupported):
        prob_label_surprise(stmts, "OK", "loose",
                            LabelDomain(("Bad", "OK", "Good"), "nominal"))
    with pytest.raises(NominalLooseUnsupported):
        prob_label_surprise(stmts, "OK", "loose", None)


def test_cube_prob_label_surprise(work_scheme, pkdd_cube):
    schemes, domain = work_scheme
    cube = _work_cube()
    q = qlang.parse_query(
        "SELECT avg(WorkHours) BY Geo.City, Date.Year", cube)
    result = evaluate(q)
    store = BeliefStore([
        qlang.parse_belief(
            "P(label(WorkHours) = OK | City=Athens, Year=2020) = 0.2", cube),
        qlang.parse_belief(
            "P(label(WorkHours) = Bad | City=Athens, Year=2020) = 0.5", cube),
    ])
    # Athens/2020 actual is 19 -> OK; off-label mass is 0.5
    strict = cube_prob_label_surprise(result, store, schemes, "strict")
    assert strict == pytest.approx(0.5)
    loose = cube_prob_label_surprise(result, store, schemes, "loose", domain)
    assert loose == pytest.approx(0.5 * 0.5)  # Bad one step from OK
    assert cube_prob_label_surprise(result, BeliefStore(), schemes,
                                    "strict") is None


def test_surprise_strict_consistency(work_scheme):
    """Boolean strict surprise agrees with max-average label surprise > 0."""
    schemes, _ = work_scheme
    cube = _work_cube()
    q = qlang.parse_query(
        "SELECT avg(WorkHours) BY Geo.City, Date.Year", cube)
    result = evaluate(q)
    geo, date = cube.dims
    for exp_label, want in (("OK", False), ("Good", True)):
        expected = ExpectedLabels()
        expected.register((("City", 0), ("Year", 0)), "WorkHours", exp_label)
        strict = strict_label_surprise(result, expected, schemes)
        partial = label_surprise(result, expected, schemes)
        assert strict is want
        assert (partial > 0) is want


# --- cube-level scores against the plain-python references ---------------------------

CASE_RULES = ("Amt: [0..10) -> Low\nAmt: [10..20) -> Mid\nAmt: [20..40] -> High\n"
              "Qty: [0..15] -> Low\nQty: (15..25) -> Mid\nQty: [25..40] -> High\n"
              "ORDER Low < Mid < High\n")
ORACLE_RULES = {
    "Amt": [(0, 10, True, False, "Low"), (10, 20, True, False, "Mid"),
            (20, 40, True, True, "High")],
    "Qty": [(0, 15, True, True, "Low"), (15, 25, False, False, "Mid"),
            (25, 40, True, True, "High")],
}
ORDER = ["Low", "Mid", "High"]
# Names differing in case, exact columns, base measures and one measure the
# result does not carry.
VALUE_NAMES = ("Amt", "amt", "SUM(amt)", "Qty", "qty", "avg(QTY)", "Other")
LABEL_NAMES = ("Amt", "amt", "Qty", "QTY", "Other")
AGG_PAIRS = (("max", "mean"), ("sum", "median"), ("count", "sum"),
             ("min", "max"), ("mean", "count"), ("median", "min"))


def _grid_cells(columns: dict[str, list[float]], pairs) -> CellSet:
    geo = dimension_from_rows("Geo", ["City"], [(f"c{i}",) for i in range(5)])
    date = dimension_from_rows("Date", ["Year"], [(str(2000 + i),)
                                                  for i in range(4)])
    return CellSet((geo, date), ("City", "Year"),
                   np.array(pairs, dtype=np.int32).reshape(-1, 2),
                   {name: np.array(v) for name, v in columns.items()})


def _surprise_case(seed: int) -> SimpleNamespace:
    """A result with two aggregates (odd seeds add `min(Amt)`, so a name
    on Amt scores two columns), expectations on part of its cells (and on
    one anchor outside it), and beliefs of every kind, built once for the
    package and once as plain data for the references."""
    rnd = random.Random(seed)
    grid = [(g, d) for g in range(5) for d in range(4)]
    rnd.shuffle(grid)
    pairs, outside = grid[:14], grid[14]
    amt = [rnd.randrange(81) / 2 for _ in pairs]
    qty = [rnd.randrange(81) / 2 for _ in pairs]
    columns = {"sum(Amt)": amt, "avg(Qty)": qty}
    if seed % 2:
        extra = random.Random(-seed)
        columns["min(Amt)"] = [extra.randrange(81) / 2 for _ in pairs]
    cells = _grid_cells(columns, pairs)
    anchors = [cell_anchor(cells.levels, ids) for ids in pairs]
    ocells = [(a, {name: values[i] for name, values in columns.items()})
              for i, a in enumerate(anchors)]
    out_anchor = cell_anchor(cells.levels, outside)

    expected, oexpected = ExpectedValues(), {}
    labels, olabels = ExpectedLabels(), {}
    beliefs, obeliefs = BeliefStore(), []
    for anchor, x, y in zip(anchors + [out_anchor], amt + [1.0], qty + [1.0]):
        if rnd.random() < 0.7:
            for name in rnd.sample(VALUE_NAMES, rnd.randint(1, 3)):
                value = rnd.randrange(81) / 2
                expected.register(anchor, name, value)
                oexpected.setdefault(anchor, {})[name] = value
        if rnd.random() < 0.6:
            for name in rnd.sample(LABEL_NAMES, rnd.randint(1, 2)):
                label = rnd.choice(ORDER)
                labels.register(anchor, name, label)
                olabels.setdefault(anchor, {})[name] = label
        if rnd.random() < 0.2:
            continue
        for _ in range(rnd.randint(1, 5)):
            measure = rnd.choice(("Amt", "qty", "sum(Amt)", "Other"))
            kind = rnd.choice(("set", "interval", "label"))
            p = rnd.randrange(1, 11) / 10
            if kind == "set":
                hit = x if "amt" in measure.lower() else y
                plain = tuple(sorted({hit if rnd.random() < 0.5 else 3.0,
                                      rnd.randrange(81) / 2}))
                values = frozenset(plain)
            elif kind == "interval":
                lo = rnd.randrange(0, 30)
                plain = (lo, lo + rnd.randrange(1, 15), rnd.random() < 0.5,
                         rnd.random() < 0.5)
                values = ValueInterval(*plain)
            else:
                if measure == "sum(Amt)":
                    measure = "amt"
                plain = values = rnd.choice(ORDER)
            beliefs.add(BeliefStatement(measure, kind, values, p, anchor))
            obeliefs.append((anchor, measure, kind, plain, p))
    schemes, domain = qlang.parse_label_rules(CASE_RULES)
    return SimpleNamespace(cells=cells, ocells=ocells, expected=expected,
                           oexpected=oexpected, labels=labels,
                           olabels=olabels, beliefs=beliefs,
                           obeliefs=obeliefs, schemes=schemes, domain=domain)


def _same(got, want):
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(16))
def test_cube_surprise_matches_oracle(seed):
    c = _surprise_case(seed)
    scored = 0
    for cell_agg, cube_agg in AGG_PAIRS:
        cfg = SurpriseConfig(cell_agg, cube_agg)
        cfg_pair = (cell_agg, cube_agg)
        checks = [
            (value_surprise(c.cells, c.expected, cfg),
             oracles.cube_value_surprise(c.ocells, c.oexpected, *cfg_pair)),
            (cube_probability_surprise(c.cells, c.beliefs, "exact", cfg),
             oracles.cube_probability_surprise(c.ocells, c.obeliefs, "set",
                                               *cfg_pair)),
            (cube_probability_surprise(c.cells, c.beliefs, "interval", cfg),
             oracles.cube_probability_surprise(c.ocells, c.obeliefs,
                                               "interval", *cfg_pair)),
            (label_surprise(c.cells, c.labels, c.schemes, cfg=cfg),
             oracles.cube_label_surprise(c.ocells, c.olabels, ORACLE_RULES,
                                         None, *cfg_pair)),
            (label_surprise(c.cells, c.labels, c.schemes, c.domain,
                            "interval", cfg),
             oracles.cube_label_surprise(c.ocells, c.olabels, ORACLE_RULES,
                                         ORDER, *cfg_pair)),
            (cube_prob_label_surprise(c.cells, c.beliefs, c.schemes, "strict",
                                      cfg=cfg),
             oracles.cube_prob_label_surprise(c.ocells, c.obeliefs,
                                              ORACLE_RULES, None, *cfg_pair)),
            (cube_prob_label_surprise(c.cells, c.beliefs, c.schemes, "loose",
                                      c.domain, cfg=cfg),
             oracles.cube_prob_label_surprise(c.ocells, c.obeliefs,
                                              ORACLE_RULES, ORDER,
                                              *cfg_pair)),
        ]
        for got, want in checks:
            _same(got, want)
            scored += want is not None
    assert scored >= 5 * len(AGG_PAIRS)
    assert strict_label_surprise(c.cells, c.labels, c.schemes) is \
        oracles.strict_label_surprise(c.ocells, c.olabels, ORACLE_RULES)


def _ambiguous_case() -> SimpleNamespace:
    """One cell whose two columns aggregate Amt, with an expectation of
    every kind on Amt, for the package and as plain data."""
    # the first column alone would score lower than the fold over both
    columns = {"avg(Amt)": 5.0, "sum(Amt)": 15.0}
    cells = _grid_cells({k: [v] for k, v in columns.items()}, [(0, 0)])
    anchor = cell_anchor(cells.levels, (0, 0))
    expected, labels = ExpectedValues(), ExpectedLabels()
    expected.register(anchor, "Amt", 4.0)
    labels.register(anchor, "Amt", "Low")
    obeliefs = [(anchor, "Amt", "set", (4.0,), 0.5),
                (anchor, "Amt", "interval", (0, 4, True, False), 0.5),
                (anchor, "Amt", "label", "Mid", 0.5)]
    beliefs = BeliefStore([
        BeliefStatement("Amt", "set", frozenset({4.0}), 0.5, anchor),
        BeliefStatement("Amt", "interval", ValueInterval(0, 4), 0.5, anchor),
        BeliefStatement("Amt", "label", "Mid", 0.5, anchor),
    ])
    schemes, domain = qlang.parse_label_rules(CASE_RULES)
    return SimpleNamespace(
        cells=cells, ocells=[(anchor, columns)], expected=expected,
        oexpected={anchor: {"Amt": 4.0}}, labels=labels,
        olabels={anchor: {"Amt": "Low"}}, beliefs=beliefs, obeliefs=obeliefs,
        schemes=schemes, domain=domain)


@pytest.mark.parametrize("score,oracle", [
    (lambda c: value_surprise(c.cells, c.expected),
     lambda c: oracles.cube_value_surprise(c.ocells, c.oexpected,
                                           "max", "mean")),
    (lambda c: cube_probability_surprise(c.cells, c.beliefs, "exact"),
     lambda c: oracles.cube_probability_surprise(c.ocells, c.obeliefs, "set",
                                                 "max", "mean")),
    (lambda c: cube_probability_surprise(c.cells, c.beliefs, "interval"),
     lambda c: oracles.cube_probability_surprise(c.ocells, c.obeliefs,
                                                 "interval", "max", "mean")),
    (lambda c: label_surprise(c.cells, c.labels, c.schemes),
     lambda c: oracles.cube_label_surprise(c.ocells, c.olabels, ORACLE_RULES,
                                           None, "max", "mean")),
    (lambda c: strict_label_surprise(c.cells, c.labels, c.schemes),
     lambda c: oracles.strict_label_surprise(c.ocells, c.olabels,
                                             ORACLE_RULES)),
    (lambda c: cube_prob_label_surprise(c.cells, c.beliefs, c.schemes,
                                        "loose", c.domain),
     lambda c: oracles.cube_prob_label_surprise(c.ocells, c.obeliefs,
                                                ORACLE_RULES, ORDER,
                                                "max", "mean")),
], ids=["value", "prob-exact", "prob-interval", "label", "label-strict",
        "label-prob"])
def test_cube_surprise_ambiguous_measure_raises(score, oracle):
    """An expectation on Amt scores both avg(Amt) and sum(Amt), folded by
    `cell_agg`; nothing raises (the name is kept, so the cases keep their
    ids)."""
    c = _ambiguous_case()
    want = oracle(c)
    assert want not in (None, 0.0, False)
    assert score(c) == want


def test_normalized_value_surprise_needs_one_column():
    """Normalized surprise scores one column: a two-column result, or a
    measure two columns aggregate, raises; a named column scores alone."""
    c = _ambiguous_case()
    for measure in (None, "Amt", "Qty"):
        with pytest.raises(UnknownMeasure):
            normalized_value_surprise(c.cells, c.expected, measure)
    anchor = cell_anchor(c.cells.levels, (0, 0))
    c.expected.register(anchor, "sum(Amt)", 10.0)
    # sum(Amt) = 15: gaps 11 (Amt) and 5 (sum(Amt)), mean 8
    assert normalized_value_surprise(c.cells, c.expected, "SUM(amt)") == 0.5


def test_probability_surprise_bad_mode_is_value_error(pkdd_query):
    with pytest.raises(ValueError):
        probability_surprise([], 1.0, "bogus")
    with pytest.raises(ValueError):
        cube_probability_surprise(evaluate(pkdd_query), BeliefStore(), "bogus")
