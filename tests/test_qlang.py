import re
import string

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubeinterest.context import (
    BeliefStatement,
    ValueInterval,
    filter_history_same_measures,
)
from cubeinterest.engine import (
    AGG_FUNCTIONS,
    AtomicFilter,
    CubeQuery,
    DetailedCube,
    SelectionCondition,
    evaluate,
)
from cubeinterest.errors import (
    CubeInterestError,
    DuplicateDimensionAtom,
    GapInCoverage,
    LevelNotInDimension,
    OverlappingIntervals,
    ParseError,
    PositionedError,
    ProbabilityOutOfRange,
    UnknownIdentifier,
)
from cubeinterest.mdm import ALL_LEVEL, Dimension, dimension_from_rows
from cubeinterest.peculiarity import query_distance_components
from cubeinterest.surprise import LabelDomain, LabelingScheme
from cubeinterest import qlang


@pytest.fixture(scope="module")
def odd_cube():
    """Names and labels that a printer must quote, or may leave bare, only
    as the scanner reads them."""
    who = dimension_from_rows("Who", ["Person", "2nd"], [
        ("12abc", "x y"), ("2x", "x y"), ("12_3", "0"), ("a-", "0"),
        ("a--b", "1.5"), ("O'Brien", "1.5"), ("١٩٩٦", "²")])
    spot = dimension_from_rows("Where it's", ["Spot"], [("A",), ("b",)])
    coords = np.array([(i, i % 2) for i in range(who.size("Person"))])
    values = np.arange(3.0 * len(coords)).reshape(-1, 3)
    return DetailedCube((who, spot), ("Amt", "Amt 2", "0"), coords, values)


def test_parse_reference_schema_query(pkdd_cube):
    q = qlang.parse_query(
        "SELECT avg(Amt) BY Account.District, Date.Month", pkdd_cube)
    assert q.aggregates == (("avg", "Amt"),)
    assert q.groupers == ("District", "ALL", "Month")
    assert q.condition.is_empty


def test_hand_built_query_takes_the_schema_names(pkdd_cube):
    """A query built with names in another case stores the schema's own,
    so it equals, compares, prints and evaluates as its parsed twin."""
    p = qlang.parse_query("SELECT avg(Amt) BY Account.District, Date.Month "
                          "WHERE Date.Year IN {1996}", pkdd_cube)
    values = p.condition.atom_for("Date").values
    h = CubeQuery(pkdd_cube,
                  SelectionCondition((AtomicFilter("date", "year", values),)),
                  ("district", "all", "month"), (("avg", "amt"),))
    assert h == p
    assert h.same_definition(p) and p.same_definition(h)
    assert filter_history_same_measures([h], p) == [h]
    assert query_distance_components(p, h) == (0.0, 0.0, 0.0)
    assert qlang.print_query(h) == qlang.print_query(p) == (
        "SELECT avg(Amt) BY Account.District, Date.Month "
        "WHERE Date.Year IN {1996}")
    assert list(evaluate(h).measures) == ["avg(Amt)"]


def test_member_lookup_errors_other_than_unknown_member_propagate(
        pkdd_cube, monkeypatch):
    def broken(self, level, label):
        raise LevelNotInDimension(f"{self.name} lost level {level}")

    monkeypatch.setattr(Dimension, "member", broken)
    with pytest.raises(LevelNotInDimension):
        qlang.parse_query("SELECT avg(Amt) BY Date.Month "
                          "WHERE Date.Year IN {1996}", pkdd_cube)


def test_parse_group_everything(pkdd_cube):
    q = qlang.parse_query("SELECT sum(Amt) BY Date.ALL", pkdd_cube)
    assert q.groupers == (ALL_LEVEL, ALL_LEVEL, ALL_LEVEL)


def test_parse_two_value_atom(pkdd_cube):
    q = qlang.parse_query(
        "SELECT avg(Amt) BY Date.Month WHERE Date.Year IN {1996, 1997}",
        pkdd_cube)
    atom = q.condition.atom_for("Date")
    assert atom.level == "Year"
    date = pkdd_cube.dim("Date")
    assert {date.label_of("Year", v) for v in atom.values} == {"1996", "1997"}


def test_parse_condition_single_atom(pkdd_cube):
    cond = qlang.parse_condition("Account.Region IN {Moravia}", pkdd_cube)
    assert len(cond.atoms) == 1
    assert cond.atoms[0].level == "Region"


def test_parse_condition_duplicate_dimension(pkdd_cube):
    with pytest.raises(DuplicateDimensionAtom) as err:
        qlang.parse_condition(
            "Date.Year IN {1996} AND Date.Month IN {1996-01}", pkdd_cube)
    assert err.value.position > 0


def test_parse_condition_empty(pkdd_cube):
    assert qlang.parse_condition("", pkdd_cube).is_empty
    assert qlang.parse_condition("   ", pkdd_cube).is_empty


def test_parse_belief_interval(pkdd_cube):
    b = qlang.parse_belief(
        "P(Amt IN [100..200) | District=Olomouc, Year=1996) = 0.30", pkdd_cube)
    assert b.kind == "interval"
    assert b.values == ValueInterval(100.0, 200.0, True, False)
    assert b.probability == pytest.approx(0.30)
    by_dim = dict(zip((d.name for d in pkdd_cube.dims), b.anchor))
    assert by_dim["Account"][0] == "District"
    assert by_dim["Status"] == (ALL_LEVEL, 0)
    assert by_dim["Date"][0] == "Year"


def test_parse_belief_percent_and_set(pkdd_cube):
    b = qlang.parse_belief("P(Amt IN {100, 200}) = 45%", pkdd_cube)
    assert b.kind == "set"
    assert b.values == frozenset({100.0, 200.0})
    assert b.probability == pytest.approx(0.45)
    assert all(level == ALL_LEVEL for level, _ in b.anchor)


def test_parse_belief_probability_out_of_range(pkdd_cube):
    with pytest.raises(ProbabilityOutOfRange):
        qlang.parse_belief("P(Amt IN {0}) = 1.5", pkdd_cube)


def test_parse_belief_label(pkdd_cube):
    b = qlang.parse_belief(
        "P(label(Amt) = OK | District=Olomouc, Year=1996) = 0.20", pkdd_cube)
    assert b.kind == "label"
    assert b.values == "OK"
    assert b.probability == pytest.approx(0.20)


def test_parse_label_rules_three_labels():
    text = ("WorkHours: [0..15) -> Bad\n"
            "WorkHours: [15..20] -> OK\n"
            "WorkHours: (20..40] -> Good\n"
            "ORDER Bad < OK < Good\n")
    schemes, domain = qlang.parse_label_rules(text)
    scheme = schemes["WorkHours"]
    assert scheme.label_of(19) == "OK"
    assert scheme.label_of(5) == "Bad"
    assert scheme.label_of(21) == "Good"
    assert domain.labels == ("Bad", "OK", "Good")
    assert domain.kind == "ordinal"


def test_parse_label_rules_overlap():
    with pytest.raises(OverlappingIntervals):
        qlang.parse_label_rules(
            "M: [0..10] -> A\nM: [10..20] -> B\n")


def test_parse_label_rules_gap_only_when_strict():
    text = "M: [0..10) -> A\nM: [20..30) -> B\n"
    schemes, _ = qlang.parse_label_rules(text)
    assert schemes["M"].label_of(5) == "A"
    with pytest.raises(GapInCoverage):
        qlang.parse_label_rules(text, strict_coverage=True)


ROUND_TRIP_QUERIES = [
    "SELECT avg(Amt) BY Account.District, Date.Month",
    "SELECT avg(Amt) BY Account.District, Date.Month WHERE Date.Year IN {1996}",
    "SELECT sum(Amt) BY Date.ALL",
    "SELECT sum(Amt), count(Amt) BY Account.Region",
    "SELECT min(Amt), max(Amt) BY Status.Status, Date.Year",
    "SELECT avg(Amt) BY Account.Account WHERE Account.Region IN {Moravia, Bohemia}",
    "SELECT count(Amt) BY Date.Month WHERE Date.Month IN {1996-01, 1996-02} "
    "AND Status.Status IN {A}",
    "select avg(amt) by account.district where date.year in {1996}",
    "SELECT avg(Amt) BY Account.District WHERE Account.Account IN {A1001}",
    "SELECT avg(Amt) BY Date.Day WHERE Date.Day IN {1996-02-29}",
]
# over `odd_cube`: names, labels and numbers that print bare or quoted only
# as the scanner reads them
ODD_QUERIES = [
    "SELECT sum('Amt 2'), avg('0') BY Who.'2nd' "
    "WHERE Who.Person IN {'12abc', '2x', '12_3'}",
    "SELECT sum(Amt) BY Who.Person WHERE Who.Person IN {'a-', 'a--b', \"O'Brien\"}",
    "SELECT count(Amt) BY \"Where it's\".Spot WHERE Who.'2nd' IN {'x y', 0, 1.5, ²}",
    "SELECT max('0') BY Who.Person WHERE Who.Person IN {١٩٩٦}",
]


@pytest.mark.parametrize("text", ROUND_TRIP_QUERIES + ODD_QUERIES)
def test_query_round_trip(pkdd_cube, odd_cube, text):
    cube = odd_cube if text in ODD_QUERIES else pkdd_cube
    q = qlang.parse_query(text, cube)
    printed = qlang.print_query(q)
    again = qlang.parse_query(printed, cube)
    assert again == q
    assert qlang.print_query(again) == printed


ROUND_TRIP_CONDITIONS = [
    "",
    "Account.Region IN {Moravia}",
    "Date.Year IN {1995, 1996} AND Status.Status IN {A, B}",
    "Account.District IN {Prague} AND Date.Month IN {1995-03, 1995-04}",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CONDITIONS)
def test_condition_round_trip(pkdd_cube, text):
    cond = qlang.parse_condition(text, pkdd_cube)
    printed = qlang.print_condition(cond, pkdd_cube)
    assert qlang.parse_condition(printed, pkdd_cube) == cond


ROUND_TRIP_BELIEFS = [
    "P(Amt IN [100..200) | District=Olomouc, Year=1996) = 0.3",
    "P(Amt IN [100..200] | District=Olomouc) = 0.25",
    "P(Amt IN (0..100) | Month=1996-01) = 1",
    "P(Amt IN {0}) = 1",
    "P(Amt IN {10, 20, 30} | Status=A) = 0.5",
    "P(label(Amt) = High | District=Olomouc, Month=1996-07) = 0.2",
    "P(Amt IN [-500..-0.5) | District=Olomouc) = 0.3",
    "P(Amt IN {-10, 0, 2.5}) = 0.5",
]
ODD_BELIEFS = [  # over `odd_cube`
    "P('Amt 2' IN [0.00001..1) | Person='a--b') = 0.00001",
    "P(label(Amt) = 'very high' | Who.'2nd'=1.5, Spot=b) = 0.5",
    "P('0' IN {0.00001, 12} | Person=\"O'Brien\") = 1",
    "P(Amt IN [0.000001..0.00001] | Person='12abc') = 0.25",
]


@pytest.mark.parametrize("text", ROUND_TRIP_BELIEFS + ODD_BELIEFS)
def test_belief_round_trip(pkdd_cube, odd_cube, text):
    cube = odd_cube if text in ODD_BELIEFS else pkdd_cube
    b = qlang.parse_belief(text, cube)
    printed = qlang.print_belief(b, cube)
    assert qlang.parse_belief(printed, cube) == b
    assert qlang.print_belief(qlang.parse_belief(printed, cube), cube) == printed


ROUND_TRIP_LABEL_RULES = [
    "Amt: [0..50000) -> Low\n"
    "Amt: [50000..150000) -> Mid\n"
    "Amt: [150000..1000000] -> High\n"
    "ORDER Low < Mid < High",
    "'Amt 2': [0.00001..1) -> 'very high'\n"
    "'Amt 2': [1..2) -> '1.5'\n"
    "Amt: [0..0.00001] -> \"O'Brien\"\n"
    "ORDER 'very high' < '1.5' < \"O'Brien\"",
    "'0': (0..1) -> '2nd'\n'2nd': [1..2) -> '12abc'\nORDER '12abc' < '2nd'",
    "Amt: [-5..0) -> Neg\nAmt: [0..0.5] -> '-1'\nAmt: (-1000.25..-5) -> a-b\n"
    "ORDER a-b < Neg < '-1'",
]


def test_label_rules_round_trip():
    for text in ROUND_TRIP_LABEL_RULES:
        schemes, domain = qlang.parse_label_rules(text)
        printed = qlang.print_label_rules(schemes, domain)
        schemes2, domain2 = qlang.parse_label_rules(printed)
        assert domain2 == domain, text
        assert {m: s.intervals for m, s in schemes2.items()} == {
            m: s.intervals for m, s in schemes.items()}, text
        assert qlang.print_label_rules(schemes2, domain2) == printed, text


MALFORMED = [
    "SELECT",
    "SELECT avg(Amt)",
    "SELECT avg(Amt) BY",
    "SELECT avg Amt BY Date.Month",
    "SELECT avg(Amt) BY Date.Month WHERE",
    "SELECT avg(Amt) BY Date.Month WHERE Date.Year IN",
    "SELECT avg(Amt) BY Date.Month WHERE Date.Year IN {}",
    "SELECT avg(Amt) BY Date.Month WHERE Date.Year IN {1996",
    "SELECT avg(Amt) BY Date.Month trailing",
    "avg(Amt) BY Date.Month",
    "SELECT avg(Amt) BY Date.Month, Date.Year, Date.Month",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_queries_positioned(pkdd_cube, text):
    with pytest.raises(ParseError) as err:
        qlang.parse_query(text, pkdd_cube)
    assert 0 <= err.value.position <= len(text)


@pytest.mark.parametrize("parse, text, error, message", [
    (qlang.parse_query, "SELECT median(Amt) BY Date.Month", UnknownIdentifier,
     "unknown aggregate function 'median' at offset 7"),
    (qlang.parse_belief, "P(Amt IN [200..100) | District=Olomouc) = 0.5",
     ParseError, "interval upper bound below lower bound at offset 15"),
    (lambda text, cube: qlang.parse_label_rules(text), "Amt: [5..1) -> Low",
     ParseError, "interval upper bound below lower bound at offset 9"),
], ids=["unknown-aggregate", "belief-reversed-interval",
        "rule-reversed-interval"])
def test_qlang_input_checks(pkdd_cube, parse, text, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse(text, pkdd_cube)


def test_error_carries_expected_tokens(pkdd_cube):
    with pytest.raises(ParseError) as err:
        qlang.parse_query("SELECT avg(Amt) XX Date.Month", pkdd_cube)
    assert err.value.expected
    assert any("BY" in e for e in err.value.expected)


@pytest.mark.parametrize("text,position", [
    ("SELECT avg(Turnover) BY Date.Month", 11),
    ("SELECT avg(Amt) BY Planet.Core", 19),
    ("SELECT avg(Amt) BY Date.Quarter", 24),
    ("SELECT avg(Amt) BY Date.Month WHERE Date.Year IN {2050}", 50),
])
def test_unknown_identifiers_positioned(pkdd_cube, text, position):
    with pytest.raises(UnknownIdentifier) as err:
        qlang.parse_query(text, pkdd_cube)
    assert err.value.position == position


@pytest.mark.parametrize("anchor", ["Quarter=Q1", "ALL=all"])
def test_belief_anchor_level_names_one_dimension(pkdd_cube, anchor):
    text = f"P(Amt IN [1..2) | {anchor}) = 0.5"
    with pytest.raises(UnknownIdentifier) as err:
        qlang.parse_belief(text, pkdd_cube)
    assert err.value.position == text.index(anchor)


def test_unresolved_member_is_error_not_empty_filter(pkdd_cube):
    with pytest.raises(UnknownIdentifier):
        qlang.parse_condition("Account.District IN {Atlantis}", pkdd_cube)


def test_quoted_literals(pkdd_cube):
    q = qlang.parse_query(
        "SELECT avg(Amt) BY Account.District WHERE "
        "Account.District IN {'Prague'}", pkdd_cube)
    atom = q.condition.atom_for("Account")
    dim = pkdd_cube.dim("Account")
    assert {dim.label_of("District", v) for v in atom.values} == {"Prague"}


def test_positioned_error_base_class(pkdd_cube):
    for exc_type in (ParseError, UnknownIdentifier, DuplicateDimensionAtom):
        assert issubclass(exc_type, PositionedError)


def test_non_decimal_digit_is_a_word_not_a_number(pkdd_cube, odd_cube):
    for text in ("P(Amt IN {²}) = 0.5", "P(Amt IN [0..²) | Year=1996) = 1"):
        with pytest.raises(ParseError) as err:
            qlang.parse_belief(text, pkdd_cube)
        assert err.value.position == text.index("²")
    with pytest.raises(ParseError):
        qlang.parse_label_rules("Amt: [0..²) -> Low")
    cond = qlang.parse_condition("Who.2nd IN {²}", odd_cube)
    assert cond.atoms[0].values == {odd_cube.dim("Who").member("2nd", "²").id}


# --- printing is the inverse of parsing, on drawn schemas ---------------------------

EXAMPLES = 150
# every character class the scanner tells apart, but no line break: the
# label rules are read one line at a time
TEXT = st.text(string.ascii_letters[:8] + "XYZ" + string.digits[:4]
               + "_-/:.,{}()[]=%<| 'é\"²½١", max_size=6).filter(
    lambda s: not ("'" in s and '"' in s))
NAMES = TEXT.filter(bool)
NUMBERS = (st.floats(1e-9, 1e12) | st.floats(-1e12, -1e-9)
           | st.just(0.0))


def _unique(names, **kw):
    return st.lists(names, unique_by=str.lower, **kw)


@st.composite
def _cubes(draw):
    dims = []
    for name in draw(_unique(NAMES, min_size=1, max_size=2)):
        levels = draw(_unique(NAMES.filter(lambda s: s.lower() != "all"),
                              min_size=1, max_size=2))
        labels = TEXT.map(str.strip).filter(bool)  # the loader strips labels
        base = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
        rows = [(b, draw(labels))[:len(levels)] for b in base]
        dims.append(dimension_from_rows(name, levels, rows))
    measures = draw(_unique(NAMES, min_size=1, max_size=2))
    return DetailedCube(tuple(dims), tuple(measures),
                        np.zeros((1, len(dims))), np.ones((1, len(measures))))


def _level_and_member(draw, dim):
    level = draw(st.sampled_from(dim.levels)).name
    return level, draw(st.integers(0, dim.size(level) - 1))


def _condition(draw, cube):
    atoms = []
    for dim in cube.dims:
        if draw(st.booleans()):
            level, mid = _level_and_member(draw, dim)
            more = draw(st.sets(st.integers(0, dim.size(level) - 1)))
            atoms.append(AtomicFilter(dim.name, level, frozenset({mid} | more)))
    return SelectionCondition(tuple(atoms))


def _interval(draw):
    lo, hi = sorted(draw(st.tuples(NUMBERS, NUMBERS)))
    return ValueInterval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def _belief(draw, cube):
    kind = draw(st.sampled_from(("set", "interval", "label")))
    values = (frozenset(draw(st.sets(NUMBERS, min_size=1, max_size=3)))
              if kind == "set" else _interval(draw) if kind == "interval"
              else draw(TEXT))
    anchor = tuple(_level_and_member(draw, d) if draw(st.booleans())
                   else (ALL_LEVEL, 0) for d in cube.dims)
    return BeliefStatement(draw(st.sampled_from(cube.measures)), kind, values,
                           draw(st.floats(0.0, 1.0)), anchor)


def _label_rules(draw):
    labels = tuple(draw(st.lists(TEXT, min_size=1, max_size=3, unique=True)))
    schemes = {}
    for measure in draw(st.lists(NAMES.filter(lambda s: s.lower() != "order"),
                                 min_size=1, max_size=2, unique=True)):
        bounds = sorted(draw(st.sets(NUMBERS, min_size=2, max_size=6)))
        schemes[measure] = LabelingScheme(measure, tuple(
            (ValueInterval(lo, hi, draw(st.booleans()), draw(st.booleans())),
             draw(st.sampled_from(labels)))
            for lo, hi in zip(bounds[::2], bounds[1::2])))
    return schemes, LabelDomain(labels, kind="ordinal")


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data())
def test_printed_text_reads_back(data):
    """parse(print(x)) == x, and printing again gives the same text, for
    queries, conditions, beliefs and label rules over drawn schemas."""
    draw = data.draw
    cube = draw(_cubes())
    aggregates = draw(st.lists(st.tuples(st.sampled_from(AGG_FUNCTIONS),
                                         st.sampled_from(cube.measures)),
                               min_size=1, max_size=2))
    groupers = tuple(draw(st.sampled_from(d.levels)).name for d in cube.dims)
    q = CubeQuery(cube, _condition(draw, cube), groupers, tuple(aggregates))
    text = qlang.print_query(q)
    assert qlang.parse_query(text, cube) == q, text
    assert qlang.print_query(qlang.parse_query(text, cube)) == text

    cond = _condition(draw, cube)
    text = qlang.print_condition(cond, cube)
    assert qlang.parse_condition(text, cube) == cond, text

    belief = _belief(draw, cube)
    text = qlang.print_belief(belief, cube)
    assert qlang.parse_belief(text, cube) == belief, text
    assert qlang.print_belief(qlang.parse_belief(text, cube), cube) == text

    schemes, domain = _label_rules(draw)
    text = qlang.print_label_rules(schemes, domain)
    schemes2, domain2 = qlang.parse_label_rules(text)
    assert domain2 == domain, text
    assert {m: s.intervals for m, s in schemes2.items()} == {
        m: s.intervals for m, s in schemes.items()}, text
    assert qlang.print_label_rules(schemes2, domain2) == text


FRAGMENTS = ["SELECT ", "sum(", "Amt", ")", " BY ", "Date.", "Year", "Month",
             " WHERE ", " IN ", "{", "}", ", ", " AND ", "1996", "1996-01",
             "²", "½", "١٩٩٦", "12abc", "'", '"', "P(", "label(", " = ", "=",
             "0.5", "%", "[", "(", "..", "]", " | ", "District", "Olomouc",
             ": ", " -> ", "Low", "High", "ORDER ", " < ", "\n", "-", ".",
             "-0.5", "->"]


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join)
       | st.text("SELECTBYWHEINAmt(){}[].,=|%<:-'\" 0123456789²½١", max_size=30))
@example("P(Amt IN {²}) = 0.5")
@example("Amt: [0..²) -> Low")
@example("SELECT sum(Amt) BY Date.Year WHERE Date.Year IN {١٩٩٦, ½}")
@example("Amt: [0..1) -> Low\nORDER Low < Low")
def test_parsers_fail_only_as_the_library(pkdd_cube, text):
    for parse in (lambda: qlang.parse_query(text, pkdd_cube),
                  lambda: qlang.parse_condition(text, pkdd_cube),
                  lambda: qlang.parse_belief(text, pkdd_cube),
                  lambda: qlang.parse_label_rules(text)):
        try:
            parse()
        except CubeInterestError:
            pass
