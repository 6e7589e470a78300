import pytest

from cubeinterest.context import ValueInterval, filter_history_same_measures
from cubeinterest.engine import (
    AtomicFilter,
    CubeQuery,
    SelectionCondition,
    evaluate,
)
from cubeinterest.errors import (
    DuplicateDimensionAtom,
    GapInCoverage,
    LevelNotInDimension,
    OverlappingIntervals,
    ParseError,
    PositionedError,
    ProbabilityOutOfRange,
    UnknownIdentifier,
)
from cubeinterest.mdm import ALL_LEVEL, Dimension
from cubeinterest.peculiarity import query_distance_components
from cubeinterest import qlang


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


@pytest.mark.parametrize("text", ROUND_TRIP_QUERIES)
def test_query_round_trip(pkdd_cube, text):
    q = qlang.parse_query(text, pkdd_cube)
    printed = qlang.print_query(q)
    again = qlang.parse_query(printed, pkdd_cube)
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
]


@pytest.mark.parametrize("text", ROUND_TRIP_BELIEFS)
def test_belief_round_trip(pkdd_cube, text):
    b = qlang.parse_belief(text, pkdd_cube)
    printed = qlang.print_belief(b, pkdd_cube)
    assert qlang.parse_belief(printed, pkdd_cube) == b


def test_label_rules_round_trip():
    text = ("Amt: [0..50000) -> Low\n"
            "Amt: [50000..150000) -> Mid\n"
            "Amt: [150000..1000000] -> High\n"
            "ORDER Low < Mid < High")
    schemes, domain = qlang.parse_label_rules(text)
    printed = qlang.print_label_rules(schemes, domain)
    schemes2, domain2 = qlang.parse_label_rules(printed)
    assert domain2 == domain
    assert schemes2["Amt"].intervals == schemes["Amt"].intervals
    assert qlang.print_label_rules(schemes2, domain2) == printed


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
