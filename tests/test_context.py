import random
import re

import numpy as np
import pytest

from conftest import (
    PKDD,
    build_instance,
    check_expectation_loaders,
    write_expectation_file,
)
from cubeinterest.context import (
    BeliefStore,
    QueryHistory,
    SessionContext,
    ValueInterval,
    filter_history_same_measures,
    known_cells,
    load_expected_labels,
    load_expected_values,
)
from cubeinterest.cli import main
from cubeinterest.engine import CellSet, DetailedCube, evaluate
from cubeinterest.errors import (
    DimensionMismatch,
    EmptyFile,
    HistoryConsistencyError,
    MalformedFactRow,
    UnknownLevel,
    UnknownMeasure,
    UnknownMember,
)
from cubeinterest.harness import generate_star_data
from cubeinterest.mdm import dimension_from_rows
from cubeinterest import qlang


def _belief(cube, text):
    return qlang.parse_belief(text, cube)


def test_append_and_length(pkdd_cube, pkdd_history):
    history = QueryHistory()
    for q in pkdd_history:
        history.append(q)
    assert len(history) == 4
    assert [e.seq for e in history] == [0, 1, 2, 3]


def test_append_caches_consistent_result(pkdd_cube, pkdd_history):
    history = QueryHistory()
    result = evaluate(pkdd_history[0])
    history.append(pkdd_history[0], result=result)
    assert history.entries[0].result is result


def test_append_rejects_mismatched_result(pkdd_cube, pkdd_history):
    wrong = evaluate(pkdd_history[1])
    history = QueryHistory()
    with pytest.raises(HistoryConsistencyError):
        history.append(pkdd_history[0], result=wrong)


def test_append_rejects_tampered_measures(pkdd_history):
    result = evaluate(pkdd_history[0])
    tampered = CellSet(result.dims, result.levels, result.coords,
                       {k: v + 1.0 for k, v in result.measures.items()})
    history = QueryHistory()
    with pytest.raises(HistoryConsistencyError):
        history.append(pkdd_history[0], result=tampered)


def _cells(result, coords=None, levels=None, **measures):
    return CellSet(result.dims, levels or result.levels,
                   result.coords if coords is None else coords,
                   measures or result.measures)


@pytest.mark.parametrize("tamper, message", [
    (lambda r: _cells(r, levels=("Region", "ALL", "Month")),
     "cached result is at different levels"),
    (lambda r: _cells(r, r.coords[1:],
                      **{"avg(Amt)": r.measures["avg(Amt)"][1:]}),
     "cached result has different coordinates"),
    (lambda r: _cells(r, **{"sum(Amt)": r.measures["avg(Amt)"]}),
     "cached result has different measures"),
    (lambda r: _cells(r, **{"avg(Amt)": r.measures["avg(Amt)"] + 1.0}),
     "cached result disagrees on measure avg(Amt)"),
], ids=["levels", "coordinates", "measures", "values"])
def test_context_input_checks(pkdd_history, tamper, message):
    """A supplied result that is not the query's raises
    HistoryConsistencyError naming what differs."""
    q = pkdd_history[0]
    with pytest.raises(HistoryConsistencyError, match=f"^{re.escape(message)}$"):
        QueryHistory().append(q, result=tamper(evaluate(q)))


def test_append_accepts_result_in_any_row_order(pkdd_history):
    """A supplied result is compared cell by cell whatever its row order;
    one changed measure in a reordered result is still caught."""
    q = pkdd_history[0]
    result = evaluate(q)
    assert result.size > 1
    rev = CellSet(result.dims, result.levels, result.coords[::-1],
                  {k: v[::-1] for k, v in result.measures.items()})
    history = QueryHistory()
    history.append(q, result=rev)
    assert history.entries[0].result is rev
    name = next(iter(rev.measures))
    changed = rev.measures[name].copy()
    changed[0] += 1.0
    tampered = CellSet(rev.dims, rev.levels, rev.coords,
                       {**rev.measures, name: changed})
    with pytest.raises(HistoryConsistencyError, match="disagrees on measure"):
        history.append(q, result=tampered)


def test_append_rejects_result_at_other_levels():
    # Region ids relabelled as District ids pack to the same keys
    cube = generate_star_data(20_000, 7).cube()
    q = qlang.parse_query("SELECT avg(Amt) BY Account.Region", cube)
    result = evaluate(q)
    relabelled = CellSet(result.dims, ("District", "ALL", "ALL"),
                         result.coords, result.measures)
    history = QueryHistory()
    with pytest.raises(HistoryConsistencyError):
        history.append(q, result=relabelled)
    history.append(q, result=result)
    assert len(history) == 1


def test_malformed_result_raises_dimension_mismatch():
    """A supplied result whose measure column is short, or whose
    coordinates do not have one column per dimension, is refused when it
    is built; an empty coordinate array of any shape is an empty set."""
    cube = generate_star_data(20_000, 7).cube()
    q = qlang.parse_query("SELECT avg(Amt) BY Account.District, Date.Month "
                          "WHERE Date.Year IN {1996}", cube)
    r = evaluate(q)
    with pytest.raises(DimensionMismatch):
        QueryHistory().append(q, CellSet(r.dims, r.levels, r.coords, {
            "avg(Amt)": r.measures["avg(Amt)"][:3]}))
    with pytest.raises(DimensionMismatch):
        CellSet(r.dims, r.levels, np.zeros((6, 2)))
    with pytest.raises(DimensionMismatch):
        CellSet(r.dims, r.levels[:2], r.coords)
    assert CellSet(r.dims, r.levels, np.array([])).coords.shape == (0, 3)


def test_sessions_remain_separable(pkdd_history):
    history = QueryHistory()
    history.append(pkdd_history[0], session_id="s1")
    history.append(pkdd_history[1], session_id="s2")
    history.append(pkdd_history[2], session_id="s1")
    assert history.sessions() == ["s1", "s2"]
    assert [e.session_id for e in history] == ["s1", "s2", "s1"]


def test_known_cells_majority_belief_threshold(pkdd_cube):
    store = BeliefStore([
        _belief(pkdd_cube,
                "P(Amt IN [100..200) | District=Olomouc, Year=1996) = 0.30"),
        _belief(pkdd_cube,
                "P(Amt IN [80..100) | District=Olomouc, Year=1996) = 0.70"),
    ])
    known = known_cells(store, 0.5)
    assert len(known) == 1  # the 70% statement clears the bar
    assert known == {store.statements[0].anchor}


def test_known_cells_extremes(pkdd_cube):
    store = BeliefStore([
        _belief(pkdd_cube, "P(Amt IN {1} | District=Olomouc) = 0.2"),
        _belief(pkdd_cube, "P(Amt IN {2} | District=Brno) = 0.6"),
    ])
    assert len(known_cells(store, 0.0)) == 2
    assert len(known_cells(store, 1.0)) == 0


def test_known_cells_monotone_in_pi(pkdd_cube):
    store = BeliefStore([
        _belief(pkdd_cube, f"P(Amt IN {{{i}}} | District=Olomouc, "
                           f"Month=1996-{i:02d}) = 0.{i}")
        for i in range(1, 10)
    ])
    sizes = [len(known_cells(store, pi)) for pi in
             (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    assert sizes == sorted(sizes, reverse=True)


def test_known_cells_ignores_label_beliefs(pkdd_cube):
    store = BeliefStore([
        _belief(pkdd_cube, "P(label(Amt) = High | District=Olomouc) = 0.9"),
    ])
    assert known_cells(store, 0.5) == set()


def test_belief_store_grouping(pkdd_cube):
    b1 = _belief(pkdd_cube, "P(Amt IN {1} | District=Olomouc) = 0.2")
    b2 = _belief(pkdd_cube, "P(Amt IN {2} | District=Olomouc) = 0.3")
    b3 = _belief(pkdd_cube, "P(Amt IN {2} | District=Brno) = 0.3")
    store = BeliefStore([b1, b2, b3])
    assert len(store.at(b1.anchor)) == 2
    assert len(store.at(b3.anchor)) == 1
    # probabilities need not sum to 1 per anchor
    assert sum(s.probability for s in store.at(b1.anchor)) == pytest.approx(0.5)


def test_filter_history_same_measures(pkdd_cube, pkdd_history, pkdd_query):
    assert filter_history_same_measures(pkdd_history, pkdd_query) == \
        pkdd_history
    q_sum = qlang.parse_query(
        "SELECT sum(Amt) BY Account.District, Date.Month", pkdd_cube)
    assert filter_history_same_measures(pkdd_history, q_sum) == []
    mixed = pkdd_history + [q_sum]
    assert filter_history_same_measures(mixed, q_sum) == [q_sum]
    assert filter_history_same_measures(mixed, pkdd_query) == pkdd_history


def test_value_interval_containment():
    iv = ValueInterval(100.0, 200.0, True, False)
    assert iv.contains(100.0)
    assert iv.contains(199.999)
    assert not iv.contains(200.0)
    assert not iv.contains(99.0)


def test_load_expected_values(pkdd_cube):
    values = load_expected_values(PKDD / "expected_values.csv", pkdd_cube)
    assert len(values) == 13
    date = pkdd_cube.dim("Date")
    account = pkdd_cube.dim("Account")
    anchor = (
        ("District", account.member("District", "Olomouc").id),
        ("ALL", 0),
        ("Month", date.member("Month", "1996-09").id),
    )
    assert values.lookup(anchor) == {"Amt": 20048.0}


def test_load_expected_labels(pkdd_cube):
    labels = load_expected_labels(PKDD / "expected_labels.csv", pkdd_cube)
    assert len(labels) == 3
    account = pkdd_cube.dim("Account")
    date = pkdd_cube.dim("Date")
    anchor = (
        ("District", account.member("District", "Olomouc").id),
        ("ALL", 0),
        ("Month", date.member("Month", "1996-12").id),
    )
    assert labels.lookup(anchor) == {"Amt": "High"}


@pytest.mark.parametrize("loader", [load_expected_values, load_expected_labels])
def test_empty_expectation_file(tmp_path, pkdd_cube, loader):
    path = tmp_path / "expected.csv"
    path.write_text("")
    with pytest.raises(EmptyFile, match="expected.csv"):
        loader(path, pkdd_cube)


def _expectations(tmp_path, header, *rows):
    path = tmp_path / "expected.csv"
    path.write_text("\n".join((header,) + rows) + "\n")
    return path


def test_short_expectation_row_is_malformed(tmp_path, pkdd_cube):
    path = _expectations(tmp_path, "District,Month,measure,expected",
                         "Olomouc,1996-09,Amt,20048", "", "Olomouc,1996-10,Amt")
    with pytest.raises(MalformedFactRow,
                       match=r"expected\.csv: row 4: 3 fields, header has 4"):
        load_expected_values(path, pkdd_cube)


def test_non_numeric_expected_value_is_malformed(tmp_path, pkdd_cube):
    path = _expectations(tmp_path, "District,Month,measure,expected",
                         "Olomouc,1996-09,Amt,20048", "Olomouc,1996-10,Amt,ten")
    with pytest.raises(MalformedFactRow,
                       match=r"expected\.csv: row 3: expected is not a number: 'ten'"):
        load_expected_values(path, pkdd_cube)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_expected_value_is_malformed(tmp_path, pkdd_cube, value):
    path = _expectations(tmp_path, "District,Month,measure,expected",
                         "Olomouc,1996-09,Amt,20048",
                         f"Olomouc,1996-10,Amt,{value}")
    with pytest.raises(MalformedFactRow, match=rf"expected\.csv: row 3: "
                       rf"expected is not finite: '{value}'"):
        load_expected_values(path, pkdd_cube)


def test_cli_reports_malformed_expectations(tmp_path, capsys):
    path = _expectations(tmp_path, "District,Month,measure,expected",
                         "Olomouc,1996-09,Amt,ten")
    rc = main([
        "assess",
        "--schema", str(PKDD / "schema"),
        "--facts", str(PKDD / "facts.csv"),
        "--history", str(PKDD / "session.txt"),
        "--expected", str(path),
        "--query", (PKDD / "query.txt").read_text().strip(),
        "--out", str(tmp_path / "report.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 2" in err


@pytest.mark.parametrize("header, row, error", [
    # two levels of one dimension (the District column used to be dropped)
    ("District,Region,Month,measure,expected", "Olomouc,Moravia,1996-09,Amt,1",
     UnknownLevel),
    ("Branch,Month,measure,expected", "b1,1996-09,Amt,1", UnknownLevel),
    ("District,Month,expected", "Olomouc,1996-09,1", UnknownMeasure),
])
@pytest.mark.parametrize("with_row", [True, False])
@pytest.mark.parametrize("loader", [load_expected_values, load_expected_labels])
def test_bad_expectation_header_raises(tmp_path, pkdd_cube, loader, with_row,
                                       header, row, error):
    path = _expectations(tmp_path, header, *[row] * with_row)
    with pytest.raises(error):
        loader(path, pkdd_cube)


@pytest.mark.parametrize("row, error", [
    ("Olomouc,1996-09,Qty,1", UnknownMeasure),
    ("Atlantis,1996-09,Amt,1", UnknownMember),
])
def test_bad_expectation_row_raises(tmp_path, pkdd_cube, row, error):
    path = _expectations(tmp_path, "District,Month,measure,expected", row)
    with pytest.raises(error):
        load_expected_values(path, pkdd_cube)


def test_expectation_file_with_both_value_columns(tmp_path, pkdd_cube):
    """Each loader reads its own value column and takes the other for
    neither a coordinate nor a value."""
    path = _expectations(tmp_path, "District,Month,measure,label,expected",
                         "Olomouc,1996-09,Amt,High,20048")
    account, date = pkdd_cube.dim("Account"), pkdd_cube.dim("Date")
    anchor = (("District", account.member("District", "Olomouc").id), ("ALL", 0),
              ("Month", date.member("Month", "1996-09").id))
    assert load_expected_values(path, pkdd_cube).lookup(anchor) == {"Amt": 20048.0}
    assert load_expected_labels(path, pkdd_cube).lookup(anchor) == {"Amt": "High"}


@pytest.mark.parametrize("header, rows, error, where", [
    ("District,Month,measure,expected",
     ["Olomouc,1996-09,Amt,1", "", "Atlantis,1996-09,Amt,1"],
     UnknownMember, r"row 4: Account\.District has no member 'Atlantis'"),
    ("District,Month,measure,expected", ["Olomouc,1996-09,Qty,1"],
     UnknownMeasure, r"row 2: cube has no measure 'Qty'"),
    ("Branch,Month,measure,expected", ["b1,1996-09,Amt,1"],
     UnknownLevel, r"row 1: no dimension has level 'Branch'"),
    ("District,Region,measure,expected", [],
     UnknownLevel, r"row 1: columns 'District' and 'Region' both name levels"),
])
@pytest.mark.parametrize("loader", [load_expected_values, load_expected_labels])
def test_expectation_schema_errors_name_file_and_row(tmp_path, pkdd_cube, loader,
                                                     header, rows, error, where):
    path = _expectations(tmp_path, header, *rows)
    with pytest.raises(error, match=r"expected\.csv: " + where):
        loader(path, pkdd_cube)


def test_cli_names_the_row_of_an_unknown_label(tmp_path, capsys):
    path = _expectations(tmp_path, "District,Month,measure,expected",
                         "Olomouc,1996-09,Amt,1", "Atlantis,1996-09,Amt,1")
    rc = main([
        "assess",
        "--schema", str(PKDD / "schema"),
        "--facts", str(PKDD / "facts.csv"),
        "--history", str(PKDD / "session.txt"),
        "--expected", str(path),
        "--query", (PKDD / "query.txt").read_text().strip(),
        "--out", str(tmp_path / "report.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: row 3: ") and "'Atlantis'" in err


def test_level_of_two_dimensions_is_ambiguous(tmp_path):
    shop = dimension_from_rows("Shop", ["Shop", "City"], [("s1", "Rome")])
    client = dimension_from_rows("Client", ["Client", "City"], [("c1", "Oslo")])
    cube = DetailedCube((shop, client), ("Amt",), np.zeros((1, 2)), np.ones((1, 1)))
    path = _expectations(tmp_path, "City,measure,expected", "Rome,Amt,1")
    with pytest.raises(UnknownLevel, match="ambiguous"):
        load_expected_values(path, cube)
    assert len(load_expected_values(
        _expectations(tmp_path, "Shop,measure,expected", "s1,Amt,1"), cube)) == 1


@pytest.mark.parametrize("seed", range(20))
def test_expectation_loaders_match_reference(tmp_path, seed):
    inst = build_instance(seed, n_queries=1, max_rows=30)
    check_expectation_loaders(write_expectation_file(
        tmp_path / "expected.csv", inst, random.Random(seed)), inst)


def test_session_context_loaders(pkdd_cube):
    ctx = SessionContext(pkdd_cube)
    ctx.load_session_file(PKDD / "session.txt")
    ctx.load_belief_file(PKDD / "beliefs.txt")
    ctx.load_goal_file(PKDD / "goal.txt")
    ctx.load_label_rules(PKDD / "label_rules.txt")
    assert len(ctx.history) == 4
    assert len(ctx.beliefs) == 4
    assert len(ctx.goals) == 1
    assert ctx.label_domain.labels == ("Low", "Mid", "High")
    assert "Amt" in ctx.labeling_schemes


def test_history_replay_round_trip(pkdd_cube, pkdd_history):
    """Serializing the history as text and re-parsing reproduces it."""
    printed = [qlang.print_query(q) for q in pkdd_history]
    reparsed = [qlang.parse_query(t, pkdd_cube) for t in printed]
    assert reparsed == pkdd_history
