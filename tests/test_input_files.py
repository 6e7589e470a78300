"""One rule for every input file: each CSV table is read by `CsvTable` and
each line file by one text read, so a byte-order mark, a blank row, a
trailing empty field, a quoted field or an overlong one means the same
thing in every file."""

import numpy as np
import pytest

from conftest import PKDD
from cubeinterest import mdm, qlang
from cubeinterest.context import (
    SessionContext,
    load_expected_labels,
    load_expected_values,
)
from cubeinterest.engine import DetailedCube, load_facts
from cubeinterest.errors import InconsistentRollup, MalformedFactRow
from cubeinterest.mdm import dimension_from_rows, load_dimension

BOM = "\ufeff"


def _copy(src, dst, prefix=""):
    dst.write_text(prefix + src.read_text(encoding="utf-8"), encoding="utf-8")
    return dst


def _dimension_state(dim):
    """Level names, labels per level and every ancestor map of a dimension."""
    depths = range(len(dim.levels))
    return ([lv.name for lv in dim.levels],
            [[m.label for m in dim.members(lv)] for lv in dim.levels],
            [dim.ancestor_map(a, b).tolist() for a in depths for b in depths
             if a <= b])


@pytest.mark.parametrize("name", ["Account", "Status", "Date"])
def test_bom_dimension_loads_as_without(tmp_path, name):
    src = PKDD / "schema" / f"{name}.csv"
    bom = load_dimension(_copy(src, tmp_path / f"{name}.csv", BOM))
    assert bom.name == name
    assert _dimension_state(bom) == _dimension_state(load_dimension(src))


def test_bom_facts_load_as_without(tmp_path, pkdd_dims, pkdd_cube):
    cube = load_facts(_copy(PKDD / "facts.csv", tmp_path / "facts.csv", BOM),
                      pkdd_dims)
    assert cube.measures == pkdd_cube.measures
    assert [d.name for d in cube.dims] == [d.name for d in pkdd_cube.dims]
    assert cube.coords.tobytes() == pkdd_cube.coords.tobytes()
    assert cube.values.tobytes() == pkdd_cube.values.tobytes()


@pytest.mark.parametrize("loader, name", [
    (load_expected_values, "expected_values.csv"),
    (load_expected_labels, "expected_labels.csv"),
])
def test_bom_expectations_load_as_without(tmp_path, pkdd_cube, loader, name):
    bom = loader(_copy(PKDD / name, tmp_path / name, BOM), pkdd_cube)
    assert dict(bom.items()) == dict(loader(PKDD / name, pkdd_cube).items())


def _context_state(ctx):
    cube = ctx.cube
    return ([qlang.print_query(q) for q in ctx.history.queries()],
            [qlang.print_belief(s, cube) for s in ctx.beliefs],
            [qlang.print_condition(g, cube) for g in ctx.goals],
            qlang.print_label_rules(ctx.labeling_schemes, ctx.label_domain))


def _load_lines(ctx, folder):
    ctx.load_session_file(folder / "session.txt")
    ctx.load_belief_file(folder / "beliefs.txt")
    ctx.load_goal_file(folder / "goal.txt")
    ctx.load_label_rules(folder / "label_rules.txt")
    return ctx


def test_bom_line_files_load_as_without(tmp_path, pkdd_cube):
    for name in ("session.txt", "beliefs.txt", "goal.txt", "label_rules.txt"):
        _copy(PKDD / name, tmp_path / name, BOM)
    bom = _load_lines(SessionContext(pkdd_cube), tmp_path)
    plain = _load_lines(SessionContext(pkdd_cube), PKDD)
    assert len(bom.history) == len(plain.history) > 0
    assert _context_state(bom) == _context_state(plain)


def test_dimension_row_with_trailing_empty_field_loads(tmp_path):
    """Fields past the header are ignored in a dimension, as in the facts."""
    src = PKDD / "schema" / "Account.csv"
    header, *rows = src.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "Account.csv"
    path.write_text("\n".join([header, f"{rows[0]},", *rows[1:]]) + "\n",
                    encoding="utf-8")
    assert _dimension_state(load_dimension(path)) == \
        _dimension_state(load_dimension(src))


def test_short_dimension_row_names_file_and_row(tmp_path):
    path = tmp_path / "Geo.csv"
    path.write_text("City,Country\nAthens,Greece\n\nParis\n", encoding="utf-8")
    with pytest.raises(MalformedFactRow,
                       match=r"Geo\.csv: row 4: 1 fields, header has 2"):
        load_dimension(path)


def test_blank_rows_skipped_in_every_table(tmp_path, pkdd_dims, pkdd_cube):
    """Blank and all-empty rows are skipped in dimensions, facts and
    expectations alike."""
    def padded(src, name):
        header, *rows = src.read_text(encoding="utf-8").splitlines()
        path = tmp_path / name
        path.write_text("\n".join([header, "", *rows, " , ,", ""]) + "\n",
                        encoding="utf-8")
        return path

    src = PKDD / "schema" / "Account.csv"
    assert _dimension_state(load_dimension(padded(src, "Account.csv"))) == \
        _dimension_state(load_dimension(src))
    cube = load_facts(padded(PKDD / "facts.csv", "facts.csv"), pkdd_dims)
    assert np.array_equal(cube.coords, pkdd_cube.coords)
    values = load_expected_values(
        padded(PKDD / "expected_values.csv", "expected.csv"), pkdd_cube)
    assert dict(values.items()) == dict(
        load_expected_values(PKDD / "expected_values.csv", pkdd_cube).items())


def test_trailing_empty_header_fields_are_dropped(tmp_path, pkdd_dims,
                                                   pkdd_cube):
    """A trailing comma on the header means what it means on a row, whether
    or not the rows carry it too, in facts and in hierarchies alike."""
    def with_comma(src, name, on_rows):
        header, *rows = src.read_text(encoding="utf-8").splitlines()
        path = tmp_path / name
        end = "," if on_rows else ""
        path.write_text("\n".join([f"{header},,", *(r + end for r in rows)])
                        + "\n", encoding="utf-8")
        return path

    for on_rows in (False, True):
        cube = load_facts(with_comma(PKDD / "facts.csv", "facts.csv", on_rows),
                          pkdd_dims)
        assert cube.measures == pkdd_cube.measures
        assert cube.coords.tobytes() == pkdd_cube.coords.tobytes()
        assert cube.values.tobytes() == pkdd_cube.values.tobytes()
        src = PKDD / "schema" / "Account.csv"
        assert _dimension_state(load_dimension(
            with_comma(src, "Account.csv", on_rows))) == \
            _dimension_state(load_dimension(src))


@pytest.mark.parametrize("quote", ["", '"'])
@pytest.mark.parametrize("table", ["facts", "hierarchy"])
def test_overlong_field_names_file_and_row(tmp_path, pkdd_dims, quote, table):
    """A field over the csv module's size limit raises `MalformedFactRow`
    naming the file and the row, quoted or not."""
    long = quote + "A" * 131_073 + quote
    if table == "facts":
        path = tmp_path / "facts.csv"
        path.write_text(f"Account,Status,Day,Amt\nA1001,A,1996-01-01,10\n\n"
                        f"{long},A,1996-01-02,10\n", encoding="utf-8")
        load = lambda: load_facts(path, pkdd_dims)  # noqa: E731
    else:
        path = tmp_path / "Geo.csv"
        path.write_text(f"City,Country\nAthens,Greece\n\n{long},France\n",
                        encoding="utf-8")
        load = lambda: load_dimension(path)  # noqa: E731
    with pytest.raises(MalformedFactRow, match=rf"{path.name}: row 4: field "
                       r"larger than field limit \(131072\)"):
        load()


@pytest.mark.parametrize("text, row, what", [
    ("City,Country\nAthens,Greece\nAthens2,\n", 3,
     r"empty member label in row \('Athens2', ''\)"),
    ("City,Country\nAthens,Greece\nAthens,Italy\n", 3,
     r"member 'Athens' at level City maps to both 'Greece' and 'Italy'"),
    ("City,city\nAthens,Greece\n", 1, "duplicate level names"),
])
def test_rollup_error_names_file_and_row(tmp_path, text, row, what):
    path = tmp_path / "Geo2.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InconsistentRollup,
                       match=rf"Geo2\.csv: row {row}: dimension Geo2: {what}"):
        load_dimension(path)


def test_quoted_labels_round_trip(tmp_path, monkeypatch):
    """Quoted labels holding a comma, a quote and a line end load as the
    cube built in memory, also when the blocks of text cut through them."""
    monkeypatch.setattr(mdm, "_BLOCK_CHARS", 8)
    (tmp_path / "Geo.csv").write_text(
        'City,Country\n"Athens, GR","Hellenic\nRepublic"\n'
        'Paris,France\n"Say ""hi""",France\n', encoding="utf-8")
    (tmp_path / "facts.csv").write_text(
        'City,Amt\nParis,1\n"Athens, GR",2\n"Say ""hi""","3"\n',
        encoding="utf-8")
    (tmp_path / "expected.csv").write_text(
        'City,measure,expected\n"Athens, GR",Amt,2.5\n', encoding="utf-8")
    geo = dimension_from_rows("Geo", ["City", "Country"], [
        ("Athens, GR", "Hellenic\nRepublic"), ("Paris", "France"),
        ('Say "hi"', "France")])
    ref = DetailedCube((geo,), ("Amt",), np.array([[1], [0], [2]]),
                       np.array([[1.0], [2.0], [3.0]]))
    dim = load_dimension(tmp_path / "Geo.csv")
    assert _dimension_state(dim) == _dimension_state(geo)
    cube = load_facts(tmp_path / "facts.csv", [dim])
    assert cube.coords.tobytes() == ref.coords.tobytes()
    assert cube.values.tobytes() == ref.values.tobytes()
    expected = load_expected_values(tmp_path / "expected.csv", cube)
    assert dict(expected.items()) == {(("City", 0),): {"Amt": 2.5}}
