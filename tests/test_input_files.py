"""One rule for every input file: each CSV table is read by `CsvTable` and
each line file by one text read, so a byte-order mark, a blank row or a
trailing empty field means the same thing in every file."""

import numpy as np
import pytest

from conftest import PKDD
from cubeinterest import qlang
from cubeinterest.context import (
    SessionContext,
    load_expected_labels,
    load_expected_values,
)
from cubeinterest.engine import load_facts
from cubeinterest.errors import MalformedFactRow
from cubeinterest.mdm import load_dimension

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
