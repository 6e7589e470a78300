"""`mdm.CsvTable` against a reference read by `csv.reader` alone.

Drawn CSV texts (quoted commas and line ends, CRLF and lone CR, a
byte-order mark, blank and all-empty rows, short and long rows, fields over
the csv module's size limit) are read at block sizes down to one
character. The table gives the reference's header, rows, row numbers and
errors, and every loader raises only `CubeInterestError`.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubeinterest import mdm
from cubeinterest.context import load_expected_labels, load_expected_values
from cubeinterest.engine import DetailedCube, load_facts
from cubeinterest.errors import CubeInterestError, EmptyFile, MalformedFactRow
from cubeinterest.mdm import dimension_from_rows, load_dimension

BOM = "\ufeff"
WHAT = "table"
DEFAULT_LIMIT = csv.field_size_limit()
LIMIT = 10  # a small csv field size limit, which most blocks exceed
NAMES = ["City", " city ", "Country", "Day", "Amt", "measure", "expected",
         "label", "", " "]
PLAIN = ["", " ", "a", " b1 ", "x", "1.5", "nan", "Amt", "é" * 6, "x" * LIMIT,
         "x" * (LIMIT + 1)]
QUOTED = ['"a,b"', '"p\nq"', '"p\r\nq"', '"r""s"', '"x"', 'a"b', '"']


@st.composite
def rows_text(draw):
    """A header and rows, mostly of the header's width, from a few names and
    fields: quoted ones and CR line ends in some texts only, so that others
    are read without `csv.reader`. The text may start with a byte-order
    mark and lack a last line end."""
    header = draw(st.lists(st.sampled_from(NAMES), max_size=4))
    fields = st.sampled_from(PLAIN + (QUOTED if draw(st.booleans()) else []))
    ends = st.sampled_from(["\n", "\r\n", "\r"] if draw(st.booleans())
                           else ["\n"])
    rows = draw(st.lists(st.lists(fields, min_size=(n := len(header)),
                                  max_size=n)
                         | st.lists(fields, max_size=5), max_size=8))
    text = "".join(",".join(line) + draw(ends) for line in [header, *rows])
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return (BOM if draw(st.booleans()) else "") + text


texts = st.one_of(rows_text(), st.text(st.sampled_from('ab ,"\r\n'),
                                       max_size=40))
block_sizes = st.one_of(st.integers(1, 64), st.just(mdm._BLOCK_CHARS))
field_limits = st.sampled_from([DEFAULT_LIMIT, LIMIT])


def _reference(text, path):
    """The header and the (row number, fields) of each non-blank row, or the
    error, read by `csv.reader` a row at a time."""
    rows, refused = [], None
    try:
        for row in csv.reader(io.StringIO(text.removeprefix(BOM), newline="")):
            rows.append(row)
    except csv.Error as exc:
        refused = MalformedFactRow(f"{path}: row {len(rows) + 1}: {exc}")
    if not rows:
        return refused or EmptyFile(f"{path}: empty {WHAT}")
    header = [h.strip() for h in rows[0]]
    while header and not header[-1]:
        header.pop()
    width, out = len(header), []
    for number, row in enumerate(rows[1:] if header else [], start=2):
        if not any(f.strip() for f in row):
            continue
        if len(row) < width:
            return MalformedFactRow(
                f"{path}: row {number}: {len(row)} fields, header has {width}")
        out.append((number, tuple(row[:width])))
    if refused and header:
        return refused
    return header, out


def _number(table, i=None):
    """The row number `table.error` names."""
    return int(str(table.error("", i=i)).rsplit(": row ", 1)[1][:-2])


def _by_columns(path):
    with mdm.CsvTable(path, WHAT) as table:
        return table.header, [(_number(table, i), row)
                              for cols in table.columns()
                              for i, row in enumerate(zip(*cols))]


def _by_rows(path):
    with mdm.CsvTable(path, WHAT) as table:
        return table.header, [(_number(table), row) for row in table.rows()]


def _outcome(read, path):
    try:
        return read(path)
    except CubeInterestError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@settings(max_examples=1000, deadline=None)
@given(text=texts, block=block_sizes, limit=field_limits)
@example(text="h\na\rb\nc\n", block=64, limit=DEFAULT_LIMIT)  # a lone CR
@example(text="h,g\r\na,b\r\nc,d\r\n", block=64, limit=DEFAULT_LIMIT)
@example(text="h,g\na,b\nc,d\ne,f\n", block=64, limit=DEFAULT_LIMIT)
@example(text="h,g\na,b,c\nd\n", block=64, limit=DEFAULT_LIMIT)  # 3 + 1
def test_table_reads_as_csv_reader(folder, text, block, limit):
    path = folder / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    old_limit = csv.field_size_limit(limit)
    try:
        want = _reference(text, path)
        if isinstance(want, Exception):
            want = type(want), str(want)
        with mock.patch.object(mdm, "_BLOCK_CHARS", block):
            assert _outcome(_by_columns, path) == want
            assert _outcome(_by_rows, path) == want
    finally:
        csv.field_size_limit(old_limit)


@pytest.fixture(scope="module")
def small_cube():
    geo = dimension_from_rows("Geo", ["City", "Country"], [
        ("a", "x"), ("b1", "x"), ("a,b", "y"), ("p\nq", "y")])
    date = dimension_from_rows("Date", ["Day"], [("a",), ("1.5",)])
    return DetailedCube((geo, date), ("Amt",), np.array([[0, 0], [2, 1]]),
                        np.array([[1.0], [2.0]]))


@settings(max_examples=200, deadline=None)
@given(text=texts, block=block_sizes, limit=field_limits)
def test_loaders_raise_only_library_errors(folder, small_cube, text, block,
                                           limit):
    path = folder / "Geo.csv"
    path.write_text(text, encoding="utf-8", newline="")
    old_limit = csv.field_size_limit(limit)
    try:
        with mock.patch.object(mdm, "_BLOCK_CHARS", block):
            for load in (lambda: load_dimension(path),
                         lambda: load_facts(path, list(small_cube.dims)),
                         lambda: load_expected_values(path, small_cube),
                         lambda: load_expected_labels(path, small_cube)):
                try:
                    load()
                except CubeInterestError:
                    pass
    finally:
        csv.field_size_limit(old_limit)
