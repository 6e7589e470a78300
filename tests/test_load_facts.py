"""Fact loading: chunked round trip, malformed rows and label lookups."""

import numpy as np
import pytest

from cubeinterest import mdm
from cubeinterest.cli import main
from cubeinterest.engine import load_facts
from cubeinterest.errors import (
    DimensionMismatch,
    DuplicateCoordinates,
    MalformedFactRow,
    UnknownMember,
)
from cubeinterest.harness import generate_star, generate_star_data
from cubeinterest.mdm import Dimension, load_dimension

ROWS = 10_000
SEED = 5


@pytest.fixture(scope="module")
def star(tmp_path_factory):
    out = tmp_path_factory.mktemp("star")
    generate_star(ROWS, SEED, out)
    dims = [load_dimension(out / "schema" / f"{n}.csv")
            for n in ("Account", "Status", "Date")]
    return out, dims


def _write(path, header, rows):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def test_round_trip_across_chunks(star):
    out, dims = star
    assert ROWS > 2 * mdm._CHUNK_ROWS
    cube = load_facts(out / "facts.csv", dims)
    ref = generate_star_data(ROWS, SEED).cube()
    assert cube.measures == ("Amt",)
    assert cube.coords.dtype == ref.coords.dtype
    assert cube.coords.flags.f_contiguous  # column-major, as built
    assert cube.values.dtype == ref.values.dtype
    assert cube.coords.tobytes() == ref.coords.tobytes()
    assert cube.values.tobytes() == ref.values.tobytes()


def test_header_only_gives_empty_cube(star, tmp_path):
    _, dims = star
    cube = load_facts(_write(tmp_path / "f.csv", "Account,Status,Day,Amt", []),
                      dims)
    assert len(cube) == 0
    assert cube.coords.shape == (0, 3)
    assert cube.values.shape == (0, 1)


def test_blank_lines_and_padding(star, tmp_path):
    _, dims = star
    account, status, date = dims
    path = _write(tmp_path / "f.csv", " Account , Status,Day,Amt ", [
        "",
        " A0001 , A,1996-01-01, 12.5 ",
        ",,,",
        "A0002,A ,  1996-01-02,1_000",
        "   ",
    ])
    cube = load_facts(path, dims)
    assert cube.measures == ("Amt",)
    assert cube.coords.tolist() == [
        [account.member("Account", "A0001").id,
         status.member("Status", "A").id,
         date.member("Day", "1996-01-01").id],
        [account.member("Account", "A0002").id,
         status.member("Status", "A").id,
         date.member("Day", "1996-01-02").id],
    ]
    assert cube.values.tolist() == [[12.5], [1000.0]]


def test_duplicates_in_different_chunks(star, tmp_path):
    out, dims = star
    lines = (out / "facts.csv").read_text().splitlines()
    assert len(lines) - 1 > mdm._CHUNK_ROWS
    path = _write(tmp_path / "f.csv", lines[0], [*lines[1:], lines[1]])
    with pytest.raises(DuplicateCoordinates):
        load_facts(path, dims)


def test_one_member_lookup_per_distinct_label(star, monkeypatch):
    out, dims = star
    calls = []
    member = Dimension.member

    def counted(self, level, label):
        calls.append(self.name)
        return member(self, level, label)

    monkeypatch.setattr(Dimension, "member", counted)
    cube = load_facts(out / "facts.csv", dims)
    distinct = {d.name: len(np.unique(cube.coords[:, j]))
                for j, d in enumerate(cube.dims)}
    assert {n: calls.count(n) for n in distinct} == distinct
    assert len(calls) == sum(distinct.values()) < 3 * ROWS


def _malformed_file(tmp_path):
    return _write(tmp_path / "facts.csv", "Account,Status,Day,Amt", [
        "A0001,A,1996-01-01,10",
        "",
        "A0002,A,1996-01-02",
    ])


def test_short_row_is_malformed(star, tmp_path):
    _, dims = star
    with pytest.raises(MalformedFactRow, match=r"facts\.csv: row 4: 3 fields"):
        load_facts(_malformed_file(tmp_path), dims)


def test_non_numeric_measure_is_malformed(star, tmp_path):
    _, dims = star
    path = _write(tmp_path / "facts.csv", "Account,Status,Day,Amt", [
        "A0001,A,1996-01-01,10",
        "A0002,A,1996-01-02,ten",
    ])
    with pytest.raises(MalformedFactRow,
                       match=r"facts\.csv: row 3: measure Amt .*'ten'"):
        load_facts(path, dims)


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf"])
def test_non_finite_measure_is_malformed(star, tmp_path, monkeypatch, value):
    """A measure `float` parses but that is not finite is refused, naming
    the file, the row (in a later chunk, blank rows counted) and the field."""
    _, dims = star
    monkeypatch.setattr(mdm, "_CHUNK_ROWS", 3)
    path = _write(tmp_path / "facts.csv", "Account,Status,Day,Amt", [
        "A0001,A,1996-01-01,10",
        "",
        "A0002,A,1996-01-02,10",
        "A0003,A,1996-01-03,10",
        f"A0004,A,1996-01-04,{value}",
        "A0005,A,1996-01-05,10",
    ])
    with pytest.raises(MalformedFactRow, match=rf"facts\.csv: row 6: "
                       rf"measure Amt is not finite: '{value}'"):
        load_facts(path, dims)


@pytest.mark.parametrize("bad_file", ["facts", "expected"])
def test_cli_refuses_non_finite_numbers(star, tmp_path, capsys, bad_file):
    """nan and inf in the facts, or nan in an expected value, exit 2 with
    the row named, instead of scoring value surprise as nan."""
    out, _ = star
    lines = (out / "facts.csv").read_text(encoding="utf-8").splitlines()
    expected = ["R1,Amt,1000", "R2,Amt,2000", "R3,Amt,3000"]
    if bad_file == "facts":  # rows 2 and 3
        for i, value in ((1, "nan"), (2, "inf")):
            lines[i] = lines[i].rsplit(",", 1)[0] + f",{value}"
    else:  # row 3
        expected[1] = "R2,Amt,nan"
    session = tmp_path / "session.txt"
    session.write_text("SELECT sum(Amt) BY Account.District\n")
    rc = main([
        "assess",
        "--schema", str(out / "schema"),
        "--facts", str(_write(tmp_path / "facts.csv", lines[0], lines[1:])),
        "--history", str(session),
        "--expected", str(_write(tmp_path / "expected.csv",
                                 "Region,measure,expected", expected)),
        "--query", "SELECT sum(Amt) BY Account.Region",
        "--out", str(tmp_path / "report.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    row = 2 if bad_file == "facts" else 3
    assert err.startswith("error: ") and \
        f"{bad_file}.csv: row {row}: " in err and "is not finite" in err


@pytest.mark.parametrize("bad, row_no, what", [
    ("A9999,A,1996-01-05,10", 6, r"Account\.Account has no member 'A9999'"),
    ("A0005,Z,1996-01-05,10", 6, r"Status\.Status has no member 'Z'"),
])
def test_unknown_label_names_file_and_row(star, tmp_path, monkeypatch,
                                          bad, row_no, what):
    """The row is found in a later chunk, blank rows counted, whichever
    column holds the unknown label."""
    _, dims = star
    monkeypatch.setattr(mdm, "_CHUNK_ROWS", 3)
    path = _write(tmp_path / "facts.csv", "Account,Status,Day,Amt", [
        "A0001,A,1996-01-01,10",
        "",
        "A0002,A,1996-01-02,10",
        "A0003,A,1996-01-03,10",
        bad,
        "A0006,A,1996-01-06,10",
    ])
    with pytest.raises(UnknownMember, match=rf"facts\.csv: row {row_no}: {what}"):
        load_facts(path, dims)


def test_cli_reports_malformed_facts(star, tmp_path, capsys):
    out, _ = star
    session = tmp_path / "session.txt"
    session.write_text("SELECT sum(Amt) BY Account.Region\n")
    rc = main([
        "assess",
        "--schema", str(out / "schema"),
        "--facts", str(_malformed_file(tmp_path)),
        "--history", str(session),
        "--query", "SELECT avg(Amt) BY Account.Region",
        "--out", str(tmp_path / "report.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 4" in err


def _repeated_column_file(out, tmp_path, name):
    """The generated facts with their Account column repeated at the end
    under `name`."""
    lines = (out / "facts.csv").read_text(encoding="utf-8").splitlines()
    rows = [f"{line},{line.split(',')[0]}" for line in lines[1:]]
    return _write(tmp_path / "facts.csv", f"{lines[0]},{name}", rows)


@pytest.mark.parametrize("name", ["Account", "account"])
def test_repeated_base_level_column_is_refused(star, tmp_path, name):
    out, dims = star
    path = _repeated_column_file(out, tmp_path, name)
    with pytest.raises(DimensionMismatch,
                       match=rf"facts\.csv: column {name} repeats"):
        load_facts(path, dims)


def test_cli_refuses_repeated_base_level_column(star, tmp_path, capsys):
    out, _ = star
    session = tmp_path / "session.txt"
    session.write_text("SELECT sum(Amt) BY Account.Region\n")
    rc = main([
        "assess",
        "--schema", str(out / "schema"),
        "--facts", str(_repeated_column_file(out, tmp_path, "Account")),
        "--history", str(session),
        "--query", "SELECT sum(Amt) BY Account.District",
        "--out", str(tmp_path / "report.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "column Account repeats" in err
    assert not (tmp_path / "report.json").exists()
