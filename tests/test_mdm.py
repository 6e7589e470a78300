import random
import re

import numpy as np
import pytest

from cubeinterest.errors import (
    EmptyFile,
    InconsistentRollup,
    LevelAboveMember,
    LevelBelowMember,
    LevelNotInDimension,
    UnknownMember,
)
from cubeinterest.harness import generate_star_data
from cubeinterest.mdm import Dimension, dimension_from_rows, load_dimension


def test_anc_city_to_continent(geo_dimension):
    athens = geo_dimension.member("City", "Athens")
    assert geo_dimension.anc(athens, "Continent").label == "Europe"


def test_anc_identity(geo_dimension):
    athens = geo_dimension.member("City", "Athens")
    assert geo_dimension.anc(athens, "City") == athens


def test_anc_chain_matches_oracle(pkdd_dims, geo_oracle, geo_dimension):
    date = next(d for d in pkdd_dims if d.name == "Date")
    day = date.member("Day", "1996-07-14")
    assert date.anc(day, "Year").label == "1996"
    assert date.anc(day, "Month").label == "1996-07"
    # cross-check the walk on an independently built hierarchy
    assert geo_oracle.anc("City", "Lyon", "Continent") == \
        geo_dimension.anc(geo_dimension.member("City", "Lyon"), "Continent").label


def test_anc_errors(geo_dimension):
    greece = geo_dimension.member("Country", "Greece")
    with pytest.raises(LevelBelowMember):
        geo_dimension.anc(greece, "City")
    with pytest.raises(LevelNotInDimension):
        geo_dimension.anc(greece, "Planet")


def test_desc_matches_oracle(geo_dimension, geo_oracle):
    europe = geo_dimension.member("Continent", "Europe")
    got = {m.label for m in geo_dimension.desc(europe, "City")}
    assert got == set(geo_oracle.desc("Continent", "Europe", "City"))
    assert got == {"Athens", "Thessaloniki", "Paris", "Lyon", "Rome"}


def test_desc_from_all_covers_domain(geo_dimension):
    got = {m.label for m in geo_dimension.desc(geo_dimension.all_member, "City")}
    assert got == {row[0] for row in __import__("conftest").GEO_ROWS}


def test_desc_identity_and_errors(geo_dimension):
    athens = geo_dimension.member("City", "Athens")
    assert geo_dimension.desc(athens, "City") == [athens]
    with pytest.raises(LevelAboveMember):
        geo_dimension.desc(athens, "Country")


def test_desc_year_to_months(pkdd_dims):
    date = next(d for d in pkdd_dims if d.name == "Date")
    months = {m.label for m in date.desc(date.member("Year", "1996"), "Month")}
    assert months == {f"1996-{m:02d}" for m in range(1, 13)}


def test_lca_cases(geo_dimension):
    athens = geo_dimension.member("City", "Athens")
    canada = geo_dimension.member("Country", "Canada")
    europe = geo_dimension.member("Continent", "Europe")
    assert geo_dimension.lca(athens, canada).label == "all"
    assert geo_dimension.lca(athens, athens) == athens
    assert geo_dimension.lca(athens, europe) == europe


def test_value_distance_cross_branch_members(geo_dimension):
    athens = geo_dimension.member("City", "Athens")
    canada = geo_dimension.member("Country", "Canada")
    assert geo_dimension.value_distance(athens, canada) == pytest.approx(5 / 6)
    assert geo_dimension.value_distance(athens, athens) == 0.0


@pytest.mark.parametrize("a,b", [
    (("City", "Athens"), ("City", "Thessaloniki")),   # same country: 2/6
    (("City", "Athens"), ("City", "Paris")),          # same continent: 4/6
    (("City", "Athens"), ("City", "Toronto")),        # across ALL: 6/6
    (("Country", "Greece"), ("City", "Rome")),
    (("Country", "Canada"), ("Continent", "America")),
])
def test_value_distance_matches_path_enumeration(geo_dimension, geo_oracle, a, b):
    ma = geo_dimension.member(*a)
    mb = geo_dimension.member(*b)
    expected = geo_oracle.value_distance(a[0], a[1], b[0], b[1])
    assert geo_dimension.value_distance(ma, mb) == pytest.approx(expected)
    assert geo_dimension.value_distance(mb, ma) == pytest.approx(expected)


def test_anc_desc_inflation(geo_dimension):
    for member in geo_dimension.members("City"):
        for level in ("Country", "Continent", "ALL"):
            up = geo_dimension.anc(member, level)
            assert member in geo_dimension.desc(up, "City")


def test_all_level_synthesized(geo_dimension):
    assert geo_dimension.levels[-1].name == "ALL"
    assert geo_dimension.size("ALL") == 1
    assert geo_dimension.height == 3
    for member in geo_dimension.members("City"):
        assert geo_dimension.anc(member, "ALL").label == "all"


def test_load_dimension_pkdd_account():
    dim = load_dimension(__import__("conftest").PKDD / "schema" / "Account.csv")
    assert [lv.name for lv in dim.levels] == [
        "Account", "District", "Region", "ALL"]
    assert dim.anc(dim.member("Account", "A2001"), "Region").label == "Moravia"


def test_load_dimension_inconsistent(tmp_path):
    path = tmp_path / "Geo.csv"
    path.write_text("City,Country\nAthens,Greece\nAthens,Italy\n")
    with pytest.raises(InconsistentRollup):
        load_dimension(path)


def test_load_dimension_empty(tmp_path):
    path = tmp_path / "Geo.csv"
    path.write_text("City,Country\n")
    with pytest.raises(EmptyFile):
        load_dimension(path)
    path2 = tmp_path / "Empty.csv"
    path2.write_text("")
    with pytest.raises(EmptyFile):
        load_dimension(path2)


@pytest.mark.parametrize("build, message", [
    (lambda: Dimension("G", ["A", "all"], [["a"], ["x"]], [np.array([0])]),
     "level ALL is implicit and may not be declared"),
    (lambda: Dimension("G", ["A", "a"], [["a"], ["x"]], [np.array([0])]),
     "duplicate level names"),
    (lambda: Dimension("G", ["A", "B"], [["a"]], []),
     "level/label/parent arity mismatch"),
    (lambda: Dimension("G", ["A"], [["a", "a"]], []),
     "duplicate member labels at level A"),
    (lambda: Dimension("G", ["A", "B"], [["a", "b"], ["x"]], [np.array([0])]),
     "parent map at depth 0 is not total"),
    (lambda: Dimension("G", ["A", "B"], [["a", "b"], ["x"]],
                       [np.array([0, 1])]),
     "parent id out of range at depth 0"),
    (lambda: dimension_from_rows("G", ["A", "B"], [("a", " ")]),
     "empty member label in row ('a', ' ')"),
    (lambda: dimension_from_rows("G", ["A", "B"], [("a", "x"), ("b",)]),
     "row ('b',) has 1 fields, expected 2"),
], ids=["all-declared", "duplicate-levels", "arity", "duplicate-labels",
        "parent-not-total", "parent-out-of-range", "empty-label", "short-row"])
def test_dimension_input_checks(build, message):
    """Each check on outside input raises InconsistentRollup and its
    message, naming the dimension."""
    with pytest.raises(InconsistentRollup,
                       match=f"^dimension G: {re.escape(message)}$"):
        build()


def test_three_row_direct_construction():
    dim = dimension_from_rows("Geo", ["City", "Country", "Continent"], [
        ("Athens", "Greece", "Europe"),
        ("Paris", "France", "Europe"),
        ("Toronto", "Canada", "America"),
    ])
    assert [lv.name for lv in dim.levels] == [
        "City", "Country", "Continent", "ALL"]
    assert dim.size("City") == 3
    assert dim.size("Country") == 3
    assert dim.size("Continent") == 2


def test_unknown_member(geo_dimension):
    with pytest.raises(UnknownMember):
        geo_dimension.member("City", "Atlantis")


@pytest.fixture(scope="module")
def star_dims():
    return generate_star_data(2000, 7).cube().dims


def test_desc_ids_match_anc_walk(star_dims):
    """`desc_ids` agrees with a brute-force walk through `Dimension.anc` for
    every (level, to_level) pair of the star dimensions, ALL and identity
    included, with one, some and all ids at the upper level."""
    rnd = random.Random(5)
    for dim in star_dims:
        for hi in dim.levels:
            n = dim.size(hi)
            picks = [rnd.sample(range(n), k) for k in sorted({1, max(1, n // 3), n})]
            for lo in dim.levels[:hi.depth + 1]:
                anc = [dim.anc(m, hi).id for m in dim.members(lo)]
                for ids in picks:
                    wanted = set(ids)
                    expected = [i for i, a in enumerate(anc) if a in wanted]
                    got = dim.desc_ids(hi, ids, lo)
                    assert got.dtype == np.int32
                    assert got.tolist() == expected, (dim.name, hi, lo, len(ids))


@pytest.mark.parametrize("ids", [[99], [-1], [0, 5], [2, -3, 7]])
def test_desc_ids_rejects_ids_outside_the_level(star_dims, ids):
    """An id outside the level raises UnknownMember naming it, rather than
    selecting nothing or, for a negative id, the last member's descendants."""
    date = next(d for d in star_dims if d.name == "Date")
    assert date.size("Year") == 5
    bad = sorted(i for i in ids if not 0 <= i < 5)
    with pytest.raises(UnknownMember, match=re.escape(str(bad))):
        date.desc_ids("Year", ids, "Day")
    with pytest.raises(UnknownMember):
        date.desc_mask("Year", ids, "Month")
