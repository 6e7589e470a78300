import numpy as np
import pytest

import oracles
from conftest import build_instance
from cubeinterest.context import BeliefStore
from cubeinterest.engine import Cell, DetailedCube, evaluate
from cubeinterest.errors import LevelMismatch
from cubeinterest.harness import generate_star_data
from cubeinterest.mdm import dimension_from_rows
from cubeinterest.novelty import (
    belief_novelty,
    fsdn,
    fslsn,
    full_coverage,
    pden,
    pdsn,
    same_level_novelty,
    same_level_partition,
)
from cubeinterest import qlang


# --- small hand-built cube shared by several tests -----------------------------

HAND_GEO = [
    ("Athens", "Greece"), ("Thessaloniki", "Greece"),
    ("Paris", "France"), ("Lyon", "France"),
    ("Rome", "Italy"), ("Milan", "Italy"),
]
HAND_DATE = [
    ("1996-01", "1996"), ("1996-02", "1996"),
    ("1997-01", "1997"), ("1997-02", "1997"),
]


@pytest.fixture(scope="module")
def hand():
    geo = dimension_from_rows("Geo", ["City", "Country"], HAND_GEO)
    date = dimension_from_rows("Date", ["Month", "Year"], HAND_DATE)
    coords = [(c, m) for c in range(6) for m in range(4)][:20]
    vals = [(float(i),) for i in range(len(coords))]
    cube = DetailedCube((geo, date), ("Amt",),
                        np.array(coords, dtype=np.int32), np.array(vals))
    return cube


def q_of(cube, text):
    return qlang.parse_query(text, cube)


# --- fslsn ----------------------------------------------------------------------

def test_fslsn_reference(pkdd_query, pkdd_history):
    assert fslsn(pkdd_query, pkdd_history) == 1


def test_fslsn_self_and_empty(pkdd_query, pkdd_history):
    assert fslsn(pkdd_query, pkdd_history + [pkdd_query]) == 0
    assert fslsn(pkdd_query, []) == 1


def test_fslsn_order_insensitive_atoms(hand):
    qa = q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                    "WHERE Geo.Country IN {Greece} AND Date.Year IN {1996}")
    qb = q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                    "WHERE Date.Year IN {1996} AND Geo.Country IN {Greece}")
    assert fslsn(qa, [qb]) == 0


# --- same-level novelty -------------------------------------------------------------

def test_same_level_reference_is_one(pkdd_query, pkdd_history):
    for basis in ("syntactic", "extensional"):
        score, part = same_level_novelty(pkdd_query, pkdd_history, basis)
        assert score == 1.0
        assert part.covered_count == 0


def test_same_level_self_is_zero(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                   "WHERE Geo.Country IN {Greece}")
    for basis in ("syntactic", "extensional"):
        score, _ = same_level_novelty(q, [q], basis)
        assert score == 0.0


def test_same_level_half_covered(hand):
    # q covers Greece+France coordinates; the history query covers Greece.
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                   "WHERE Geo.Country IN {Greece, France}")
    qi = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                    "WHERE Geo.Country IN {Greece}")
    score, part = same_level_novelty(q, [qi], "syntactic")
    assert part.universe_size == 4  # 2 countries x 2 years
    assert score == 0.5
    score_e, part_e = same_level_novelty(q, [qi], "extensional")
    assert score_e == 0.5


def test_same_level_skips_content_breaking_filters(hand):
    # the history query filters months below the Year grouper: its cells
    # aggregate partial years, so its coordinates must not count as seen
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                   "WHERE Geo.Country IN {Greece}")
    qi = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                    "WHERE Geo.Country IN {Greece} AND Date.Month IN {1996-01}")
    score, _ = same_level_novelty(q, [qi], "syntactic")
    assert score == 1.0


def test_same_level_partition_rejects_other_levels():
    """An other at coarser or finer levels raises LevelMismatch on both
    bases: its cells lie in another key space, and none is q's."""
    cube = generate_star_data(20_000, 7).cube()
    where = "WHERE Date.Year IN {1996}"
    q = q_of(cube, f"SELECT avg(Amt) BY Account.District, Date.Month {where}")
    for by in ("Account.Region, Date.Year", "Account.Account, Date.Day"):
        o = q_of(cube, f"SELECT avg(Amt) BY {by} {where}")
        for basis in ("syntactic", "extensional"):
            with pytest.raises(LevelMismatch):
                same_level_partition(q, [q, o], basis)
    for basis in ("syntactic", "extensional"):
        assert same_level_partition(q, [q], basis).novel_count == 0


def test_same_level_matches_oracle_random():
    for seed in range(30):
        inst = build_instance(seed)
        got_s, _ = same_level_novelty(inst.q, inst.history, "syntactic")
        assert got_s == pytest.approx(
            oracles.pslsn(inst.ocube, inst.q_spec, inst.history_specs),
            abs=1e-12)
        got_e, _ = same_level_novelty(inst.q, inst.history, "extensional")
        assert got_e == pytest.approx(
            oracles.pslen(inst.ocube, inst.q_spec, inst.history_specs),
            abs=1e-12)


# --- fsdn ------------------------------------------------------------------------

def test_fsdn_reference(pkdd_query, pkdd_history):
    assert fsdn(pkdd_query, pkdd_history) == 1


def test_fsdn_unfiltered_superset(pkdd_query, pkdd_cube):
    everything = q_of(pkdd_cube, "SELECT avg(Amt) BY Account.District")
    assert fsdn(pkdd_query, [everything]) == 0


def test_fsdn_narrower_filter_not_superset(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                   "WHERE Date.Year IN {1996, 1997}")
    narrower = q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                          "WHERE Date.Year IN {1996}")
    assert fsdn(q, [narrower]) == 1
    assert fsdn(narrower, [q]) == 0


# --- pdsn ------------------------------------------------------------------------

def test_pdsn_empty_history(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country")
    score, part = pdsn(q, [])
    assert score == 1.0
    assert part.covered_count == 0
    assert part.novel_count == part.universe_size == 24


def test_pdsn_self(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country WHERE Date.Year IN {1996}")
    score, _ = pdsn(q, [q])
    assert score == 0.0


def test_pdsn_three_of_twelve_covered(hand):
    # q's detailed signature: 6 cities x 2 months (1996) = 12 coordinates;
    # the history covers exactly 3 of them -> novelty 9/12
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country WHERE Date.Year IN {1996}")
    qi = q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                    "WHERE Geo.Country IN {Greece} AND Date.Month IN {1996-01}")
    qj = q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                    "WHERE Geo.City IN {Rome} AND Date.Month IN {1996-01}")
    score, part = pdsn(q, [qi, qj])
    assert part.universe_size == 12
    assert part.covered_count == 3  # Athens, Thessaloniki, Rome in 1996-01
    assert score == pytest.approx(0.75)


def test_pdsn_overlapping_histories(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country WHERE Date.Year IN {1996}")
    qi = q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                    "WHERE Geo.Country IN {Greece} AND Date.Year IN {1996}")
    qj = q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                    "WHERE Geo.City IN {Rome} AND Date.Month IN {1996-01}")
    score, part = pdsn(q, [qi, qj])
    assert part.covered_count == 5  # 2x2 Greece block + Rome/1996-01
    assert score == pytest.approx(7 / 12)


def test_pdsn_counts_match_oracle(hand):
    # the three history signatures overlap pairwise, so union counting and
    # occurrence weighting both matter
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country")
    history = [
        q_of(hand, "SELECT avg(Amt) BY Geo.Country WHERE Geo.Country IN {Greece}"),
        q_of(hand, "SELECT avg(Amt) BY Geo.Country WHERE Date.Year IN {1996}"),
        q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                   "WHERE Geo.City IN {Rome, Paris} AND Date.Month IN {1997-01}"),
    ]
    ocube = oracles.OCube([oracles.ODim("Geo", ["City", "Country"], HAND_GEO),
                           oracles.ODim("Date", ["Month", "Year"], HAND_DATE)],
                          ["Amt"])
    aggs = (("avg", "Amt"),)
    spec = oracles.QSpec((), ("Country", "ALL"), aggs)
    specs = [
        oracles.QSpec((("Geo", "Country", frozenset({"Greece"})),),
                      ("Country", "ALL"), aggs),
        oracles.QSpec((("Date", "Year", frozenset({"1996"})),),
                      ("Country", "ALL"), aggs),
        oracles.QSpec((("Geo", "City", frozenset({"Rome", "Paris"})),
                       ("Date", "Month", frozenset({"1997-01"}))),
                      ("Country", "ALL"), aggs),
    ]
    mine = oracles.detailed_signature(ocube, spec)
    theirs = [oracles.detailed_signature(ocube, s) for s in specs]
    score, part = pdsn(q, history)
    assert part.universe_size == len(mine)
    assert part.covered_count == len(mine & set().union(*theirs))
    assert part.covered_weight == sum(len(mine & t) for t in theirs)
    assert score == pytest.approx(oracles.pdsn(ocube, spec, specs))
    assert part.weighted_novel_fraction == pytest.approx(
        oracles.pdsn(ocube, spec, specs, weighted=True))


def test_pdsn_matches_oracle_random():
    for seed in range(30):
        inst = build_instance(seed)
        got, _ = pdsn(inst.q, inst.history)
        expected = oracles.pdsn(inst.ocube, inst.q_spec, inst.history_specs)
        assert got == pytest.approx(expected, abs=1e-12), seed


# --- pden / wdn -------------------------------------------------------------------

def test_pden_reference_value(pkdd_query, pkdd_history):
    score, part = pden(pkdd_query, pkdd_history)
    assert part.universe_size == 117
    assert part.covered_count == 35
    assert score == pytest.approx(0.70, abs=0.005)


def test_pden_empty_history_and_self(pkdd_query):
    score, _ = pden(pkdd_query, [])
    assert score == 1.0
    score, _ = pden(pkdd_query, [pkdd_query])
    assert score == 0.0


@pytest.fixture(scope="module")
def ten_rows():
    """Athens holds 4 fact rows, Thessaloniki 3, Paris 3."""
    geo = dimension_from_rows("Geo", ["City", "Country"], [
        ("Athens", "Greece"), ("Thessaloniki", "Greece"), ("Paris", "France"),
    ])
    date = dimension_from_rows("Date", ["Month", "Year"], [
        ("1996-01", "1996"), ("1996-02", "1996"),
        ("1997-01", "1997"), ("1997-02", "1997"),
    ])
    coords = [(0, m) for m in range(4)]
    coords += [(1, m) for m in range(3)]
    coords += [(2, m) for m in range(3)]
    vals = [(float(i),) for i in range(len(coords))]
    return DetailedCube((geo, date), ("Amt",),
                        np.array(coords, dtype=np.int32), np.array(vals))


def test_pden_partial_cover(ten_rows):
    # 10-row detailed area, history covers the 4 Athens rows
    q = q_of(ten_rows, "SELECT avg(Amt) BY Geo.Country")
    qi = q_of(ten_rows,
              "SELECT avg(Amt) BY Geo.Country WHERE Geo.City IN {Athens}")
    score, part = pden(q, [qi])
    assert part.universe_size == 10
    assert part.covered_count == 4
    assert score == pytest.approx(0.6)


def test_wdn_weighting(ten_rows):
    # history covers 4 of 10 cells; one covered cell appears in two queries
    q = q_of(ten_rows, "SELECT avg(Amt) BY Geo.Country")
    qi = q_of(ten_rows,
              "SELECT avg(Amt) BY Geo.Country WHERE Geo.City IN {Athens}")
    qj = q_of(ten_rows, "SELECT avg(Amt) BY Geo.Country "
                        "WHERE Geo.City IN {Athens} AND Date.Month IN {1996-01}")
    unweighted, part = pden(q, [qi, qj])
    score = part.weighted_novel_fraction
    # novel weight 6; covered weights: 3 Athens cells once + 1996-01 twice
    assert part.covered_weight == 5.0
    assert score == pytest.approx(6 / 11)
    assert score <= unweighted


def test_syntactic_extensional_agree_on_full_product():
    """When the fact table is the full coordinate product, signatures and
    cells coincide, so pdsn equals pden."""
    geo = dimension_from_rows("Geo", ["City", "Country"], [
        ("Athens", "Greece"), ("Paris", "France"), ("Rome", "Italy"),
    ])
    date = dimension_from_rows("Date", ["Month", "Year"], [
        ("1996-01", "1996"), ("1996-02", "1996"), ("1997-01", "1997"),
    ])
    coords = [(c, m) for c in range(3) for m in range(3)]
    cube = DetailedCube((geo, date), ("Amt",),
                        np.array(coords, dtype=np.int32),
                        np.array([(float(i),) for i in range(9)]))
    q = q_of(cube, "SELECT avg(Amt) BY Geo.Country WHERE Date.Year IN {1996}")
    history = [
        q_of(cube, "SELECT avg(Amt) BY Geo.Country "
                   "WHERE Geo.Country IN {Greece}"),
        q_of(cube, "SELECT avg(Amt) BY Geo.Country "
                   "WHERE Geo.City IN {Paris} AND Date.Month IN {1996-01}"),
    ]
    s_syn, _ = pdsn(q, history)
    s_ext, _ = pden(q, history)
    assert s_syn == s_ext


def test_same_level_weighted_variant(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                   "WHERE Geo.Country IN {Greece, France}")
    qi = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                    "WHERE Geo.Country IN {Greece}")
    plain, part = same_level_novelty(q, [qi, qi], "syntactic")
    weighted = part.weighted_novel_fraction
    # the two Greece coordinates are each seen twice
    assert part.covered_weight == 4.0
    assert weighted == pytest.approx(2 / 6)
    assert weighted <= plain


def test_pden_matches_oracle_random():
    for seed in range(30):
        inst = build_instance(seed)
        got, part = pden(inst.q, inst.history)
        expected = oracles.pden(inst.ocube, inst.q_spec, inst.history_specs)
        assert got == pytest.approx(expected, abs=1e-12)
        got_w = part.weighted_novel_fraction
        expected_w = oracles.pden(inst.ocube, inst.q_spec, inst.history_specs,
                                  weighted=True)
        assert got_w == pytest.approx(expected_w, abs=1e-12)


# --- belief novelty ---------------------------------------------------------------

def _store(cube, *texts):
    return BeliefStore([qlang.parse_belief(t, cube) for t in texts])


def test_belief_novelty_empty_store(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year")
    for mode in ("same_level", "detailed", "arbitrary"):
        score, _ = belief_novelty(q, BeliefStore(), 0.5, mode)
        assert score == 1.0


def test_belief_novelty_quarter_known(hand):
    # 4-cell result Greece/France x 1996/1997; one cell carries a 70% belief
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                   "WHERE Geo.Country IN {Greece, France}")
    assert evaluate(q).size == 4
    store = _store(hand, "P(Amt IN [80..100) | Country=Greece, Year=1996) = 0.7")
    score, part = belief_novelty(q, store, 0.5, "same_level")
    assert part.covered_count == 1
    assert score == 0.75
    score_arb, _ = belief_novelty(q, store, 0.5, "arbitrary")
    assert score_arb == 0.75


def test_belief_novelty_all_known(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                   "WHERE Geo.Country IN {Greece}")
    store = _store(
        hand,
        "P(Amt IN {1} | Country=Greece, Year=1996) = 0.9",
        "P(Amt IN {1} | Country=Greece, Year=1997) = 0.9",
    )
    score, _ = belief_novelty(q, store, 0.5, "same_level")
    assert score == 0.0


def test_belief_novelty_threshold(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                   "WHERE Geo.Country IN {Greece, France}")
    store = _store(hand, "P(Amt IN [80..100) | Country=Greece, Year=1996) = 0.7")
    score_hi, _ = belief_novelty(q, store, 0.8, "same_level")
    assert score_hi == 1.0


def test_belief_novelty_detailed_mode(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country "
                   "WHERE Geo.City IN {Athens, Paris}")
    store = _store(
        hand,
        "P(Amt IN {5} | City=Athens, Month=1996-01) = 0.9",
        "P(Amt IN {5} | City=Athens, Month=1996-02) = 0.9",
    )
    score, part = belief_novelty(q, store, 0.5, "detailed")
    assert part.universe_size == 8  # detailed area rows of the two cities
    assert part.covered_count == 2
    assert score == 0.75


def test_belief_novelty_skips_wrong_levels(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                   "WHERE Geo.Country IN {Greece}")
    store = _store(
        hand,
        "P(Amt IN {5} | City=Athens, Year=1996) = 0.9",    # below groupers
        "P(Amt IN {5}) = 0.9",                             # ALL/ALL: above
    )
    score, part = belief_novelty(q, store, 0.5, "same_level")
    assert score == 1.0
    assert part.skipped_statements == 2
    # arbitrary mode can use the city-level statement but not the ALL one
    score_arb, part_arb = belief_novelty(q, store, 0.5, "arbitrary")
    assert part_arb.skipped_statements == 1
    assert score_arb == 1.0  # one city is not full coverage of Greece


def test_belief_novelty_arbitrary_full_coverage(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year "
                   "WHERE Geo.Country IN {Greece} AND Date.Year IN {1996}")
    store = _store(
        hand,
        "P(Amt IN {5} | City=Athens, Year=1996) = 0.9",
        "P(Amt IN {5} | City=Thessaloniki, Year=1996) = 0.9",
    )
    score, part = belief_novelty(q, store, 0.5, "arbitrary")
    assert part.covered_count == 1
    assert score == 0.0


def test_belief_novelty_monotone_in_pi(hand):
    q = q_of(hand, "SELECT avg(Amt) BY Geo.Country, Date.Year")
    store = _store(
        hand,
        "P(Amt IN {1} | Country=Greece, Year=1996) = 0.3",
        "P(Amt IN {1} | Country=France, Year=1996) = 0.6",
        "P(Amt IN {1} | Country=Italy, Year=1997) = 0.9",
    )
    scores = [belief_novelty(q, store, pi, "same_level")[0]
              for pi in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert scores == sorted(scores)


# --- full coverage ------------------------------------------------------------------

def test_full_coverage_partition(hand):
    dims = hand.dims
    greece_1996 = Cell(("Country", "Year"), (0, 0))
    athens = (("City", 0), ("Year", 0))
    thessaloniki = (("City", 1), ("Year", 0))
    assert full_coverage(dims, greece_1996, [athens, thessaloniki])
    assert not full_coverage(dims, greece_1996, [athens])


def test_full_coverage_redundant_mixed_levels(hand):
    dims = hand.dims
    greece_1996 = Cell(("Country", "Year"), (0, 0))
    cover = [
        (("Country", 0), ("Year", 0)),          # the cell itself
        (("City", 0), ("Month", 0)),            # redundant finer piece
    ]
    assert full_coverage(dims, greece_1996, cover)


def test_full_coverage_level_mismatch(hand):
    dims = hand.dims
    athens_1996 = Cell(("City", "Year"), (0, 0))
    above = (("Country", 0), ("Year", 0))
    with pytest.raises(LevelMismatch):
        full_coverage(dims, athens_1996, [above])


# --- partition invariants ------------------------------------------------------------

def test_partitions_cover_universe_random():
    for seed in range(20):
        inst = build_instance(seed)
        for fn in (pden, pdsn):
            _, part = fn(inst.q, inst.history)
            assert part.covered_count + part.novel_count == part.universe_size
            assert min(part.covered_count, part.novel_count) >= 0
