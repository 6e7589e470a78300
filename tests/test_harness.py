import json
import sys

import pytest

import oracles
from conftest import PKDD
from cubeinterest.cli import main
from cubeinterest.context import (
    HistoryEntry,
    SessionContext,
    cell_anchor,
    filter_history_same_measures,
)
from cubeinterest.engine import CellSet, detailed_area_keys, evaluate
from cubeinterest.errors import EmptyResult
from cubeinterest.harness import (
    AssessConfig,
    BenchConfig,
    generate_star,
    generate_star_data,
    interestingness_vector,
    run_benchmark,
)
from cubeinterest import novelty, peculiarity, qlang, relevance, surprise


def test_reference_vector(pkdd_context, pkdd_query):
    report = interestingness_vector(pkdd_query, pkdd_context)
    assert report.vector["novelty"] == pytest.approx(0.70, abs=0.005)
    assert report.vector["relevance"] == pytest.approx(0.30, abs=0.005)
    assert report.vector["peculiarity"] == pytest.approx(0.46, abs=0.005)
    assert report.vector["surprise"] == pytest.approx(0.25, abs=0.005)


def test_empty_context_vector(pkdd_cube, pkdd_query):
    ctx = SessionContext(pkdd_cube)
    report = interestingness_vector(pkdd_query, ctx)
    assert report.vector["novelty"] == 1.0
    assert report.vector["relevance"] == 0.0
    assert report.vector["peculiarity"] is None
    assert report.vector["surprise"] is None


def test_repeated_query_complementarity(pkdd_cube, pkdd_query):
    ctx = SessionContext(pkdd_cube)
    ctx.history.append(pkdd_query)
    report = interestingness_vector(pkdd_query, ctx)
    assert report.vector["novelty"] == 0.0
    assert report.vector["relevance"] == 1.0
    assert report.scores["novelty"]["fslsn"] == 0
    assert report.scores["relevance"]["fsslr"] == 1.0


def test_vector_matches_individual_metrics(pkdd_context, pkdd_query):
    """The composite path must not drift from single-metric calls."""
    report = interestingness_vector(pkdd_query, pkdd_context)
    history = pkdd_context.history.queries()
    assert report.scores["novelty"]["pden"] == \
        novelty.pden(pkdd_query, history)[0]
    assert report.scores["relevance"]["pder"] == \
        relevance.detailed_relevance(pkdd_query, history)
    assert report.scores["peculiarity"]["syntactic"] == \
        peculiarity.syntactic_peculiarity(pkdd_query, history)
    assert report.scores["peculiarity"]["jaccard"] == \
        peculiarity.jaccard_peculiarity(pkdd_query, history, k=2)
    assert report.scores["surprise"]["value_avg_norm"] == \
        surprise.normalized_value_surprise(
            evaluate(pkdd_query), pkdd_context.expected_values)


def test_goal_switches_relevance_headline(pkdd_context, pkdd_query, pkdd_cube):
    pkdd_context.load_goal_file(PKDD / "goal.txt")
    report = interestingness_vector(pkdd_query, pkdd_context)
    assert report.vector["relevance"] == report.scores["relevance"]["gbdsr"]
    assert report.scores["relevance"]["pder"] == pytest.approx(0.30, abs=0.005)


def test_belief_and_label_metrics_present(pkdd_context, pkdd_query, pkdd_cube):
    from cubeinterest.context import load_expected_labels

    pkdd_context.load_belief_file(PKDD / "beliefs.txt")
    pkdd_context.load_label_rules(PKDD / "label_rules.txt")
    pkdd_context.expected_labels = load_expected_labels(
        PKDD / "expected_labels.csv", pkdd_cube)
    report = interestingness_vector(pkdd_query, pkdd_context)
    belief = report.scores["novelty"]["belief"]
    assert belief["mode"] == "arbitrary"
    assert 0.0 <= belief["score"] <= 1.0
    assert report.scores["surprise"]["prob_interval"] is not None
    assert report.scores["surprise"]["label"] is not None
    assert isinstance(report.scores["surprise"]["label_strict"], bool)
    assert report.scores["surprise"]["label_prob_strict"] is not None
    assert report.scores["surprise"]["label_prob_loose"] is not None


def test_metric_subset(pkdd_context, pkdd_query):
    cfg = AssessConfig(metrics=("novelty",))
    report = interestingness_vector(pkdd_query, pkdd_context, cfg)
    assert "novelty" in report.scores
    assert "peculiarity" not in report.scores
    assert report.vector["peculiarity"] is None


def test_report_json_round_trip(pkdd_context, pkdd_query):
    report = interestingness_vector(pkdd_query, pkdd_context)
    payload = json.loads(report.to_json())
    assert payload["query"].startswith("SELECT avg(Amt)")
    assert set(payload["scores"]["novelty"]) >= {
        "fslsn", "pslsn", "pslen", "fsdn", "pdsn", "pden", "wdn", "belief"}
    assert set(payload["scores"]["relevance"]) >= {
        "gbdsr", "fsslr", "psslr", "fdsr", "pdsr", "pder"}
    assert set(payload["scores"]["peculiarity"]) >= {
        "syntactic", "value_cr", "value_hausdorff", "jaccard"}
    assert set(payload["scores"]["surprise"]) >= {
        "value", "value_avg_norm", "prob_exact", "prob_interval",
        "label", "label_strict", "label_prob_strict", "label_prob_loose"}
    assert all(v >= 0 for v in payload["timings_ms"].values())
    assert payload["config"]["jaccard_k"] == 2


def test_timings_exclude_nothing_expensive(pkdd_context, pkdd_query):
    report = interestingness_vector(pkdd_query, pkdd_context)
    assert "novelty.pden" in report.timings_ms
    assert "relevance.pder" in report.timings_ms
    assert "peculiarity.jaccard" in report.timings_ms


def test_report_deterministic_modulo_timings(pkdd_context, pkdd_query):
    a = interestingness_vector(pkdd_query, pkdd_context).to_dict()
    b = interestingness_vector(pkdd_query, pkdd_context).to_dict()
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert a == b


# --- generator ---------------------------------------------------------------------

def test_generate_star_single_row(tmp_path):
    paths = generate_star(1, seed=3, out_dir=tmp_path / "one")
    facts = (tmp_path / "one" / "facts.csv").read_text().splitlines()
    assert len(facts) == 2  # header + one row
    account, status, day, amt = facts[1].split(",")
    accounts = (tmp_path / "one" / "schema" / "Account.csv").read_text().splitlines()
    assert any(line.startswith(account + ",") for line in accounts[1:])
    assert float(amt) > 0


def test_generate_star_deterministic(tmp_path):
    a = generate_star(500, seed=11, out_dir=tmp_path / "a")
    b = generate_star(500, seed=11, out_dir=tmp_path / "b")
    for name in a:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    c = generate_star(500, seed=12, out_dir=tmp_path / "c")
    assert (tmp_path / "a" / "facts.csv").read_bytes() != \
        (tmp_path / "c" / "facts.csv").read_bytes()


def test_generate_star_cardinalities_within_domains():
    data = generate_star_data(10_000, seed=5)
    account, status, date = data.dims
    assert data.coords.shape == (10_000, 3)
    assert data.coords[:, 0].max() < account.size("Account")
    assert data.coords[:, 1].max() < status.size("Status")
    assert data.coords[:, 2].max() < date.size("Day")
    cube = data.cube()  # uniqueness is re-validated on construction
    assert len(cube) == 10_000
    amounts = data.amounts
    assert amounts.min() >= 1_000 and amounts.max() <= 1_000_000


def test_generated_files_load_back(tmp_path):
    from cubeinterest.engine import load_facts
    from cubeinterest.mdm import load_dimension

    out = tmp_path / "star"
    generate_star(200, seed=9, out_dir=out)
    dims = [load_dimension(out / "schema" / f"{n}.csv")
            for n in ("Account", "Status", "Date")]
    cube = load_facts(out / "facts.csv", dims)
    assert len(cube) == 200
    q = qlang.parse_query(
        "SELECT avg(Amt) BY Account.Region, Date.Year", cube)
    assert evaluate(q).size > 0


# --- benchmark ----------------------------------------------------------------------

def test_run_benchmark_small():
    cfg = BenchConfig(base_sizes=(2_000, 4_000), history_sizes=(1, 2),
                      seed=7, repetitions=2)
    report = run_benchmark(cfg)
    assert len(report["cells"]) == 2 * 2 * 4
    for cell in report["cells"]:
        assert cell["median_ms"] >= 0
        assert len(cell["times_ms"]) == 2
        if cell["metric"] in ("pden", "pder", "jaccard", "gbdsr"):
            assert cell["score"] is not None
    pden_scores = {(c["base_size"], c["history_size"]): c["score"]
                   for c in report["cells"] if c["metric"] == "pden"}
    pder_scores = {(c["base_size"], c["history_size"]): c["score"]
                   for c in report["cells"] if c["metric"] == "pder"}
    for key, nov in pden_scores.items():
        assert nov + pder_scores[key] == 1.0
    assert "scaling" in report and "pden" in report["scaling"]


def test_union_of_thirteen_history_signatures():
    # 13 one-month history queries whose detailed signatures all overlap a
    # 1996 query: exact union counting covers the whole year
    cube = generate_star_data(20_000, 7).cube()
    ctx = SessionContext(cube)
    for m in range(13):
        ctx.history.append(qlang.parse_query(
            "SELECT avg(Amt) BY Account.District, Date.Month "
            f"WHERE Date.Month IN {{1996-{m % 12 + 1:02d}}}", cube))
    q = qlang.parse_query("SELECT avg(Amt) BY Account.District, Date.Month "
                          "WHERE Date.Year IN {1996}", cube)
    report = interestingness_vector(q, ctx)
    assert report.scores["novelty"]["pdsn"] == 0.0
    assert report.scores["relevance"]["pdsr"] == 1.0


def test_value_peculiarity_beyond_a_million_cell_pairs():
    # District x Month over two years: 1848 cells on both sides, so 3.4M
    # cell pairs; the same cells aggregated with sum are at distance 0
    cube = generate_star_data(100_000, 7).cube()
    ctx = SessionContext(cube)
    text = ("SELECT {}(Amt) BY Account.District, Date.Month "
            "WHERE Date.Year IN {{1996, 1997}}")
    ctx.history.append(qlang.parse_query(text.format("sum"), cube))
    q = qlang.parse_query(text.format("avg"), cube)
    assert evaluate(q).size ** 2 > peculiarity.PAIR_CAP
    report = interestingness_vector(q, ctx)
    assert report.scores["peculiarity"]["value_cr"] == 0.0
    assert report.scores["peculiarity"]["value_hausdorff"] == 0.0


def _count_calls(monkeypatch, orig) -> list:
    """Record the first argument of every call of `orig`, at every module
    binding of the function."""
    calls = []

    def counted(first, *args, **kwargs):
        calls.append(first)
        return orig(first, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "cubeinterest" or name.startswith("cubeinterest."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _count_scans(monkeypatch) -> list:
    """Record the query of every `selection_mask` call."""
    from cubeinterest import engine

    return _count_calls(monkeypatch, engine.selection_mask)


def _plain_scores(q, ctx) -> dict:
    """The harness's scores recomputed by plain metric calls."""
    history = ctx.history.queries()
    same = [h for h in history if sorted(h.aggregates) == sorted(q.aggregates)]
    pden, part = novelty.pden(q, same)
    value_cr, value_hausdorff = peculiarity.value_peculiarity(q, history)
    return {
        ("novelty", "pden"): pden,
        ("novelty", "wdn"): part.weighted_novel_fraction,
        ("novelty", "pslen"): novelty.same_level_novelty(
            q, history, "extensional")[0],
        ("novelty", "fsdn"): novelty.fsdn(q, history),
        ("novelty", "pdsn"): novelty.pdsn(q, same)[0],
        ("relevance", "pder"): relevance.detailed_relevance(q, history),
        ("relevance", "pdsr"): relevance.detailed_relevance(
            q, history, basis="syntactic"),
        ("peculiarity", "jaccard"): peculiarity.jaccard_peculiarity(
            q, history, k=2),
        ("peculiarity", "value_cr"): value_cr,
        ("peculiarity", "value_hausdorff"): value_hausdorff,
    }


QUERY = "SELECT {} BY {} WHERE {}"
# selects no fact row, so both its detailed area and its result are empty
EMPTY_WHERE = "Account.Account IN {A0001} AND Date.Day IN {1996-03-05}"


@pytest.fixture(scope="module")
def star_cube():
    return generate_star_data(20_000, 7).cube()


def _star_session(cube):
    """Four history queries, two appended with their results, two beliefs,
    and the query to assess."""
    ctx = SessionContext(cube)
    for agg, by, where, cached in (
            ("avg(Amt)", "Account.District, Date.Month",
             "Date.Month IN {1996-01, 1996-02}", True),
            ("sum(Amt)", "Account.Region", "Account.Region IN {R1, R2}", False),
            ("avg(Amt)", "Account.District, Date.Year",
             "Account.Region IN {R3} AND Date.Year IN {1996, 1997}", False),
            ("count(Amt)", "Date.Month", "Status.Status IN {A}", True)):
        qi = qlang.parse_query(QUERY.format(agg, by, where), cube)
        ctx.history.append(qi, evaluate(qi) if cached else None)
    for belief in ("P(Amt IN [1000..50000] | District=D01, Month=1996-01) = 0.8",
                   "P(Amt IN {5} | Account=A0002, Month=1996-03) = 0.9"):
        ctx.beliefs.add(qlang.parse_belief(belief, cube))
    q = qlang.parse_query(QUERY.format(
        "avg(Amt)", "Account.District, Date.Month", "Date.Year IN {1996}"), cube)
    return ctx, q


def _empty_query(cube):
    q = qlang.parse_query(QUERY.format(
        "avg(Amt)", "Account.District, Date.Month", EMPTY_WHERE), cube)
    assert detailed_area_keys(q).size == 0 and evaluate(q).size == 0
    return q


def test_one_whole_history_partition_per_assessment(monkeypatch, star_cube):
    """`fsdn`, `fdsr` and `pdsr` are read from one `novelty.pdsn` partition
    against the whole history, and equal plain `fsdn` and full and partial
    syntactic detailed relevance calls; novelty adds the same-measure
    `pdsn` partition."""
    ctx, q = _star_session(star_cube)
    calls = _count_calls(monkeypatch, novelty.pdsn)
    for covered in (False, True):
        if covered:  # an unfiltered query contains q's detailed signature
            ctx.history.append(
                qlang.parse_query("SELECT sum(Amt) BY Date.Year", star_cube))
        history = ctx.history.queries()
        plain = novelty.fsdn(q, history)
        full = relevance.detailed_relevance(q, history, mode="full")
        partial = relevance.detailed_relevance(q, history, mode="partial",
                                               basis="syntactic")
        assert plain == (0 if covered else 1)
        assert (partial == 1.0) if covered else (0.0 < partial < 1.0)
        calls.clear()
        report = interestingness_vector(q, ctx)
        assert len(calls) == 2
        fsdn = report.scores["novelty"]["fsdn"]
        fdsr = report.scores["relevance"]["fdsr"]
        assert fsdn == plain and fdsr == full == 1.0 - fsdn
        assert report.scores["relevance"]["pdsr"] == partial
        for metrics, n in ((("novelty",), 2), (("relevance",), 1),
                           (("peculiarity", "surprise"), 0)):
            calls.clear()
            interestingness_vector(q, ctx, AssessConfig(metrics=metrics))
            assert len(calls) == n


def test_one_probe_per_history_entry(monkeypatch, star_cube):
    """Same-measure `pden`, `pder` and Jaccard share one probe of each
    history entry per assessment (each probe marks the entry's rows once),
    and the history's entries keep no probes afterwards."""
    ctx, q = _star_session(star_cube)
    entries = ctx.history.entries
    assert 0 < len(filter_history_same_measures(entries, q)) < len(entries)
    marked = []
    rows_over = HistoryEntry.rows_over

    def counted(self, cube):
        marked.append(self)
        return rows_over(self, cube)

    monkeypatch.setattr(HistoryEntry, "rows_over", counted)
    for _ in range(2):
        marked.clear()
        report = interestingness_vector(q, ctx)
        assert sorted(map(id, marked)) == sorted(map(id, entries))
        assert not any(e._hits for e in entries)
        assert report.scores["novelty"]["pden"] is not None
        assert report.scores["peculiarity"]["jaccard"] is not None


def test_second_assessment_scans_the_query_alone(monkeypatch, star_cube):
    ctx, q = _star_session(star_cube)
    calls = _count_scans(monkeypatch)

    def assess_twice() -> list:
        reports = [interestingness_vector(q, ctx)]
        calls.clear()
        reports.append(interestingness_vector(q, ctx))
        # the query's own rows, for its result and detailed area alike,
        # and no history query
        assert len(calls) == 1 and calls[0] is q
        return reports

    belief, _ = novelty.belief_novelty(q, ctx.beliefs, 0.5, "arbitrary")

    def check(reports):
        expected = _plain_scores(q, ctx)
        for report in reports:
            for (group, key), value in expected.items():
                assert report.scores[group][key] == value, (group, key)
            assert report.scores["novelty"]["belief"]["score"] == belief

    check(assess_twice())

    # an entry whose detailed area and result are empty
    ctx.history.append(_empty_query(star_cube))
    check(assess_twice())
    history = ctx.history.queries()
    assert peculiarity.jaccard_peculiarity(
        HistoryEntry(q), ctx.history.entries, k=2) == \
        peculiarity.jaccard_peculiarity(q, history, k=2)


def test_append_with_result_selects_the_entry_once(monkeypatch, star_cube):
    """`append` selects a supplied result's rows while it checks the result,
    so the next assessment selects the assessed query's rows alone."""
    ctx, q = _star_session(star_cube)
    interestingness_vector(q, ctx)
    q2 = qlang.parse_query(QUERY.format(
        "avg(Amt)", "Account.Region", "Date.Year IN {1997}"), star_cube)
    ctx.history.append(q2, evaluate(q2))
    calls = _count_scans(monkeypatch)
    report = interestingness_vector(q, ctx)
    assert len(calls) == 1 and calls[0] is q
    for (group, key), value in _plain_scores(q, ctx).items():
        assert report.scores[group][key] == value, (group, key)


def test_detailed_belief_novelty_reads_the_entry_rows(monkeypatch, star_cube):
    """Detailed belief novelty aggregates the rows the entry holds, so with
    them memoised it selects nothing, and it scores as a plain call does."""
    ctx, q = _star_session(star_cube)
    mine = HistoryEntry(q)
    row = star_cube.coords[mine.rows[0]]
    where = ", ".join(f"{d.base_level.name}={d.label_of(d.base_level, int(i))}"
                      for d, i in zip(star_cube.dims, row))
    ctx.beliefs.add(qlang.parse_belief(f"P(Amt IN {{5}} | {where}) = 0.9",
                                       star_cube))
    plain = novelty.belief_novelty(q, ctx.beliefs, 0.5, "detailed")
    assert plain[1].covered_count == 1
    assert plain[1].universe_size == len(mine.rows)
    calls = _count_scans(monkeypatch)
    assert novelty.belief_novelty(mine, ctx.beliefs, 0.5, "detailed") == plain
    assert calls == []


def test_one_profile_walk_per_history_result(monkeypatch, star_cube):
    """Both value-peculiarity scores come from one walk over the profiles
    per non-empty history result."""
    ctx, q = _star_session(star_cube)
    ctx.history.append(_empty_query(star_cube))
    walks = []
    orig = peculiarity._profiles

    def counted(a, b):
        walks.append((a, b))
        return orig(a, b)

    monkeypatch.setattr(peculiarity, "_profiles", counted)
    interestingness_vector(q, ctx)
    nonempty = [e for e in ctx.history.entries if e.result_cells.size]
    assert len(walks) == len(nonempty) == len(ctx.history) - 1


def _index_calls(monkeypatch) -> list:
    """Record (cell set, depths, index returned) per `CellSet.index` call.
    The list holds every index returned, so an index built anew is a new
    object and one the set kept is the same object again."""
    calls = []
    orig = CellSet.index

    def counted(self, depths):
        out = orig(self, depths)
        calls.append((self, tuple(depths), out))
        return out

    monkeypatch.setattr(CellSet, "index", counted)
    return calls


def _builds(calls, cells) -> dict:
    """Depth tuple -> number of distinct indexes returned for `cells`."""
    out = {}
    for c, depths, index in calls:
        if c is cells:
            out.setdefault(depths, set()).add(id(index))
    return {depths: len(ids) for depths, ids in out.items()}


def test_query_result_rolled_once_per_depth_tuple(monkeypatch, star_cube):
    """One value-peculiarity call builds q's result index at most once per
    distinct depth tuple, however many members' profiles share it, and
    scores as one plain `nearest_cell_distances` call per member does."""
    ctx, q = _star_session(star_cube)
    entries = ctx.history.entries
    results = [e.result_cells for e in entries]
    assert len({r.levels for r in results}) >= 3

    def fresh(c):
        return CellSet(c.dims, c.levels, c.coords)

    plain = [peculiarity.nearest_cell_distances(fresh(r), evaluate(q))
             for r in results]
    mine = HistoryEntry(q)
    cells = mine.result_cells
    calls = _index_calls(monkeypatch)
    got = peculiarity.value_peculiarity(mine, entries)
    builds = _builds(calls, cells)
    assert builds and set(builds.values()) == {1}
    assert sum(c is cells for c, _, _ in calls) > len(builds)
    assert got == (sum(rq.mean() for rq, _ in plain) / len(plain),
                   sum(max(rq.max(), qr.max()) for rq, qr in plain) / len(plain))


def test_second_assessment_builds_no_history_index(monkeypatch, star_cube):
    """History results never change, so the indexes the first assessment
    builds on them serve the second, which builds none; it scores as the
    first does."""
    ctx, q = _star_session(star_cube)
    calls = _index_calls(monkeypatch)
    first = interestingness_vector(q, ctx)
    kept = {(id(c), depths): index for c, depths, index in calls}
    results = [e.result_cells for e in ctx.history.entries]
    assert any(c is r for c, _, _ in calls for r in results)
    calls.clear()
    second = interestingness_vector(q, ctx)
    mine = [(c, d, x) for c, d, x in calls if any(c is r for r in results)]
    assert mine
    assert all(kept.get((id(c), d)) is x for c, d, x in mine)
    assert second.scores == first.scores


def test_plain_calls_keep_no_memo(monkeypatch, star_cube):
    """Bare queries get fresh entries per call: every plain call scans q and
    each history query again."""
    ctx, q = _star_session(star_cube)
    history = ctx.history.queries()
    calls = _count_scans(monkeypatch)
    for metric in (novelty.pden, peculiarity.jaccard_peculiarity,
                   peculiarity.value_peculiarity):
        for _ in range(2):
            calls.clear()
            metric(q, history)
            assert len(calls) == 1 + len(history), metric.__name__


def test_entries_and_bare_queries_agree(star_cube):
    ctx, q = _star_session(star_cube)
    ctx.history.append(_empty_query(star_cube))
    entries, history = ctx.history.entries, ctx.history.queries()
    assert any(e.result is not None for e in entries)
    keep = novelty.comparable_same_level(q, history)
    assert keep
    for basis in ("syntactic", "extensional"):
        assert novelty.same_level_partition(
            HistoryEntry(q), [entries[i] for i in keep], basis) == \
            novelty.same_level_partition(q, [history[i] for i in keep], basis)
    # whole (score, partition) results, so the weighted variants agree too
    calls = [(novelty.fsdn, {}), (peculiarity.value_peculiarity, {}),
             (novelty.pdsn, {}), (novelty.pden, {})]
    calls += [(novelty.same_level_novelty, {"basis": basis})
              for basis in ("syntactic", "extensional")]
    calls += [(relevance.detailed_relevance, {"mode": mode, "basis": basis})
              for mode, basis in (("full", "extensional"),
                                  ("partial", "syntactic"),
                                  ("partial", "extensional"))]
    calls += [(peculiarity.jaccard_peculiarity, {"k": k})
              for k in range(1, len(history) + 1)]
    for fn, kwargs in calls:
        assert fn(HistoryEntry(q), entries, **kwargs) == \
            fn(q, history, **kwargs), (fn.__name__, kwargs)
    for mode in ("same_level", "detailed", "arbitrary"):
        assert novelty.belief_novelty(HistoryEntry(q), ctx.beliefs, 0.5, mode) \
            == novelty.belief_novelty(q, ctx.beliefs, 0.5, mode), mode


def test_empty_results_leave_value_peculiarity(star_cube):
    """An empty history result leaves the collection; an empty query result,
    or a collection with no result left, gives None. The rest of the vector
    is scored either way."""
    ctx, q = _star_session(star_cube)
    empty = _empty_query(star_cube)
    nonempty = ctx.history.queries()
    ctx.history.append(empty)
    scores = interestingness_vector(q, ctx).scores["peculiarity"]
    expected = peculiarity.value_peculiarity(q, nonempty)
    assert expected is not None
    assert (scores["value_cr"], scores["value_hausdorff"]) == expected
    assert scores["jaccard"] is not None

    report = interestingness_vector(empty, ctx)
    assert report.scores["peculiarity"]["value_cr"] is None
    assert report.scores["peculiarity"]["value_hausdorff"] is None
    assert report.scores["peculiarity"]["syntactic"] is not None
    assert report.scores["novelty"]["pden"] == 1.0

    alone = SessionContext(star_cube)
    alone.history.append(empty)
    scores = interestingness_vector(q, alone).scores["peculiarity"]
    assert scores["value_cr"] is None and scores["value_hausdorff"] is None
    assert scores["jaccard"] == 1.0
    with pytest.raises(EmptyResult):
        peculiarity.hausdorff_distance(evaluate(empty), evaluate(q))


def test_two_aggregates_of_one_measure_score_the_whole_vector(star_cube):
    """Expectations of every kind on Amt score both min(Amt) and sum(Amt),
    and each score is the reference fold over both columns."""
    ctx = SessionContext(star_cube)
    ctx.history.append(qlang.parse_query(QUERY.format(
        "avg(Amt)", "Account.District, Date.Month", "Date.Year IN {1997}"),
        star_cube))
    q = qlang.parse_query(QUERY.format(
        "min(Amt), sum(Amt)", "Account.District, Date.Month",
        "Date.Year IN {1996}"), star_cube)
    where = "District=D01, Month=1996-01"
    anchor = qlang.parse_belief(f"P(Amt IN {{1}} | {where}) = 1",
                                star_cube).anchor
    ctx.expected_values.register(anchor, "Amt", 1000.0)
    ctx.expected_labels.register(anchor, "Amt", "Low")
    schemes, ctx.label_domain = qlang.parse_label_rules(
        "Amt: [0..50000) -> Low\nAmt: [50000..1000000000] -> High\n"
        "ORDER Low < High\n")
    ctx.labeling_schemes.update(schemes)
    for target in ("Amt IN {1000}", "Amt IN [0..50000)", "label(Amt) = High"):
        ctx.beliefs.add(qlang.parse_belief(f"P({target} | {where}) = 0.5",
                                           star_cube))
    scores = interestingness_vector(q, ctx).scores["surprise"]

    ocells = [(cell_anchor(c.levels, c.ids), c.measures)
              for c in evaluate(q).iter_cells()]
    rules = {"Amt": [(0, 50000, True, False, "Low"),
                     (50000, 1e9, True, True, "High")]}
    obeliefs = [(anchor, "Amt", "set", (1000.0,), 0.5),
                (anchor, "Amt", "interval", (0, 50000, True, False), 0.5),
                (anchor, "Amt", "label", "High", 0.5)]
    fold = ("max", "mean")
    want = {
        "value": oracles.cube_value_surprise(
            ocells, {anchor: {"Amt": 1000.0}}, *fold),
        "prob_exact": oracles.cube_probability_surprise(
            ocells, obeliefs, "set", *fold),
        "prob_interval": oracles.cube_probability_surprise(
            ocells, obeliefs, "interval", *fold),
        "label": oracles.cube_label_surprise(
            ocells, {anchor: {"Amt": "Low"}}, rules, None, *fold),
        "label_strict": oracles.strict_label_surprise(
            ocells, {anchor: {"Amt": "Low"}}, rules),
        "label_prob_strict": oracles.cube_prob_label_surprise(
            ocells, obeliefs, rules, None, *fold),
        "label_prob_loose": oracles.cube_prob_label_surprise(
            ocells, obeliefs, rules, ["Low", "High"], *fold),
    }
    assert want["value"] is not None
    for key, value in want.items():
        assert scores[key] == pytest.approx(value, rel=1e-12), key
    assert scores["value_avg_norm"] is None  # two aggregates


def test_repeated_aggregate_scores_the_surprise_headline():
    """`sum(Amt), sum(Amt)` evaluates to the one column `sum(Amt)`, so its
    headline is normalized value surprise, as for `sum(Amt)` alone."""
    cube = generate_star_data(2000, 7).cube()
    ctx = SessionContext(cube)
    for i, value in enumerate((1000.0, 5000.0, 20000.0, 80000.0), 1):
        anchor = qlang.parse_belief(
            f"P(Amt IN {{1}} | District=D0{i}, Month=1996-0{i}) = 1",
            cube).anchor
        ctx.expected_values.register(anchor, "Amt", value)
    q = qlang.parse_query(QUERY.format(
        "sum(Amt), sum(Amt)", "Account.District, Date.Month",
        "Date.Year IN {1996}"), cube)
    result = evaluate(q)
    assert list(result.measures) == ["sum(Amt)"]
    want = surprise.normalized_value_surprise(result, ctx.expected_values)
    assert want is not None
    report = interestingness_vector(q, ctx)
    assert report.vector["surprise"] == pytest.approx(want, rel=1e-12)


# --- CLI ---------------------------------------------------------------------------

def test_cli_assess_reference(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main([
        "assess",
        "--schema", str(PKDD / "schema"),
        "--facts", str(PKDD / "facts.csv"),
        "--history", str(PKDD / "session.txt"),
        "--expected", str(PKDD / "expected_values.csv"),
        "--query", (PKDD / "query.txt").read_text().strip(),
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["vector"]["novelty"] == pytest.approx(0.70, abs=0.005)
    assert payload["vector"]["relevance"] == pytest.approx(0.30, abs=0.005)
    assert payload["vector"]["peculiarity"] == pytest.approx(0.46, abs=0.005)
    assert payload["vector"]["surprise"] == pytest.approx(0.25, abs=0.005)
    assert "novelty" in capsys.readouterr().out


def test_cli_assess_full_context(tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "assess",
        "--schema", str(PKDD / "schema"),
        "--facts", str(PKDD / "facts.csv"),
        "--history", str(PKDD / "session.txt"),
        "--beliefs", str(PKDD / "beliefs.txt"),
        "--goal", str(PKDD / "goal.txt"),
        "--expected", str(PKDD / "expected_values.csv"),
        "--expected-labels", str(PKDD / "expected_labels.csv"),
        "--labels", str(PKDD / "label_rules.txt"),
        "--query", (PKDD / "query.txt").read_text().strip(),
        "--pi", "0.5", "--k", "2", "--weights", "0.5,0.35,0.15",
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["scores"]["relevance"]["gbdsr"] is not None
    assert payload["scores"]["novelty"]["belief"] is not None
    assert payload["scores"]["surprise"]["label_prob_loose"] is not None


def test_cli_metrics_subset_and_errors(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main([
        "assess",
        "--schema", str(PKDD / "schema"),
        "--facts", str(PKDD / "facts.csv"),
        "--history", str(PKDD / "session.txt"),
        "--query", "SELECT avg(Amt) BY Account.District",
        "--metrics", "novelty,relevance",
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload["scores"]) == {"novelty", "relevance"}
    rc = main([
        "assess",
        "--schema", str(PKDD / "schema"),
        "--facts", str(PKDD / "facts.csv"),
        "--history", str(PKDD / "session.txt"),
        "--query", "SELECT avg(Turnover) BY Account.District",
        "--out", str(out),
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def _assess_argv(*extra):
    return lambda out: [
        "assess",
        "--schema", str(PKDD / "schema"),
        "--facts", str(PKDD / "facts.csv"),
        "--history", str(PKDD / "session.txt"),
        "--query", (PKDD / "query.txt").read_text().strip(),
        "--out", str(out), *extra,
    ]


def _beliefs_argv(text):
    def argv(out):
        beliefs = out.parent / "beliefs.txt"
        beliefs.write_text(text, encoding="utf-8")
        return _assess_argv("--beliefs", str(beliefs))(out)
    return argv


@pytest.mark.parametrize("argv", [
    _assess_argv("--weights", "1,1,1"),
    _assess_argv("--weights", "a,b,c"),
    _assess_argv("--pi", "2", "--beliefs", str(PKDD / "beliefs.txt")),
    _assess_argv("--pi", "-0.5"),
    _assess_argv("--k", "0"),
    _assess_argv("--k", "-1"),
    _beliefs_argv("P(Amt IN {²}) = 0.5\n"),
    lambda out: ["bench", "--reps", "0", "--out", str(out)],
    lambda out: ["bench", "--base-sizes", "10,x", "--out", str(out)],
    lambda out: ["bench", "--history-sizes", "0", "--out", str(out)],
    lambda out: ["gen", "--rows", "0", "--out", str(out)],
], ids=["weights-sum", "weights-text", "pi-with-beliefs", "pi-alone",
        "k-zero", "k-negative", "belief-non-decimal-digit",
        "bench-reps", "bench-base-sizes", "bench-history-sizes", "gen-rows"])
def test_cli_bad_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv(out))
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_checks_k_before_loading(tmp_path, capsys):
    """`--k 0` is refused even where no Jaccard score would be computed."""
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    argv = _assess_argv("--k", "0")(tmp_path / "out")
    argv[argv.index("--history") + 1] = str(empty)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --k 0")
    assert not (tmp_path / "out").exists()


def test_cli_gen_and_bench(tmp_path, capsys):
    rc = main(["gen", "--rows", "100", "--seed", "3",
               "--out", str(tmp_path / "data")])
    assert rc == 0
    assert (tmp_path / "data" / "facts.csv").exists()
    rc = main(["bench", "--base-sizes", "1000,2000", "--history-sizes", "1,2",
               "--seed", "3", "--reps", "1",
               "--out", str(tmp_path / "bench.json")])
    assert rc == 0
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert len(payload["cells"]) == 16
