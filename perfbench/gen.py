"""Seeded input generator for the benchmark of record.

Owned by the benchmark on purpose: it does not call
`cubeinterest.harness.generate_star*`, so a change to the library cannot
silently change the inputs the library is measured on. Only the Python
standard library is used. Facts, queries and context each draw from their
own `random.Random` seeded by (workload, seed, purpose), so one seed fixes
every file byte for byte, and the query plan can be rebuilt without
re-drawing the facts.

The star schema has the same shape for every seed: 5000 accounts spread
evenly over 80 districts, 10 in each of 8 regions, four loan statuses and a
daily calendar over 1994-1998, with one measure `Amt`. The seed draws the
facts and the context's values, and relabels the regions, years and
statuses of a workload shape that is the same for every seed (see
`Members`). Every region holds 625 accounts, so a query's footprint depends
on how many regions and years it filters, not on which; the smallest (one
region, one status, one year) is about 228K detailed coordinates for every
seed, above the library's 200K materialization threshold.

Run as a script it writes one workload's files:

    python3 perfbench/gen.py --workload fact_scan --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import datetime
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

N_ACCOUNTS = 5000
N_DISTRICTS = 80
N_REGIONS = 8
STATUSES = ("A", "B", "C", "D")
YEARS = (1994, 1995, 1996, 1997, 1998)
N_MONTHS = 12 * len(YEARS)
AMT_LO, AMT_HI = 1_000.0, 1_000_000.0
LABELS = ("Low", "Mid", "High")

# Grouper clause of each result grain in the query mix.
GRAINS = {
    "district_month": "Account.District, Date.Month",
    "region_month": "Account.Region, Date.Month",
    "district_year": "Account.District, Date.Year",
    "region_status_year": "Account.Region, Status.Status, Date.Year",
}
GRAIN_ORDER = tuple(GRAINS)
# A round of a fixed-history workload is the 12 query patterns below, so
# every round carries the same mix of footprints and aggregates and its
# median does not hinge on which random queries came first. Pattern p fixes
# the grain (p % 4), the region count (1 + p // 4), the year count, whether
# one status is filtered, and the aggregate; the seed picks the members.
ROUND_LEN = 12
PATTERN_AGGS = ("avg", "sum", "avg", "count", "avg", "avg",
                "sum", "avg", "count", "avg", "avg", "avg")
SESSION_AGGS = ("avg",) * 4 + ("sum", "count")
# The warm-up query's pattern is fixed so that set-up does the same work
# for every seed.
WARMUP_PATTERN = 1

# `round_s` is a round's nominal length: a run of --seconds S executes
# max(1, S // round_s) rounds, a fixed amount of work however fast the
# program is, so every version is measured at the same percentiles.
# A run sets up again before every `setup_every`-th step and after the last,
# `setup_repeat` times in a row (default 1), keeping the last context.
WORKLOADS = {
    "fact_scan": dict(rows=500_000, history=10, rounds=4, round_s=30,
                      setup_every=6),
    "belief_dense": dict(rows=20_000, history=6, rounds=4, beliefs=48,
                         round_s=10, setup_every=6),
    "session_growth": dict(rows=100_000, rounds=8, steps=20, round_s=30,
                           setup_every=40, setup_repeat=2),
}


@dataclass(frozen=True)
class QuerySpec:
    """One query as drawn: region, year and status filters, grain, agg."""

    grain: str
    regions: tuple[str, ...]
    years: tuple[int, ...]
    statuses: tuple[str, ...] | None
    agg: str

    def text(self) -> str:
        where = [f"Account.Region IN {{{', '.join(self.regions)}}}"]
        if self.statuses:
            where.append(f"Status.Status IN {{{', '.join(self.statuses)}}}")
        where.append(f"Date.Year IN {{{', '.join(map(str, self.years))}}}")
        return (f"SELECT {self.agg}(Amt) BY {GRAINS[self.grain]} "
                f"WHERE {' AND '.join(where)}")


@dataclass
class Plan:
    """Query traffic of one workload and seed.

    `history` is the fixed history loaded from the session file (empty for
    session_growth). Each round is a list of queries: a balanced pass over
    the mix for fact_scan and belief_dense, one drill-down session that
    starts from an empty history for session_growth.
    """

    history: list[QuerySpec] = field(default_factory=list)
    rounds: list[list[QuerySpec]] = field(default_factory=list)
    warmup: QuerySpec | None = None


def _rng(workload: str, seed: int | str, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def _shape_rng(workload: str, purpose: str) -> random.Random:
    """Draws the workload's shape, which is the same for every seed."""
    return _rng(workload, "shape", purpose)


def _region(r: int) -> str:
    return f"R{r + 1}"


def _account_district(a: int) -> int:
    return a % N_DISTRICTS


def _district_region(d: int) -> int:
    return d % N_REGIONS


@dataclass(frozen=True)
class Members:
    """The seed's relabelling of the schema's interchangeable members.

    Regions, years and statuses are interchangeable: every region holds the
    same number of districts and accounts, and facts fall uniformly on
    statuses and days. The shape of a workload (which query filters how many
    regions and years, which queries overlap, where beliefs and expectations
    sit) is drawn once, in index space, by `_shape_rng`; the seed permutes
    the members that the indices name. Every seed so carries the same work,
    on different members and different facts, and the figures of two seeds
    differ by the host's noise, not by a luckier draw.
    """

    regions: tuple[int, ...]  # region index -> region index
    years: tuple[int, ...]  # year index -> year
    statuses: tuple[str, ...]  # status index -> status

    def region(self, r: int) -> str:
        return _region(self.regions[r])

    def district(self, d: int) -> str:
        """District index d is slot d // N_REGIONS of region d % N_REGIONS;
        the slot is kept and the region relabelled."""
        slot, r = divmod(d, N_REGIONS)
        return f"D{slot * N_REGIONS + self.regions[r] + 1:02d}"

    def month(self, m: int) -> str:
        """Month index m is month m % 12 of year index m // 12."""
        return f"{self.years[m // 12]}-{m % 12 + 1:02d}"


def members(workload: str, seed: int) -> Members:
    rng = _rng(workload, seed, "members")
    regions, years, statuses = (list(range(N_REGIONS)), list(YEARS),
                                list(STATUSES))
    for xs in (regions, years, statuses):
        rng.shuffle(xs)
    return Members(tuple(regions), tuple(years), tuple(statuses))


def _spec(rng: random.Random, pattern: int, m: Members) -> QuerySpec:
    regions = rng.sample(range(N_REGIONS), 1 + pattern // 4)
    years = rng.sample(range(len(YEARS)), 1 + (pattern + pattern // 4) % 2)
    statuses = ((m.statuses[rng.randrange(len(STATUSES))],)
                if pattern % 3 == 2 else None)
    return QuerySpec(GRAIN_ORDER[pattern % 4],
                     tuple(sorted(map(m.region, regions))),
                     tuple(sorted(m.years[y] for y in years)), statuses,
                     PATTERN_AGGS[pattern])


def _round(rng: random.Random, patterns, m: Members) -> list[QuerySpec]:
    patterns = list(patterns)
    rng.shuffle(patterns)
    return [_spec(rng, p, m) for p in patterns]


def _drill_down_session(rng: random.Random, steps: int,
                        m: Members) -> list[QuerySpec]:
    """An analyst session of two explorations of `steps` queries each.

    An exploration fixes its regions, years and one status, then zigzags
    between Region x Status x Year and District x Month, so consecutive
    queries share their region and year filters; the status filter is on
    for every other run of five steps. The first exploration covers two
    regions and two years, the second three regions and one year not seen
    yet.
    """
    years_left = list(range(len(YEARS)))
    rng.shuffle(years_left)
    zigzag = (0, 1, 2, 3, 2, 1)
    out = []
    for n_regions, n_years in ((2, 2), (3, 1)):
        regions = tuple(sorted(map(m.region, rng.sample(range(N_REGIONS),
                                                        n_regions))))
        years = tuple(sorted(m.years[years_left.pop()]
                             for _ in range(n_years)))
        status = (m.statuses[rng.randrange(len(STATUSES))],)
        for i in range(steps):
            out.append(QuerySpec(GRAIN_ORDER[::-1][zigzag[i % len(zigzag)]],
                                 regions, years,
                                 status if (i // 5) % 2 else None,
                                 SESSION_AGGS[i % len(SESSION_AGGS)]))
    return out


def plan(workload: str, seed: int) -> Plan:
    """The workload's queries; cheap, and the same for the same seed. Their
    shape is the same for every seed; the seed picks the members."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    spec = WORKLOADS[workload]
    rng = _shape_rng(workload, "queries")
    m = members(workload, seed)
    out = Plan()
    if workload == "session_growth":
        out.rounds = [_drill_down_session(rng, spec["steps"], m)
                      for _ in range(spec["rounds"])]
    else:
        out.history = _round(rng, range(spec["history"]), m)
        out.rounds = [_round(rng, range(ROUND_LEN), m)
                      for _ in range(spec["rounds"])]
    out.warmup = _spec(rng, WARMUP_PATTERN, m)
    return out


def calendar() -> list[datetime.date]:
    day, last = datetime.date(YEARS[0], 1, 1), datetime.date(YEARS[-1], 12, 31)
    out = []
    while day <= last:
        out.append(day)
        day += datetime.timedelta(days=1)
    return out


def fact_rows(workload: str, seed: int):
    """Yield (account, status, day, amount) index rows with distinct
    (account, status, day) cells, sorted by cell; amounts are log-uniform
    whole numbers."""
    rng = _rng(workload, seed, "facts")
    n_days = len(calendar())
    per_account = len(STATUSES) * n_days
    picked: set[int] = set()
    while len(picked) < WORKLOADS[workload]["rows"]:
        picked.add(rng.randrange(N_ACCOUNTS * per_account))
    for key in sorted(picked):
        a, rest = divmod(key, per_account)
        s, d = divmod(rest, n_days)
        yield a, s, d, _amount(rng)


def row_labels(workload: str, seed: int):
    """Per fact row: (region label, year, status label), for the oracle."""
    years = [d.year for d in calendar()]
    regions = [_region(_district_region(_account_district(a)))
               for a in range(N_ACCOUNTS)]
    return [(regions[a], years[d], STATUSES[s])
            for a, s, d, _ in fact_rows(workload, seed)]


def _amount(rng: random.Random) -> int:
    return round(math.exp(rng.uniform(math.log(AMT_LO), math.log(AMT_HI))))


def _write_lines(path: Path, header: str, lines) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write(workload: str, seed: int, out_dir: str | Path) -> None:
    """Write every file the program reads for one workload and seed."""
    out = Path(out_dir)
    (out / "schema").mkdir(parents=True, exist_ok=True)
    accounts = [f"A{a + 1:04d}" for a in range(N_ACCOUNTS)]
    districts = [f"D{d + 1:02d}" for d in range(N_DISTRICTS)]
    days = calendar()
    day_labels = [d.isoformat() for d in days]
    months = sorted({d.strftime("%Y-%m") for d in days})

    _write_lines(out / "schema" / "Account.csv", "Account,District,Region",
                 (f"{accounts[a]},{districts[_account_district(a)]},"
                  f"{_region(_district_region(_account_district(a)))}"
                  for a in range(N_ACCOUNTS)))
    _write_lines(out / "schema" / "Status.csv", "Status", STATUSES)
    _write_lines(out / "schema" / "Date.csv", "Day,Month,Year",
                 (f"{d.isoformat()},{d.strftime('%Y-%m')},{d.year}"
                  for d in days))
    _write_lines(out / "facts.csv", "Account,Status,Day,Amt",
                 (f"{accounts[a]},{STATUSES[s]},{day_labels[d]},{amt}"
                  for a, s, d, amt in fact_rows(workload, seed)))

    p = plan(workload, seed)
    _write_lines(out / "session.txt", "# fixed history",
                 (q.text() for q in p.history))
    _write_lines(out / "queries.txt", "# assessed queries, one round each",
                 _query_lines(p))

    m = members(workload, seed)
    shape = _shape_rng(workload, "context")
    rng = _rng(workload, seed, "context")
    goals = [sorted(map(m.region, shape.sample(range(N_REGIONS), 2)))
             for _ in range(2 if workload == "belief_dense" else 1)]
    _write_lines(out / "goals.txt", "# goals",
                 (f"Account.Region IN {{{', '.join(g)}}}" for g in goals))
    _write_lines(out / "label_rules.txt", "# labels of Amt aggregates",
                 ["Amt: [0..50000) -> Low", "Amt: [50000..200000) -> Mid",
                  "Amt: [200000..1000000000000] -> High",
                  "ORDER Low < Mid < High"])
    if workload == "belief_dense":
        _write_dense_context(shape, rng, m, out,
                             WORKLOADS[workload]["beliefs"])
        return
    # a few expected values, no beliefs, no expected labels
    cells = sorted({(m.district(shape.randrange(N_DISTRICTS)),
                     m.month(shape.randrange(N_MONTHS))) for _ in range(5)})
    _write_lines(out / "expected_values.csv", "District,Month,measure,expected",
                 (f"{d},{mo},Amt,{_amount(rng)}" for d, mo in cells))
    _write_lines(out / "beliefs.txt", "# no beliefs", ())
    _write_lines(out / "expected_labels.csv", "District,Month,measure,label",
                 ())


def _query_lines(p: Plan):
    for i, round_ in enumerate(p.rounds):
        yield f"# round {i}"
        for q in round_:
            yield q.text()
    yield "# warmup"
    yield p.warmup.text()


def _write_dense_context(shape: random.Random, rng: random.Random,
                         m: Members, out: Path, n_anchors: int):
    """Value beliefs at District x Month (half of them with a label belief
    beside), and expected values and labels for most District x Month
    cells. `shape` places them, `rng` draws their values."""
    anchors = sorted(shape.sample(range(N_DISTRICTS * N_MONTHS), n_anchors))
    beliefs = []
    for d, mo in map(lambda a: divmod(a, N_MONTHS), anchors):
        where = f"District={m.district(d)}, Month={m.month(mo)}"
        lo = rng.choice((0, 20000, 50000, 100000, 200000))
        hi = lo + rng.choice((30000, 100000, 400000))
        beliefs.append(f"P(Amt IN [{lo}..{hi}) | {where}) = "
                       f"{rng.choice((0.5, 0.6, 0.7, 0.8, 0.9))}")
        if shape.random() < 0.5:
            beliefs.append(f"P(label(Amt) = {rng.choice(LABELS)} | {where}) = "
                           f"{rng.choice((0.2, 0.3, 0.4))}")
    _write_lines(out / "beliefs.txt", "# beliefs", beliefs)
    cells = sorted((m.district(d), m.month(mo)) for d in range(N_DISTRICTS)
                   for mo in range(N_MONTHS) if shape.random() < 0.8)
    _write_lines(out / "expected_values.csv", "District,Month,measure,expected",
                 (f"{d},{mo},Amt,{_amount(rng)}" for d, mo in cells))
    _write_lines(out / "expected_labels.csv", "District,Month,measure,label",
                 (f"{d},{mo},Amt,{rng.choice(LABELS)}" for d, mo in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
