"""Shared fixtures: reference data, tiny cubes, random instance machinery.

Random instances are described neutrally (label rows, label-based query
specs) and materialized twice: once through the package (Dimension /
DetailedCube / CubeQuery) and once through the brute-force oracle
structures, so tests compare genuinely independent computation routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import oracles
from cubeinterest.context import (
    SessionContext,
    load_expected_labels,
    load_expected_values,
)
from cubeinterest.engine import (
    AtomicFilter,
    CubeQuery,
    DetailedCube,
    SelectionCondition,
    load_facts,
)
from cubeinterest.errors import CubeInterestError
from cubeinterest.mdm import dimension_from_rows, load_dimension
from cubeinterest import qlang

DATA = Path(__file__).parent / "data"
PKDD = DATA / "pkdd"

AGG_POOL = (("avg", "Amt"), ("sum", "Amt"), ("count", "Amt"),
            ("min", "Amt"), ("max", "Amt"))


# --- deterministic hand fixtures ------------------------------------------------

GEO_ROWS = [
    ("Athens", "Greece", "Europe"),
    ("Thessaloniki", "Greece", "Europe"),
    ("Paris", "France", "Europe"),
    ("Lyon", "France", "Europe"),
    ("Rome", "Italy", "Europe"),
    ("Toronto", "Canada", "America"),
    ("Montreal", "Canada", "America"),
    ("NewYork", "USA", "America"),
]


@pytest.fixture(scope="session")
def geo_dimension():
    return dimension_from_rows("Geo", ["City", "Country", "Continent"], GEO_ROWS)


@pytest.fixture(scope="session")
def geo_oracle():
    return oracles.ODim("Geo", ["City", "Country", "Continent"], GEO_ROWS)


@pytest.fixture(scope="session")
def pkdd_dims():
    return [load_dimension(PKDD / "schema" / f"{name}.csv")
            for name in ("Account", "Status", "Date")]


@pytest.fixture(scope="session")
def pkdd_cube(pkdd_dims):
    return load_facts(PKDD / "facts.csv", pkdd_dims)


@pytest.fixture(scope="session")
def pkdd_history(pkdd_cube):
    queries = []
    for line in (PKDD / "session.txt").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            queries.append(qlang.parse_query(line, pkdd_cube))
    return queries


@pytest.fixture(scope="session")
def pkdd_query(pkdd_cube):
    return qlang.parse_query((PKDD / "query.txt").read_text().strip(), pkdd_cube)


@pytest.fixture()
def pkdd_context(pkdd_cube):
    ctx = SessionContext(pkdd_cube)
    ctx.load_session_file(PKDD / "session.txt")
    ctx.expected_values = load_expected_values(
        PKDD / "expected_values.csv", pkdd_cube)
    return ctx


# --- random instances (shared by micro-oracle and property tests) -----------------

@dataclass
class Instance:
    """One randomized micro-scenario in both representations."""

    cube: DetailedCube
    ocube: oracles.OCube
    queries: list[CubeQuery]
    specs: list[oracles.QSpec]

    @property
    def q(self) -> CubeQuery:
        return self.queries[0]

    @property
    def q_spec(self) -> oracles.QSpec:
        return self.specs[0]

    @property
    def history(self) -> list[CubeQuery]:
        return self.queries[1:]

    @property
    def history_specs(self) -> list[oracles.QSpec]:
        return self.specs[1:]


def _random_dim_rows(rnd: random.Random, name: str,
                     n_levels: int, n_base: int) -> tuple[list[str], list[tuple]]:
    level_names = [f"{name}L{d}" for d in range(n_levels)]
    rows = []
    parent_counts = [max(1, n_base // (2 ** d)) for d in range(n_levels)]
    for i in range(n_base):
        path = [f"{name.lower()}{i}"]
        up = i
        for d in range(1, n_levels):
            up = up % parent_counts[d] if parent_counts[d] else 0
            path.append(f"{name.lower()}_{d}_{up}")
        rows.append(tuple(path))
    return level_names, rows


def _random_qspec(rnd: random.Random, dims_rows, measures) -> oracles.QSpec:
    atoms = []
    for name, level_names, rows in dims_rows:
        if rnd.random() < 0.55:
            continue
        level_idx = rnd.randrange(len(level_names))
        level = level_names[level_idx]
        domain = sorted({r[level_idx] for r in rows})
        k = rnd.randint(1, min(3, len(domain)))
        atoms.append((name, level, frozenset(rnd.sample(domain, k))))
    groupers = []
    for name, level_names, _rows in dims_rows:
        choices = list(level_names) + ["ALL"]
        groupers.append(rnd.choice(choices))
    n_aggs = rnd.randint(1, 2)
    aggregates = tuple(sorted(rnd.sample(list(AGG_POOL), n_aggs)))
    return oracles.QSpec(tuple(atoms), tuple(groupers), aggregates)


def build_instance(seed: int, n_queries: int = 5,
                   max_dims: int = 4, max_rows: int = 200) -> Instance:
    """Deterministic micro-instance: a small cube plus a bundle of random
    queries (the first is "the" query, the rest the history)."""
    rnd = random.Random(seed)
    n_dims = rnd.randint(2, max_dims)
    dims_rows = []
    for j in range(n_dims):
        n_levels = rnd.randint(1, 3)
        n_base = rnd.randint(3, 8)
        name = f"Dim{j}"
        level_names, rows = _random_dim_rows(rnd, name, n_levels, n_base)
        dims_rows.append((name, level_names, rows))
    dims = [dimension_from_rows(name, level_names, rows)
            for name, level_names, rows in dims_rows]
    odims = [oracles.ODim(name, level_names, rows)
             for name, level_names, rows in dims_rows]

    space = [sorted({r[0] for r in rows}) for _, _, rows in dims_rows]
    all_coords = []
    total = 1
    for s in space:
        total *= len(s)
    hi = min(max_rows, total)
    n_rows = rnd.randint(min(10, hi), hi)
    seen = set()
    while len(all_coords) < n_rows:
        coords = tuple(rnd.choice(s) for s in space)
        if coords in seen:
            continue
        seen.add(coords)
        all_coords.append(coords)

    ocube = oracles.OCube(odims, ["Amt"])
    id_rows = []
    values = []
    for coords in all_coords:
        amt = round(rnd.uniform(1.0, 1000.0), 2)
        ocube.add(coords, Amt=amt)
        id_rows.append([d.member(d.base_level, c).id
                        for d, c in zip(dims, coords)])
        values.append([amt])
    cube = DetailedCube(tuple(dims), ("Amt",),
                        np.array(id_rows, dtype=np.int32),
                        np.array(values))

    specs = [_random_qspec(rnd, dims_rows, ["Amt"]) for _ in range(n_queries)]
    queries = [spec_to_query(cube, s) for s in specs]
    return Instance(cube, ocube, queries, specs)


def spec_to_query(cube: DetailedCube, spec: oracles.QSpec) -> CubeQuery:
    atoms = []
    for dim_name, level, labels in spec.atoms:
        dim = cube.dim(dim_name)
        atoms.append(AtomicFilter(
            dim.name, dim.level(level).name,
            frozenset(dim.member(level, lab).id for lab in labels)))
    return CubeQuery(
        cube=cube,
        condition=SelectionCondition(tuple(atoms)),
        groupers=spec.groupers,
        aggregates=spec.aggregates,
    )


def cellset_to_labels(cells) -> dict[tuple[str, ...], dict[str, float]]:
    """Result cells keyed by label tuples, for comparison with oracles."""
    out = {}
    for i in range(cells.size):
        key = cells.labels_row(i)
        out[key] = {name: float(col[i]) for name, col in cells.measures.items()}
    return out


# --- expectation files ------------------------------------------------------------

def write_expectation_file(path: Path, inst: Instance, rnd: random.Random,
                           flaw_rate: float = 0.0) -> Path:
    """A random expectation CSV over the instance's cube: a coordinate column
    for some dimensions, `measure` and `expected` in shuffled order, with
    stray whitespace, header case changes and blank rows. Each choice turns
    into a flaw with probability `flaw_rate`: a header naming no level,
    `ALL` (a level of every dimension), a second level of one dimension or
    `label` for `expected`, a short row, or an unknown label, measure or
    number."""
    def flaw() -> bool:
        return rnd.random() < flaw_rate

    def pad(text: str) -> str:
        return rnd.choice(["", " ", "\t"]) + text + rnd.choice(["", "  "])

    cols = []  # (header, field maker)
    for d in inst.ocube.dims:
        for _ in range(1 + flaw()):
            if rnd.random() < 0.7:
                lv = rnd.choice(d.levels[:-1])
                cols.append((lv, lambda d=d, lv=lv: rnd.choice(d.members[lv])))
    if flaw():
        cols.append((rnd.choice(["Nowhere", "ALL"]), lambda: "all"))
    cols.append(("measure", lambda: "Qty" if flaw() else rnd.choice(["Amt", "amt"])))
    cols.append(("label" if flaw() else "expected",
                 lambda: rnd.choice(["ten", "1.2.3", ""]) if flaw()
                 else repr(round(rnd.uniform(-1e3, 1e3), 2))))
    rnd.shuffle(cols)
    lines = [",".join(pad(h.upper() if rnd.random() < 0.2 else h)
                      for h, _ in cols)]
    for _ in range(rnd.randint(0, 8)):
        if rnd.random() < 0.15:
            lines.append(rnd.choice(["", " ", " ,\t"]))
            continue
        fields = [pad("zzz" if flaw() else make()) for _, make in cols]
        lines.append(",".join(fields[:rnd.randrange(len(fields))] if flaw()
                              else fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def check_expectation_loaders(path: Path, inst: Instance):
    """Each expectation loader returns the reference's store, with anchors
    as labels, or raises a CubeInterestError where the reference rejects
    the file."""
    for loader, columns, parse in (
            (load_expected_values, ("expected",), float),
            (load_expected_labels, ("label", "expected"), str.strip)):
        try:
            want = oracles.load_expectations(path, inst.ocube, columns, parse)
        except oracles.BadExpectationFile:
            with pytest.raises(CubeInterestError):
                loader(path, inst.cube)
            continue
        got = loader(path, inst.cube)
        assert {tuple((lv, d.label_of(lv, i))
                      for d, (lv, i) in zip(inst.cube.dims, anchor)): values
                for anchor, values in got.items()} == want
