"""Benchmark of record for cubeinterest: end-to-end session assessment.

One client in one process drives the library the way `cubeinterest assess`
does, in a closed loop: load generated CSV and context files through the
public loaders, then for each query text parse it, build the
interestingness vector with the default `AssessConfig`, and serialize the
report; after each assessment the query is appended to a history with its
evaluated result. See perfbench/README.md for the metrics and workloads.

    python3 perfbench/run.py --workload fact_scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 1` reports the
per-layer metrics instead of the end-to-end ones. The exit code is nonzero
when the correctness gate fails or the library sources are missing.
"""

from __future__ import annotations

import os

# Pin numpy/BLAS to one thread before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import gate  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
OUT = HERE / "out"

# Operations whose index i has i % ORACLE_EVERY == ORACLE_AT are recomputed
# by the oracle, up to ORACLE_MAX of them.
ORACLE_EVERY, ORACLE_AT, ORACLE_MAX = 5, 3, 4
# The tail is the highest percentile with at least this many samples beyond.
TAIL_BEYOND = 10

END_TO_END = {
    "assess_p50_ms": "ms", "assess_tail_ms": "ms", "assess_per_s": "1/s",
    "append_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "success_frac": "ratio",
}


def import_library():
    """Import cubeinterest from this checkout's sources, never from
    anywhere else on the path."""
    package = SRC / "cubeinterest"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: library sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import cubeinterest
    if Path(cubeinterest.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cubeinterest from "
                         f"{cubeinterest.__file__}, not {package}")
    from cubeinterest import context, engine, errors, harness, mdm, qlang
    return context, engine, errors, harness, mdm, qlang


@dataclass
class Op:
    """One timed operation: elapsed seconds and the failure key, if any."""

    seconds: float
    failed: str | None = None


@dataclass
class Record:
    """What the correctness gate needs to know about one assessment."""

    spec: gen.QuerySpec
    history: list
    report: str | None
    round_: int


@dataclass
class Samples:
    assess: list[Op] = field(default_factory=list)
    traced: list[Op] = field(default_factory=list)
    append: list[Op] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    records: list[Record] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, args, workdir: Path):
        (self.context, self.engine, self.errors, self.harness, self.mdm,
         self.qlang) = import_library()
        self.args = args
        self.workdir = workdir
        self.plan = gen.plan(args.workload, args.seed)
        self.grows = args.workload == "session_growth"
        self.tracer = spans.Tracer() if args.trace else None
        self.samples = Samples()
        self.ctx = None

    # --- set-up ------------------------------------------------------------

    def set_up(self):
        """Load schema, facts and every context file through the public
        loaders, then run one warm-up assessment."""
        w = self.workdir
        dims = [self.mdm.load_dimension(w / "schema" / f"{name}.csv")
                for name in ("Account", "Status", "Date")]
        cube = self.engine.load_facts(w / "facts.csv", dims)
        ctx = self.context.SessionContext(cube)
        ctx.load_session_file(w / "session.txt")
        ctx.load_belief_file(w / "beliefs.txt")
        ctx.load_goal_file(w / "goals.txt")
        ctx.load_label_rules(w / "label_rules.txt")
        ctx.expected_values = self.context.load_expected_values(
            w / "expected_values.csv", cube)
        ctx.expected_labels = self.context.load_expected_labels(
            w / "expected_labels.csv", cube)
        try:
            q = self.qlang.parse_query(self.plan.warmup.text(), cube)
            self.harness.interestingness_vector(q, ctx).to_json()
        except self.errors.CubeInterestError:
            pass  # set-up time still counts; failures count in the phase
        return ctx

    def timed_setup(self):
        """Set up afresh in place of the current context."""
        self.ctx = None
        gc.collect()  # free the old context first, untimed
        with self._operation("setup", self.tracer is not None):
            start = time.perf_counter()
            self.ctx = self.set_up()
            self.samples.setup.append(time.perf_counter() - start)

    # --- operations -----------------------------------------------------------

    @contextlib.contextmanager
    def _operation(self, kind: str, traced: bool):
        """Trace the enclosed operation when asked; the wrappers are bound
        only while it runs."""
        if traced:
            self.tracer.begin(kind)
            self.tracer.install()
        try:
            yield
        finally:
            if traced:
                self.tracer.uninstall()

    def _failure_key(self, exc) -> str:
        return getattr(exc, "metric", None) or type(exc).__name__

    def timed_assess(self, text: str, traced: bool):
        """Returns (query or None, report JSON or None, Op)."""
        q = report = failed = None
        with self._operation("assess", traced):
            start = time.perf_counter()
            try:
                q = self.qlang.parse_query(text, self.ctx.cube)
                report = self.harness.interestingness_vector(
                    q, self.ctx).to_json()
            except self.errors.CubeInterestError as exc:
                failed = self._failure_key(exc)
            elapsed = time.perf_counter() - start
        return q, report, Op(elapsed, failed)

    def timed_append(self, history, q, result) -> Op:
        failed = None
        with self._operation("append", self.tracer is not None):
            start = time.perf_counter()
            try:
                history.append(q, result)
            except self.errors.CubeInterestError as exc:
                failed = self._failure_key(exc)
            elapsed = time.perf_counter() - start
        return Op(elapsed, failed)

    def step(self, spec: gen.QuerySpec, history_specs: list, round_: int):
        text = spec.text()
        s = self.samples
        if self.tracer is None:
            q, report, op = self.timed_assess(text, traced=False)
        else:
            # alternate the order so cache warmth favours neither side
            order = (False, True) if len(s.assess) % 2 == 0 else (True, False)
            out = {traced: self.timed_assess(text, traced) for traced in order}
            q, report, op = out[False]
            traced_report, traced_op = out[True][1:]
            s.traced.append(traced_op)
            if (traced_op.failed != op.failed or report is not None and
                    gate.digest_line(traced_report) != gate.digest_line(report)):
                s.problems.append(f"tracing changed the outcome of {text!r}")
        s.assess.append(op)
        s.records.append(Record(spec, history_specs, report, round_))
        if q is None:
            return
        # The client holds the query's result; producing it is not timed.
        result = self.engine.evaluate(q)
        history = (self.ctx.history if self.grows
                   else self.context.QueryHistory())
        s.append.append(self.timed_append(history, q, result))

    def steps(self, rounds: int):
        """(round, query, history before it) for every step of the run."""
        for index in range(rounds):
            queries = self.plan.rounds[index % len(self.plan.rounds)]
            for i, spec in enumerate(queries):
                yield index, spec, (queries[:i] if self.grows
                                    else self.plan.history)

    def measure(self, seconds: int) -> tuple[float, float]:
        """Run the workload's number of whole rounds for `seconds`; returns
        the wall-clock seconds the steps took and the peak resident memory
        in MB up to the last step.

        Set-up runs `setup_repeat` times before every `setup_every`-th step
        and after the last, so its samples spread over the run like the
        operations' and a slow spell of the host does not land on all of
        them at once. On session_growth `setup_every` is a session's
        length, so each session starts on a fresh context with an empty
        history.
        """
        spec = gen.WORKLOADS[self.args.workload]
        rounds = max(1, seconds // spec["round_s"])
        repeat = spec.get("setup_repeat", 1)
        phase = 0.0
        for n, (index, query, history) in enumerate(self.steps(rounds)):
            if n % spec["setup_every"] == 0:
                for _ in range(repeat):
                    self.timed_setup()
            start = time.perf_counter()
            self.step(query, history, index)
            phase += time.perf_counter() - start
            # Reference cycles a step leaves, which can hold large arrays,
            # are freed here, untimed, so that neither the next step's
            # latency nor peak_rss_mb hinges on when the collector runs.
            gc.collect()
        # The closing set-ups only add set-up samples; whether reloading
        # reuses the freed context's memory is up to the allocator, so
        # they are left out of the peak.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(repeat):
            self.timed_setup()
        return phase, rss_mb

    # --- correctness gate -------------------------------------------------

    def check(self) -> tuple[list[str], list[str]]:
        """Run the gate; returns (summary lines, problems found)."""
        s = self.samples
        problems = list(s.problems)
        lines = []
        sample = []
        for i, rec in enumerate(s.records):
            if rec.report is None:
                lines.append(f"failed {s.assess[i].failed}")
                continue
            report = json.loads(rec.report)
            problems += gate.check_report(report, rec.spec, rec.history)
            lines.append(gate.digest_line(rec.report))
            if i % ORACLE_EVERY == ORACLE_AT and len(sample) < ORACLE_MAX:
                sample.append((rec, report))
        if sample:
            oracle = gate.Oracle(gen.row_labels(self.args.workload,
                                                self.args.seed))
            for rec, report in sample:
                problems += oracle.check(report, rec.spec, rec.history)
        rounds = {}
        for rec, line in zip(s.records, lines):
            rounds.setdefault(rec.round_, []).append(line)
        return [f"oracle checked {len(sample)} operations",
                f"score digest: {gate.digest(lines)}",
                "round digests: " + " ".join(
                    gate.digest(v)[:12] for _, v in sorted(rounds.items()))
                ], problems


# --- statistics ---------------------------------------------------------------

def ranked_ms(ops: list[Op], penalty_s: float) -> list[float]:
    """Latencies in ms, sorted, with every failure ranked behind every
    success: a failure is charged the run length plus its own time."""
    return sorted((op.seconds + (penalty_s if op.failed else 0.0)) * 1e3
                  for op in ops)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND samples beyond it; the smallest sample if none has."""
    i = max(0, len(values) - TAIL_BEYOND - 1)
    return values[i], 100.0 * (i + 1) / len(values)


def end_to_end(bench: Bench, phase_s: float,
               rss_mb: float) -> tuple[dict, list[str]]:
    s = bench.samples
    setups = s.setup
    penalty = float(bench.args.seconds)
    assess = ranked_ms(s.assess, penalty)
    appends = ranked_ms(s.append, penalty)
    tail_ms, tail_pct = tail(assess)
    ops = s.assess + s.append
    failed = sum(1 for op in ops if op.failed)
    ok_assess = sum(1 for op in s.assess if not op.failed)
    values = {
        "assess_p50_ms": (statistics.median(assess), f"n={len(assess)}"),
        "assess_tail_ms": (tail_ms, f"p{tail_pct:.1f} n={len(assess)}"),
        "assess_per_s": (ok_assess / phase_s,
                         f"{ok_assess} ok in {phase_s:.2f} s"),
        "append_p50_ms": (statistics.median(appends), f"n={len(appends)}"),
        "setup_s": (statistics.median(setups), f"n={len(setups)}: " + " ".join(
            f"{t:.3f}" for t in setups)),
        "peak_rss_mb": (rss_mb, "n=1"),
        "success_frac": (1.0 - failed / len(ops), f"{failed} of {len(ops)} failed"),
    }
    lines = [f"{name:16s} {v:14.4f} {END_TO_END[name]:6s} {note}"
             for name, (v, note) in values.items()]
    return {name: {"value": v, "unit": END_TO_END[name]}
            for name, (v, _) in values.items()}, lines


PER_LAYER = {
    # name: (operation kind, span or counter, field, unit)
    "qlang.parse_query.self_ms": ("assess", "qlang.parse_query", "self_ms", "ms"),
    "qlang.parse_belief.self_ms": ("setup", "qlang.parse_belief", "self_ms", "ms"),
    "mdm.desc_ids.calls": ("assess", "mdm.desc_ids", "calls", "count"),
    "mdm.desc_ids.self_ms": ("assess", "mdm.desc_ids", "self_ms", "ms"),
    "mdm.value_distance.calls": ("assess", "mdm.value_distance", "calls", "count"),
    "mdm.value_distance.self_ms": ("assess", "mdm.value_distance", "self_ms", "ms"),
    "mdm.load_dimension.ms": ("setup", "mdm.load_dimension", "ms", "ms"),
    "engine.selection_mask.calls": ("assess", "engine.selection_mask", "calls", "count"),
    "engine.selection_mask.self_ms": ("assess", "engine.selection_mask", "self_ms", "ms"),
    "engine.rows_scanned": ("assess", "engine.rows_scanned", "counter", "count"),
    "engine.evaluate.calls": ("assess", "engine.evaluate", "calls", "count"),
    "engine.evaluate.self_ms": ("assess", "engine.evaluate", "self_ms", "ms"),
    "engine.detailed_area_keys.self_ms": ("assess", "engine.detailed_area_keys", "self_ms", "ms"),
    "engine.load_facts.ms": ("setup", "engine.load_facts", "ms", "ms"),
    "context.history_append.ms": ("append", "context.history_append", "ms", "ms"),
    "novelty.belief_novelty.self_ms": ("assess", "novelty.belief_novelty", "self_ms", "ms"),
    "novelty.full_coverage.calls": ("assess", "novelty.full_coverage", "calls", "count"),
    "novelty.full_coverage.self_ms": ("assess", "novelty.full_coverage", "self_ms", "ms"),
    "novelty.pden.self_ms": ("assess", "novelty.pden", "self_ms", "ms"),
    "novelty.pdsn.self_ms": ("assess", "novelty.pdsn", "self_ms", "ms"),
    "relevance.detailed_relevance.self_ms": ("assess", "relevance.detailed_relevance", "self_ms", "ms"),
    "relevance.multi_goal_gbdsr.self_ms": ("assess", "relevance.multi_goal_gbdsr", "self_ms", "ms"),
    "peculiarity.jaccard_peculiarity.self_ms": ("assess", "peculiarity.jaccard_peculiarity", "self_ms", "ms"),
    "peculiarity.value_peculiarity.self_ms": ("assess", "peculiarity.value_peculiarity", "self_ms", "ms"),
    "peculiarity.cell_pairs": ("assess", "peculiarity.cell_pairs", "counter", "count"),
    "surprise.cells_scanned": ("assess", "surprise.cells_scanned", "counter", "count"),
    "harness.interestingness_vector.self_ms": ("assess", "harness.interestingness_vector", "self_ms", "ms"),
    "harness.to_json.ms": ("assess", "harness.to_json", "ms", "ms"),
}
FAILURE_KEYS = ("novelty.pdsn", "relevance.pdsr", "peculiarity.value_cr")


def per_layer(bench: Bench) -> tuple[dict, list[str]]:
    tracer = bench.tracer
    table = tracer.table()
    counters = tracer.counters
    per_op = {kind: counters.get(kind, Counter())["ops"] or 1
              for kind in ("assess", "append", "setup")}

    def span(kind, name, field_):
        return table.get((kind, name), {}).get(field_, 0.0)

    values = {}
    for name, (kind, source, field_, unit) in PER_LAYER.items():
        total = (counters.get(kind, Counter())[source] if field_ == "counter"
                 else span(kind, source, field_))
        values[name] = (total / per_op[kind], unit)
    calls = span("assess", "engine.selection_mask", "calls")
    values["engine.selection_mask.distinct_frac"] = (
        counters["assess"]["selection_mask.distinct"] / calls if calls else 0.0,
        "ratio")
    values["context.load.ms"] = (
        sum(span("setup", n, "ms") for n in spans.CONTEXT_LOADERS), "ms")
    values["surprise.self_ms"] = (
        sum(span("assess", n, "self_ms") for n in spans.SURPRISE_CUBE)
        / per_op["assess"], "ms")
    s = bench.samples
    ops = s.assess + s.append
    failures = Counter(op.failed for op in ops if op.failed)
    values["failed_frac"] = (sum(failures.values()) / len(ops), "ratio")
    for key in FAILURE_KEYS:
        values[f"failed.{key}"] = (failures.pop(key, 0), "count")
    values["failed.other"] = (sum(failures.values()), "count")
    untraced = [op.seconds for op in s.assess if not op.failed]
    traced = [op.seconds for op in s.traced if not op.failed]
    overhead = ((statistics.median(traced) - statistics.median(untraced)) * 1e3
                if untraced and traced else 0.0)
    values["trace.overhead_ms"] = (overhead, "ms")

    lines = [f"{'span (per assessment)':44s} {'calls':>10s} {'ms':>10s} {'self ms':>10s}"]
    rows = sorted(((name, v) for (kind, name), v in table.items()
                   if kind == "assess"), key=lambda kv: -kv[1]["self_ms"])
    n = per_op["assess"]
    for name, v in rows:
        lines.append(f"{name:44s} {v['calls'] / n:10.1f} {v['ms'] / n:10.2f} "
                     f"{v['self_ms'] / n:10.2f}")
    lines.append(f"tracing overhead: traced minus untraced median "
                 f"{overhead:.2f} ms over {len(traced)} and {len(untraced)} "
                 f"successful assessments")
    lines += [f"{name:44s} {v:14.4f} {unit}" for name, (v, unit) in values.items()]
    return {name: {"value": v, "unit": unit}
            for name, (v, unit) in values.items()}, lines


# --- entry points -----------------------------------------------------------------

def host_line() -> str:
    pins = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} {pins}")


def run_one(args) -> int:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args, workdir)
    print(host_line())
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([sys.executable, str(HERE / "gen.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--out", str(workdir)], check=True, timeout=170)
        phase_s, rss_mb = bench.measure(args.seconds)
        gate_lines, problems = bench.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"measured {phase_s:.2f} s")
    for line in gate_lines:
        print(line)
    if args.trace:
        metrics, lines = per_layer(bench)
        bench.tracer.save(OUT / f"{args.workload}.spans.npz")
    else:
        metrics, lines = end_to_end(bench, phase_s, rss_mb)
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"correctness: {problem}", file=sys.stderr)
    s = bench.samples
    ops = s.assess + s.append
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failed),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process."""
    status = 0
    for workload in gen.WORKLOADS:
        print(f"=== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=900)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
