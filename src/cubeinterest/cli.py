"""Command-line interface: assess a query, run the benchmark, generate data."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import qlang
from .context import SessionContext, load_expected_labels, load_expected_values
from .engine import load_facts
from .errors import CubeInterestError
from .harness import (
    AssessConfig,
    BenchConfig,
    METRIC_GROUPS,
    generate_star,
    interestingness_vector,
    run_benchmark,
)
from .mdm import load_dimension
from .peculiarity import DistanceWeights


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeinterest",
        description="Score cube queries for novelty, relevance, surprise "
                    "and peculiarity.")
    sub = parser.add_subparsers(dest="command", required=True)

    assess = sub.add_parser("assess", help="score one query in context")
    assess.add_argument("--schema", required=True,
                        help="directory of dimension CSVs (one per dimension)")
    assess.add_argument("--facts", required=True, help="fact CSV")
    assess.add_argument("--history", required=True,
                        help="session file, one query per line")
    assess.add_argument("--beliefs", help="belief statements, one per line")
    assess.add_argument("--goal", help="goal conditions, one per line")
    assess.add_argument("--expected", help="expected-values CSV")
    assess.add_argument("--expected-labels", help="expected-labels CSV")
    assess.add_argument("--labels", help="labeling rules file")
    assess.add_argument("--query", required=True, help="query text to assess")
    assess.add_argument("--metrics",
                        help="comma list of groups (default: all four)")
    assess.add_argument("--pi", type=float, default=0.5,
                        help="belief knownness threshold (default 0.5)")
    assess.add_argument("--k", type=int, default=2,
                        help="k for Jaccard k-NN peculiarity (default 2, "
                             "clamped to the history size)")
    assess.add_argument("--weights",
                        help="syntactic distance weights wf,wl,wm "
                             "(default 0.5,0.35,0.15)")
    assess.add_argument("--out", required=True, help="report JSON path")

    bench = sub.add_parser("bench", help="run the scaling benchmark")
    bench.add_argument("--base-sizes", default="10000,100000,1000000",
                       help="comma list of fact-table sizes")
    bench.add_argument("--history-sizes", default="1,5,10",
                       help="comma list of history sizes")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--out", required=True, help="benchmark JSON path")

    gen = sub.add_parser("gen", help="generate a synthetic star schema")
    gen.add_argument("--rows", type=int, required=True)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True, help="output directory")
    return parser


def _load_context(args) -> tuple[SessionContext, object]:
    schema_dir = Path(args.schema)
    dims = [load_dimension(p) for p in sorted(schema_dir.glob("*.csv"))]
    if not dims:
        raise CubeInterestError(f"no dimension CSVs under {schema_dir}")
    cube = load_facts(args.facts, dims)
    ctx = SessionContext(cube)
    ctx.load_session_file(args.history)
    if args.beliefs:
        ctx.load_belief_file(args.beliefs)
    if args.goal:
        ctx.load_goal_file(args.goal)
    if args.labels:
        ctx.load_label_rules(args.labels)
    if args.expected:
        ctx.expected_values = load_expected_values(args.expected, cube)
    if args.expected_labels:
        ctx.expected_labels = load_expected_labels(args.expected_labels, cube)
    return ctx, cube


def _assess(args) -> int:
    weights = DistanceWeights()
    if args.weights:
        try:
            parts = [float(x) for x in args.weights.split(",")]
            if len(parts) != 3:
                raise ValueError("needs three comma-separated values")
            weights = DistanceWeights(*parts)
        except ValueError as exc:
            raise CubeInterestError(f"--weights: {exc}") from exc
    metrics = tuple(m.strip() for m in args.metrics.split(",")) \
        if args.metrics else METRIC_GROUPS
    try:
        cfg = AssessConfig(pi=args.pi, jaccard_k=args.k, weights=weights,
                           metrics=metrics)
    except ValueError as exc:
        raise CubeInterestError(f"--{exc}") from exc
    ctx, cube = _load_context(args)
    q = qlang.parse_query(args.query, cube)
    report = interestingness_vector(q, ctx, cfg)
    Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    for name in METRIC_GROUPS:
        value = report.vector.get(name)
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"{name:12s} {shown}")
    print(f"report written to {args.out}")
    return 0


def _bench(args) -> int:
    try:
        cfg = BenchConfig(
            base_sizes=tuple(int(x) for x in args.base_sizes.split(",")),
            history_sizes=tuple(int(x) for x in args.history_sizes.split(",")),
            seed=args.seed,
            repetitions=args.reps,
        )
    except ValueError as exc:
        raise CubeInterestError(f"bench: {exc}") from exc
    report = run_benchmark(cfg)
    Path(args.out).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for cell in report["cells"]:
        print(f"{cell['metric']:8s} base={cell['base_size']:>9,d} "
              f"history={cell['history_size']:>3d} "
              f"median={cell['median_ms']:10.2f} ms")
    print(f"benchmark written to {args.out}")
    return 0


def _gen(args) -> int:
    try:
        paths = generate_star(args.rows, args.seed, args.out)
    except ValueError as exc:
        raise CubeInterestError(f"--rows: {exc}") from exc
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "assess":
            return _assess(args)
        if args.command == "bench":
            return _bench(args)
        return _gen(args)
    except CubeInterestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
