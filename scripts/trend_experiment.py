#!/usr/bin/env python3
"""Accuracy versus runtime sweep over instance shapes and solver families.

For each layer shape a fresh corpus is generated, every requested solver
runs on both robust variants, and errors are measured against the exact
enumerated optimum.  One summary block prints per shape; per-cell rows
land in a CSV next to the instances so outliers can be chased later.

Example:
    python3 scripts/trend_experiment.py results --shapes 2x2,3x3,4x4 \
        --solvers ls1,ls4,ec1,ec9 --count 10 --seeds 0:2
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from make_instances import int_pair, write_corpus
from rmcif import ABSOLUTE, DEVIATION, RmcifError, SearchParams, run_bench, summary_table


def seed_range(text: str) -> tuple[int, ...]:
    lo, _, hi = text.partition(":")
    return tuple(range(int(lo), int(hi) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out", type=Path, help="directory for corpora, CSVs, solutions")
    parser.add_argument("--shapes", default="2x2,3x3", help="comma-separated layer shapes")
    parser.add_argument("--solvers", default="ls1,ls4,ec1,ec9")
    parser.add_argument("--count", type=int, default=10, help="instances per shape")
    parser.add_argument("--seeds", type=seed_range, default=(0,), metavar="LO:HI")
    parser.add_argument("--scenarios", type=int, default=3)
    parser.add_argument("--caps", type=int_pair, default=(1, 3), metavar="LO:HI")
    parser.add_argument("--costs", type=int_pair, default=(0, 9), metavar="LO:HI")
    parser.add_argument("--density", type=float, default=0.8)
    parser.add_argument("--no-exact", action="store_true", help="skip exact optima")
    parser.add_argument("--exact-budget", type=int, default=100_000_000)
    args = parser.parse_args()

    try:
        sweep(args)
    except RmcifError as exc:
        sys.exit(f"error: {exc}")


def sweep(args: argparse.Namespace) -> None:
    """Generate, bench and summarize each requested shape in turn."""
    solvers = tuple(s.strip() for s in args.solvers.split(","))
    for shape in args.shapes.split(","):
        widths = tuple(int(w) for w in shape.split("x"))
        corpus = args.out / shape
        write_corpus(
            corpus,
            args.count,
            layer_widths=widths,
            scenario_count=args.scenarios,
            capacity_range=args.caps,
            cost_range=args.costs,
            density=args.density,
        )
        report = run_bench(
            corpus,
            variants=(ABSOLUTE, DEVIATION),
            solvers=solvers,
            seeds=args.seeds,
            params=SearchParams(),
            out_csv=args.out / f"{shape}.csv",
            sol_dir=corpus / "solutions",
            compute_exact=not args.no_exact,
            exact_budget=args.exact_budget,
        )
        print(f"\n== shape {shape} ({args.count} instances) ==")
        print(summary_table(report))
        for warning in report.warnings:
            print(f"warning: {warning}")


if __name__ == "__main__":
    main()
