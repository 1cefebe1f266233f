"""Batch experiment harness: solver dispatch, error/speedup accounting, CSV.

A benchmark cell is one (instance, variant, solver, seed) run.  The bench
makes one pass per instance: it parses the instance, enumerates the exact
optimum of each (instance, variant) pair once for every cell's relative
error and speedup, runs the cells, writes each one's CSV line and .sol
file as it finishes, and drops the instance before the next, so memory
stays flat in the number of instances.  The enumerator ignores the seed,
so every ``exact`` cell of a pair reports that one enumeration: its cost,
witness and seconds, or its error.  Shared per-scenario optima are
computed before any clock starts, so solvers are timed on search alone.
Each written cell is folded into running (variant, solver) totals, so
memory stays flat in the number of cells too.  Failing cells are reported
as warnings and left out of the CSV and the averages.
"""
from __future__ import annotations

import csv
import time
from contextlib import ExitStack
from itertools import product, takewhile
from pathlib import Path
from typing import Iterable, NamedTuple

from .core import (
    ALL_SOLVERS,
    EC_SOLVERS,
    LS_SOLVERS,
    VARIANTS,
    Instance,
    InstanceFormatError,
    InvalidParameter,
    RmcifError,
    SolutionRecord,
    check_integer,
    format_solution,
    parse_instance,
)
from .exact import DEFAULT_NODE_BUDGET, enumerate_optimum
from .heuristics import SearchParams, check_params, evolutionary, local_search
from .objectives import compute_optima

CSV_COLUMNS = (
    "instance",
    "variant",
    "solver",
    "seed",
    "robust_cost",
    "exact_cost",
    "rel_error_pct",
    "seconds",
    "speedup",
)


def solve_one(
    instance: Instance,
    variant: str,
    solver: str,
    seed: int = 0,
    params: SearchParams | None = None,
    exact_budget: int = DEFAULT_NODE_BUDGET,
) -> SolutionRecord:
    """Run a single solver tag (ls*, ec*, or exact) on one instance.

    The cell is judged by `check_grid`, the budget by `check_integer` and
    `params` by `check_params`, so a bad input raises `InvalidParameter`
    before any work.  Per-scenario optima are warmed up front so their
    one-time cost never lands in any solver's measured time.
    """
    (variant,), (solver,), (seed,) = check_grid((variant,), (solver,), (seed,))
    exact_budget = check_integer(exact_budget, "node budget")
    params = check_params(params)
    compute_optima(instance)
    if solver in LS_SOLVERS:
        return local_search(instance, variant, solver, params, seed)
    if solver in EC_SOLVERS:
        return evolutionary(instance, variant, solver, params, seed)
    start = time.perf_counter()
    cost, values = enumerate_optimum(instance, variant, exact_budget)
    return SolutionRecord(variant, solver, cost, values, seed, time.perf_counter() - start)


class SolverSummary(NamedTuple):
    """Averages for one (variant, solver) pair over its successful cells."""

    variant: str
    solver: str
    runs: int
    mean_error_pct: float | None
    mean_speedup: float | None
    mean_seconds: float


class BenchReport(NamedTuple):
    """The per-(variant, solver) summaries and the warnings of one bench run."""

    summaries: list[SolverSummary]
    warnings: list[str]


def _mean(total: list) -> float | None:
    """The mean of a running ``[sum, count]``, or None when it counted nothing."""
    return total[0] / total[1] if total[1] else None


def _parse(path: Path) -> Instance:
    try:
        return parse_instance(path.read_bytes())
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None


def _check_distinct(kind: str, items) -> None:
    seen = set()
    for item in items:
        if item in seen:
            raise InvalidParameter(f"repeated {kind} {item!r}")
        seen.add(item)


def check_grid(
    variants: Iterable[str], solvers: Iterable[str], seeds: Iterable[int]
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[int, ...]]:
    """The variants, solver tags and seeds as tuples, so one-shot iterators
    can be run over more than once, with each seed a plain int.  Raise
    `InvalidParameter` for an empty list, an unknown variant or solver tag,
    a seed that is not a nonnegative integer, or any of them repeated."""
    grid = (tuple(variants), tuple(solvers), tuple(check_integer(s, "seed") for s in seeds))
    kinds = (("variant", VARIANTS), ("solver tag", ALL_SOLVERS), ("seed", None))
    for (kind, known), items in zip(kinds, grid):
        if not items:
            raise InvalidParameter(f"no {kind}s given")
        for item in items:
            if known is not None and item not in known:
                raise InvalidParameter(f"unknown {kind} {item!r}")
        _check_distinct(kind, items)
    return grid


def run_bench(
    instances,
    variants: Iterable[str],
    solvers: Iterable[str],
    seeds: Iterable[int],
    params: SearchParams | None = None,
    out_csv: str | Path | None = None,
    sol_dir: str | Path | None = None,
    compute_exact: bool = True,
    exact_budget: int = DEFAULT_NODE_BUDGET,
) -> BenchReport:
    """Run every (instance, variant, solver, seed) cell and aggregate.

    `instances` is a directory (all *.rmcif inside, sorted) or a list of
    file paths.  The tags and seeds, any iterables (see `check_grid`), the
    instance names, the budget and `params` are checked and every file
    parsed once up front, so a bad, empty or repeated input or a broken
    file ends the call before any cell runs or any output is written;
    output directories made for `sol_dir` are removed again if `out_csv`
    cannot be opened.  Then each instance in turn is parsed again,
    enumerated, run, written and dropped, and each cell is folded into its
    (variant, solver) totals as it is written, so memory stays flat in the
    number of instances and of cells.  Exact optima are enumerated once per
    instance and variant when `compute_exact` is set (for errors and
    speedups) or when ``exact`` is among the solvers, whose cells all reuse
    that enumeration.  An exhausted enumeration budget downgrades the pair
    to cost-only reporting and fails its ``exact`` cells.
    """
    if isinstance(instances, (str, Path)):
        base = Path(instances)
        if not base.is_dir():
            raise RmcifError(f"instance directory not found: {instances}")
        paths = sorted(base.glob("*.rmcif"))
        if not paths:
            raise RmcifError(f"no .rmcif instances found under {instances}")
    else:
        paths = [Path(p) for p in instances]
        if not paths:
            raise InvalidParameter("no instances given")
    # plain strings: a `Path` keeps the parts it splits, so make one per use
    paths = list(map(str, paths))
    variants, solvers, seeds = check_grid(variants, solvers, seeds)
    # a cell's .sol file is named after its instance's stem
    _check_distinct("instance name", [Path(path).stem for path in paths])
    exact_budget = check_integer(exact_budget, "node budget")
    params = check_params(params)
    for path in paths:
        _parse(Path(path))

    report = BenchReport([], [])
    # running [sum, count] of seconds, err% and speedup per (variant, solver)
    totals = {pair: ([0.0, 0], [0.0, 0], [0.0, 0]) for pair in product(variants, solvers)}
    sol_path = Path(sol_dir) if sol_dir is not None else None
    with ExitStack() as stack:
        made = []
        if sol_path is not None:
            made = list(takewhile(lambda p: not p.exists(), (sol_path, *sol_path.parents)))
            sol_path.mkdir(parents=True, exist_ok=True)
        writer = None
        if out_csv is not None:
            try:
                handle = open(out_csv, "w", newline="")
            except OSError:
                for directory in made:
                    directory.rmdir()
                raise
            writer = csv.writer(stack.enter_context(handle))
            writer.writerow(CSV_COLUMNS)
        for path in map(Path, paths):
            name = path.stem
            instance = _parse(path)
            compute_optima(instance)
            for variant in variants:
                # the pair's one enumeration record, or the error it raised
                exact = None
                if compute_exact or "exact" in solvers:
                    try:
                        exact = solve_one(instance, variant, "exact", 0, exact_budget=exact_budget)
                    except RmcifError as exc:
                        exact = exc
                        if compute_exact:
                            report.warnings.append(f"{name}/{variant}: exact solve failed: {exc}")
                exact_pair = None
                if compute_exact and isinstance(exact, SolutionRecord):
                    exact_pair = (exact.robust_cost, exact.elapsed_seconds)
                for solver, seed in product(solvers, seeds):
                    try:
                        if solver == "exact":
                            # the enumeration ignores the seed
                            if isinstance(exact, RmcifError):
                                raise exact
                            record = exact._replace(seed=seed)
                        else:
                            record = solve_one(instance, variant, solver, seed, params, exact_budget)
                    except RmcifError as exc:
                        report.warnings.append(
                            f"{name}/{variant}/{solver}/seed {seed} failed: {exc}"
                        )
                        continue
                    fields, error, speedup = _score(name, record, exact_pair, report.warnings)
                    if writer is not None:
                        writer.writerow(fields)
                    if sol_path is not None:
                        out = sol_path / f"{name}_{variant}_{solver}_s{seed}.sol"
                        out.write_text(format_solution(record, instance))
                    values = (record.elapsed_seconds, error, speedup)
                    for total, value in zip(totals[variant, solver], values):
                        if value is not None:
                            total[0] += value
                            total[1] += 1

    for (variant, solver), (seconds, errors, speedups) in totals.items():
        if seconds[1]:
            report.summaries.append(
                SolverSummary(
                    variant, solver, seconds[1], _mean(errors), _mean(speedups), _mean(seconds)
                )
            )
    return report


def _score(name, record, exact_pair, warnings) -> tuple[list, float | None, float | None]:
    """A successful cell's CSV line, in `CSV_COLUMNS` order, and its
    relative error and speedup against the pair's exact (cost, seconds)."""
    exact_cost = rel_error = speedup = None
    if exact_pair is not None:
        exact_cost, exact_seconds = exact_pair
        if exact_cost > 0:
            rel_error = 100.0 * (record.robust_cost - exact_cost) / exact_cost
        elif record.robust_cost == 0:
            rel_error = 0.0
        else:
            warnings.append(
                f"{name}/{record.variant}/{record.solver}/seed {record.seed}:"
                f" relative error undefined (exact optimum 0, got {record.robust_cost})"
            )
        if record.elapsed_seconds > 0:
            speedup = exact_seconds / record.elapsed_seconds
    fields = [
        name,
        record.variant,
        record.solver,
        record.seed,
        record.robust_cost,
        "" if exact_cost is None else exact_cost,
        "" if rel_error is None else f"{rel_error:.4f}",
        f"{record.elapsed_seconds:.6f}",
        "" if speedup is None else f"{speedup:.4f}",
    ]
    return fields, rel_error, speedup


def summary_table(report: BenchReport) -> str:
    """Fixed-width text table of the per-(variant, solver) averages."""
    header = f"{'variant':<10} {'solver':<7} {'runs':>5} {'err%':>9} {'speedup':>10} {'seconds':>10}"
    lines = [header, "-" * len(header)]
    for s in report.summaries:
        err = "-" if s.mean_error_pct is None else f"{s.mean_error_pct:.2f}"
        spd = "-" if s.mean_speedup is None else f"{s.mean_speedup:.2f}"
        lines.append(
            f"{s.variant:<10} {s.solver:<7} {s.runs:>5} {err:>9} {spd:>10}"
            f" {s.mean_seconds:>10.4f}"
        )
    return "\n".join(lines)
