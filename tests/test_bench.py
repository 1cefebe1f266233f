"""Benchmark harness: solver dispatch, scoring, CSV and .sol outputs."""
from __future__ import annotations

import csv
import gc
import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import gen
from rmcif import (
    ABSOLUTE,
    DEVIATION,
    InvalidParameter,
    RmcifError,
    SearchParams,
    SolutionRecord,
    enumerate_optimum,
    format_solution,
    parse_instance,
    run_bench,
    solve_one,
    write_instance,
)
from rmcif import bench
from rmcif.bench import CSV_COLUMNS, _score, check_grid, summary_table
from rmcif.exact import DEFAULT_NODE_BUDGET

FAST = SearchParams(population_size=4, generation_limit=8, no_improvement_limit=8)


def read_rows(path):
    """A bench CSV's cells, as dicts keyed by `CSV_COLUMNS`."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture()
def bench_dir(tmp_path):
    # Both seeds leave a gap between the absolute optimum and the scenario
    # lower bound, so a starved enumeration budget genuinely fails on them.
    directory = tmp_path / "instances"
    directory.mkdir()
    for k, seed in enumerate((0, 1)):
        instance = gen(seed, widths=(2, 2), scenarios=2, caps=(1, 3), density=0.9)
        (directory / f"inst{k}.rmcif").write_text(write_instance(instance))
    return directory


class TestSolveOne:
    def test_dispatches_all_solver_kinds(self, diamond):
        for solver, expected in (("ls1", 4), ("ec1", 4), ("exact", 4)):
            record = solve_one(diamond, ABSOLUTE, solver, params=FAST)
            assert record.solver == solver
            assert record.robust_cost == expected

    def test_unknown_tag(self, diamond):
        with pytest.raises(ValueError, match="unknown solver tag"):
            solve_one(diamond, ABSOLUTE, "lp")

    @pytest.mark.parametrize("solver", ["ls1", "ec1", "exact"])
    def test_negative_seed(self, diamond, solver):
        with pytest.raises(InvalidParameter, match="seed"):
            solve_one(diamond, ABSOLUTE, solver, seed=-1, params=FAST)

    @pytest.mark.parametrize(
        "variant, solver, seed, budget, message",
        [
            ("abs", "ls1", 0, DEFAULT_NODE_BUDGET, "unknown variant 'abs'"),
            (ABSOLUTE, "ls9", 0, DEFAULT_NODE_BUDGET, "unknown solver tag 'ls9'"),
            (ABSOLUTE, "ls1", -1, DEFAULT_NODE_BUDGET, "seed must be nonnegative, got -1"),
            (ABSOLUTE, "ls1", 0, -1, "node budget must be nonnegative, got -1"),
        ],
        ids=["variant", "solver", "seed", "budget"],
    )
    def test_bad_cell_rejected_before_any_work(
        self, diamond, monkeypatch, variant, solver, seed, budget, message
    ):
        calls = []
        monkeypatch.setattr(bench, "compute_optima", calls.append)
        with pytest.raises(InvalidParameter, match=message):
            solve_one(diamond, variant, solver, seed, FAST, exact_budget=budget)
        assert calls == []

    @pytest.mark.parametrize("solver", ["ls1", "ec1", "exact"])
    def test_numpy_seed_recorded_as_int(self, diamond, solver):
        # the record keeps the int the judge returns, so the .sol header
        # reads the same as for a plain int seed
        record = solve_one(diamond, ABSOLUTE, solver, seed=np.int64(3), params=FAST)
        plain = solve_one(diamond, ABSOLUTE, solver, seed=3, params=FAST)
        assert type(record.seed) is int
        assert format_solution(record, diamond) == format_solution(plain, diamond)

    def test_exact_tag_matches_enumerator(self, diamond):
        record = solve_one(diamond, DEVIATION, "exact")
        cost, _ = enumerate_optimum(diamond, DEVIATION)
        assert record.robust_cost == cost == 2

    def test_repeated_runs_identical_but_for_timing(self, diamond):
        a = solve_one(diamond, ABSOLUTE, "ec3", seed=5, params=FAST)
        b = solve_one(diamond, ABSOLUTE, "ec3", seed=5, params=FAST)
        assert (a.values, a.robust_cost, a.seed) == (b.values, b.robust_cost, b.seed)


class TestScore:
    record = SolutionRecord(ABSOLUTE, "ls1", 0, (0,), 0, 0.5)

    def test_zero_exact_zero_cost(self):
        warnings = []
        fields, error, _ = _score("i", self.record, (0, 1.0), warnings)
        assert error == 0.0 and fields[6] == "0.0000"
        assert warnings == []

    def test_zero_exact_positive_cost_excluded(self):
        warnings = []
        record = SolutionRecord(ABSOLUTE, "ls1", 3, (1,), 0, 0.5)
        fields, error, _ = _score("i", record, (0, 1.0), warnings)
        assert error is None and fields[6] == ""
        assert len(warnings) == 1 and "undefined" in warnings[0]

    def test_zero_elapsed_has_no_speedup(self):
        record = SolutionRecord(ABSOLUTE, "ls1", 4, (1,), 0, 0.0)
        fields, error, speedup = _score("i", record, (4, 1.0), [])
        assert speedup is None and fields[8] == ""
        assert error == 0.0

    def test_positive_case(self):
        record = SolutionRecord(ABSOLUTE, "ls1", 6, (1,), 0, 0.5)
        fields, error, speedup = _score("i", record, (4, 1.0), [])
        assert error == pytest.approx(50.0)
        assert speedup == pytest.approx(2.0)
        assert fields == ["i", ABSOLUTE, "ls1", 0, 6, 4, "50.0000", "0.500000", "2.0000"]

    def test_without_exact_everything_is_bare(self):
        fields, error, speedup = _score("i", self.record, None, [])
        assert (error, speedup) == (None, None)
        assert fields == ["i", ABSOLUTE, "ls1", 0, 0, "", "", "0.500000", ""]


class TestRunBench:
    def test_full_grid(self, bench_dir, tmp_path):
        out_csv = tmp_path / "results.csv"
        sol_dir = tmp_path / "solutions"
        report = run_bench(
            bench_dir,
            variants=(ABSOLUTE, DEVIATION),
            solvers=("ls1", "ec1", "exact"),
            seeds=(0, 1),
            params=FAST,
            out_csv=out_csv,
            sol_dir=sol_dir,
        )
        assert report.warnings == []
        with open(out_csv) as handle:
            assert next(csv.reader(handle)) == list(CSV_COLUMNS)
        rows = read_rows(out_csv)
        assert len(rows) == 2 * 2 * 3 * 2

        for row in rows:
            assert row["rel_error_pct"] != "" and float(row["rel_error_pct"]) >= 0
            if row["solver"] == "exact":
                assert row["rel_error_pct"] == "0.0000"

        sol_files = sorted(p.name for p in sol_dir.glob("*.sol"))
        assert len(sol_files) == len(rows)
        assert "inst0_absolute_ls1_s0.sol" in sol_files

        assert len(report.summaries) == 2 * 3
        assert all(s.runs == 4 for s in report.summaries)

    def test_solution_files_parse_back(self, bench_dir, tmp_path):
        # A written .sol holds the bytes `format_solution` gives the same
        # cell run in process, which checks capacity, conservation and F.
        sol_dir = tmp_path / "sols"
        run_bench(
            bench_dir, (ABSOLUTE,), ("ls2",), (3,), params=FAST, sol_dir=sol_dir
        )
        instance = parse_instance((bench_dir / "inst1.rmcif").read_bytes())
        record = solve_one(instance, ABSOLUTE, "ls2", 3, FAST)
        written = (sol_dir / "inst1_absolute_ls2_s3.sol").read_text()
        assert written == format_solution(record, instance)
        assert written.startswith(f"o absolute ls2 {record.robust_cost} 3\n")

    def test_without_exact(self, bench_dir, tmp_path):
        out_csv = tmp_path / "r.csv"
        report = run_bench(
            bench_dir, (ABSOLUTE,), ("ls1",), (0,), params=FAST, out_csv=out_csv,
            compute_exact=False,
        )
        rows = read_rows(out_csv)
        assert len(rows) == 2
        assert all(row["exact_cost"] == row["rel_error_pct"] == "" for row in rows)
        assert report.summaries[0].mean_error_pct is None

    def test_exhausted_budget_becomes_warning(self, bench_dir, tmp_path):
        out_csv = tmp_path / "r.csv"
        report = run_bench(
            bench_dir, (ABSOLUTE,), ("ls1",), (0,), params=FAST, out_csv=out_csv,
            exact_budget=1,
        )
        assert len(report.warnings) == 2
        assert all("exact solve failed" in w for w in report.warnings)
        rows = read_rows(out_csv)
        assert len(rows) == 2 and all(row["exact_cost"] == "" for row in rows)

    def test_failed_cells_marked_and_kept_out_of_csv(self, bench_dir, tmp_path):
        out_csv = tmp_path / "r.csv"
        report = run_bench(
            bench_dir,
            (ABSOLUTE,),
            ("exact",),
            (0,),
            compute_exact=False,
            exact_budget=1,
            out_csv=out_csv,
        )
        assert [w.split(": ")[0] for w in report.warnings] == [
            "inst0/absolute/exact/seed 0 failed",
            "inst1/absolute/exact/seed 0 failed",
        ]
        assert report.summaries == []
        with open(out_csv) as handle:
            assert len(list(csv.reader(handle))) == 1

    @pytest.fixture()
    def enumerations(self, monkeypatch):
        calls = []
        enumerate_ = bench.enumerate_optimum

        def counting(*args):
            calls.append(args)
            return enumerate_(*args)

        monkeypatch.setattr(bench, "enumerate_optimum", counting)
        return calls

    def test_exact_cells_reuse_the_pair_enumeration(self, bench_dir, tmp_path, enumerations):
        sol_dir, out_csv = tmp_path / "sols", tmp_path / "r.csv"
        report = run_bench(
            bench_dir, (ABSOLUTE,), ("exact",), (0, 1, 2), out_csv=out_csv, sol_dir=sol_dir
        )
        assert len(enumerations) == 2
        rows = read_rows(out_csv)
        assert len(rows) == 6 and report.warnings == []
        for row in rows:
            assert row["speedup"] == "1.0000" and row["rel_error_pct"] == "0.0000"
            assert row["robust_cost"] == row["exact_cost"]
        for name in ("inst0", "inst1"):
            instance = parse_instance((bench_dir / f"{name}.rmcif").read_bytes())
            cost, values = enumerate_optimum(instance, ABSOLUTE)
            for seed in (0, 1, 2):
                record = SolutionRecord(ABSOLUTE, "exact", cost, values, seed)
                written = (sol_dir / f"{name}_absolute_exact_s{seed}.sol").read_text()
                assert written == format_solution(record, instance)

    @pytest.mark.parametrize("solvers, calls", [(("exact", "ls1"), 2), (("ls1",), 0)])
    def test_without_exact_enumerates_only_for_exact_cells(
        self, bench_dir, tmp_path, enumerations, solvers, calls
    ):
        out_csv = tmp_path / "r.csv"
        report = run_bench(
            bench_dir, (ABSOLUTE,), solvers, (0, 1), FAST, out_csv=out_csv, compute_exact=False
        )
        assert len(enumerations) == calls
        assert report.warnings == []
        rows = read_rows(out_csv)
        assert len(rows) == 2 * len(solvers) * 2
        assert all(row["speedup"] == "" for row in rows)

    def test_exhausted_budget_fails_every_exact_cell_once_enumerated(
        self, bench_dir, tmp_path, enumerations
    ):
        seeds, out_csv = (0, 1, 2), tmp_path / "r.csv"
        report = run_bench(
            bench_dir, (ABSOLUTE,), ("exact",), seeds, out_csv=out_csv, exact_budget=1
        )
        assert len(enumerations) == 2
        warnings = []
        for name in ("inst0", "inst1"):
            instance = parse_instance((bench_dir / f"{name}.rmcif").read_bytes())
            with pytest.raises(RmcifError) as err:
                enumerate_optimum(instance, ABSOLUTE, 1)
            warnings.append(f"{name}/absolute: exact solve failed: {err.value}")
            for seed in seeds:
                warnings.append(f"{name}/absolute/exact/seed {seed} failed: {err.value}")
        assert report.warnings == warnings
        assert read_rows(out_csv) == [] and report.summaries == []

    @pytest.mark.parametrize(
        "variants, solvers, message",
        [
            ((ABSOLUTE,), ("ls1", "ls9"), "unknown solver tag 'ls9'"),
            (("abs",), ("ls1",), "unknown variant 'abs'"),
            # a repeat would run, write and total the same cells twice
            ((ABSOLUTE, DEVIATION, ABSOLUTE), ("ls1",), "repeated variant 'absolute'"),
            ((ABSOLUTE,), ("ls1", "exact", "ls1"), "repeated solver tag 'ls1'"),
        ],
        ids=["solver", "variant", "repeated-variant", "repeated-solver"],
    )
    def test_unknown_tags_rejected_before_any_cell(
        self, bench_dir, tmp_path, enumerations, variants, solvers, message
    ):
        out_csv = tmp_path / "tags.csv"
        with pytest.raises(InvalidParameter, match=message):
            run_bench(bench_dir, variants, solvers, (0,), FAST, out_csv=out_csv)
        assert not out_csv.exists()
        assert enumerations == []

    @pytest.mark.parametrize(
        "seeds, budget, message",
        [
            ((0, -1), DEFAULT_NODE_BUDGET, "seed must be nonnegative, got -1"),
            ((0,), -1, "node budget must be nonnegative, got -1"),
            ((0, 1, 0), DEFAULT_NODE_BUDGET, "repeated seed 0"),
        ],
        ids=["seed", "budget", "repeated-seed"],
    )
    def test_negative_seed_or_budget_rejected_before_any_cell(
        self, bench_dir, tmp_path, enumerations, seeds, budget, message
    ):
        out_csv = tmp_path / "negative.csv"
        with pytest.raises(InvalidParameter, match=message):
            run_bench(
                bench_dir, (ABSOLUTE,), ("ls1", "exact"), seeds, FAST,
                out_csv=out_csv, exact_budget=budget,
            )
        assert not out_csv.exists()
        assert enumerations == []

    @pytest.mark.parametrize(
        "variants, solvers, seeds, message",
        [
            ((), ("ls1",), (0,), "no variants given"),
            ((ABSOLUTE,), (), (0,), "no solver tags given"),
            ((ABSOLUTE,), ("ls1",), range(3, 1), "no seeds given"),
        ],
        ids=["variants", "solvers", "seeds"],
    )
    def test_empty_grid_rejected_before_any_cell(
        self, bench_dir, tmp_path, enumerations, variants, solvers, seeds, message
    ):
        out_csv = tmp_path / "empty.csv"
        with pytest.raises(InvalidParameter, match=message):
            run_bench(bench_dir, variants, solvers, seeds, FAST, out_csv=out_csv)
        assert not out_csv.exists()
        assert enumerations == []

    @pytest.mark.parametrize("params", [{"neighborhood_size": 3}, 5], ids=["dict", "int"])
    def test_bad_params_rejected_before_any_output(
        self, bench_dir, tmp_path, enumerations, params
    ):
        out_csv, sol_dir = tmp_path / "params.csv", tmp_path / "sols" / "params"
        with pytest.raises(InvalidParameter, match="params must be a SearchParams or None"):
            run_bench(
                bench_dir, (ABSOLUTE,), ("ls1", "exact"), (0,), params,
                out_csv=out_csv, sol_dir=sol_dir,
            )
        assert not out_csv.exists()
        assert not (tmp_path / "sols").exists()
        assert enumerations == []

    def test_one_shot_iterators_run_every_cell(self, bench_dir, tmp_path):
        grid = ((ABSOLUTE, DEVIATION), ("ls1", "exact"), (0, 1))
        tuples, once = tmp_path / "tuples.csv", tmp_path / "once.csv"
        expected = run_bench(bench_dir, *grid, FAST, out_csv=tuples)
        report = run_bench(
            bench_dir, iter(grid[0]), (s for s in grid[1]), iter(grid[2]), FAST, out_csv=once
        )
        rows = read_rows(once)
        assert len(rows) == 2 * 2 * 2 * 2
        drop_timing = ("seconds", "speedup")
        assert [{k: v for k, v in row.items() if k not in drop_timing} for row in rows] == [
            {k: v for k, v in row.items() if k not in drop_timing} for row in read_rows(tuples)
        ]
        assert [(s.variant, s.solver, s.runs) for s in report.summaries] == [
            (s.variant, s.solver, s.runs) for s in expected.summaries
        ]

    def test_instances_sharing_a_name_rejected_before_any_cell(
        self, bench_dir, tmp_path, enumerations
    ):
        # Their cells' .sol files would have the same names.
        other = tmp_path / "other"
        other.mkdir()
        (other / "inst0.rmcif").write_bytes((bench_dir / "inst1.rmcif").read_bytes())
        out_csv, sol_dir = tmp_path / "names.csv", tmp_path / "sols"
        with pytest.raises(InvalidParameter, match="repeated instance name 'inst0'"):
            run_bench(
                [bench_dir / "inst0.rmcif", other / "inst0.rmcif"], (ABSOLUTE,), ("ls1",), (0,),
                FAST, out_csv=out_csv, sol_dir=sol_dir,
            )
        assert not out_csv.exists() and not sol_dir.exists()
        assert enumerations == []

    def test_explicit_path_list(self, bench_dir, tmp_path):
        paths = sorted(bench_dir.glob("*.rmcif"))[:1]
        out_csv = tmp_path / "r.csv"
        run_bench(paths, (ABSOLUTE,), ("ls1",), (0,), params=FAST, out_csv=out_csv)
        assert [row["instance"] for row in read_rows(out_csv)] == ["inst0"]

    def test_cells_run_instance_major(self, bench_dir, tmp_path):
        out_csv = tmp_path / "order.csv"
        variants, solvers, seeds = (ABSOLUTE, DEVIATION), ("ls1", "ec1"), (1, 0)
        run_bench(bench_dir, variants, solvers, seeds, params=FAST, out_csv=out_csv)
        expected = [
            [name, variant, solver, str(seed)]
            for name, variant, solver, seed in product(("inst0", "inst1"), variants, solvers, seeds)
        ]
        with open(out_csv) as handle:
            assert [line[:4] for line in list(csv.reader(handle))[1:]] == expected

    def test_exact_warnings_come_with_their_instance(self, bench_dir):
        report = run_bench(
            bench_dir, (ABSOLUTE,), ("ls1", "exact"), (0,), params=FAST, exact_budget=1
        )
        prefixes = [
            f"{name}/{ABSOLUTE}{suffix}"
            for name in ("inst0", "inst1")
            for suffix in (": exact solve failed", "/exact/seed 0 failed")
        ]
        assert len(report.warnings) == len(prefixes)
        for warning, prefix in zip(report.warnings, prefixes):
            assert warning.startswith(prefix)

    def test_memory_flat_in_instance_count(self, tmp_path):
        # Each instance is dropped before the next is parsed, so twice the
        # instances must not raise the traced peak by much.
        params = SearchParams(iteration_limit=1)

        def corpus(count):
            directory = tmp_path / f"n{count}"
            directory.mkdir()
            for seed in range(count):
                instance = gen(seed, widths=(6, 6, 6), scenarios=6, caps=(1, 20))
                (directory / f"i{seed:02d}.rmcif").write_text(write_instance(instance))
            return directory

        def peak(directory):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_bench(directory, (ABSOLUTE,), ("ls1",), (0,), params, compute_exact=False)
            return tracemalloc.get_traced_memory()[1] - base

        single, double = corpus(8), corpus(16)
        tracemalloc.start()
        try:
            # Warm-up: first-call caches, and the interpreter's free lists,
            # which keep traced objects and so raise the baseline for a while.
            for _ in range(3):
                peak(double)
            single_peak = peak(single)
            double_peak = peak(double)
        finally:
            tracemalloc.stop()
        assert double_peak <= single_peak * 1.25, (single_peak, double_peak)

    def test_memory_flat_in_cell_count(self, tmp_path):
        # Each cell is folded into its pair's totals as it is written, so
        # the report left after the call keeps nothing per cell.
        directory = tmp_path / "one"
        directory.mkdir()
        instance = gen(0, widths=(2, 2), scenarios=2, caps=(1, 3), density=0.9)
        (directory / "i.rmcif").write_text(write_instance(instance))
        params = SearchParams(iteration_limit=1)

        def retained(count):
            # a full collection also empties the interpreter's free lists,
            # whose fill (freed tuples kept for reuse) would read as retained
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            report = run_bench(
                directory, (ABSOLUTE,), ("ls1",), range(count), params, compute_exact=False
            )
            assert report.summaries[0].runs == count
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - base

        count = 400
        tracemalloc.start()
        try:
            for _ in range(2):
                retained(2 * count)
            single, double = retained(count), retained(2 * count)
        finally:
            tracemalloc.stop()
        # One kept record per cell would add well over 100 bytes a cell.
        assert double - single < 8 * count, (single, double)

    def test_summaries_fold_successful_cells(self, bench_dir, monkeypatch):
        # (variant, solver, seed) -> (robust cost, seconds), or None for a run that fails
        runs = {
            (ABSOLUTE, "exact", 0): (10, 2.0),
            (DEVIATION, "exact", 0): None,
            (ABSOLUTE, "ls1", 0): (10, 0.5),
            (ABSOLUTE, "ls1", 1): (15, 1.0),
            (ABSOLUTE, "ls2", 0): None,
            (ABSOLUTE, "ls2", 1): (12, 0.25),
            (DEVIATION, "ls1", 0): (3, 0.5),
            (DEVIATION, "ls1", 1): (4, 1.5),
            (DEVIATION, "ls2", 0): None,
            (DEVIATION, "ls2", 1): None,
        }

        def solve(instance, variant, solver, seed, params=None, exact_budget=None):
            if runs[variant, solver, seed] is None:
                raise RmcifError("no luck")
            cost, seconds = runs[variant, solver, seed]
            return SolutionRecord(variant, solver, cost, (), seed, seconds)

        monkeypatch.setattr(bench, "solve_one", solve)
        report = run_bench(
            [bench_dir / "inst0.rmcif"], (ABSOLUTE, DEVIATION), ("ls1", "ls2"), (0, 1)
        )
        # absolute ls1: errors 0 and 50%, speedups 4 and 2; deviation has no
        # exact cost; deviation ls2 never succeeds, so it has no summary.
        assert report.summaries == [
            bench.SolverSummary(ABSOLUTE, "ls1", 2, 25.0, 3.0, 0.75),
            bench.SolverSummary(ABSOLUTE, "ls2", 1, 20.0, 8.0, 0.25),
            bench.SolverSummary(DEVIATION, "ls1", 2, None, None, 1.0),
        ]
        assert report.warnings == [
            "inst0/absolute/ls2/seed 0 failed: no luck",
            "inst0/deviation: exact solve failed: no luck",
            "inst0/deviation/ls2/seed 0 failed: no luck",
            "inst0/deviation/ls2/seed 1 failed: no luck",
        ]
        rows = [line.split() for line in summary_table(report).splitlines()[2:]]
        assert rows == [
            ["absolute", "ls1", "2", "25.00", "3.00", "0.7500"],
            ["absolute", "ls2", "1", "20.00", "8.00", "0.2500"],
            ["deviation", "ls1", "2", "-", "-", "1.0000"],
        ]

    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(RmcifError, match="no .rmcif instances"):
            run_bench(empty, (ABSOLUTE,), ("ls1",), (0,))

    def test_empty_instance_list(self, tmp_path):
        out_csv, sol_dir = tmp_path / "none.csv", tmp_path / "sols"
        with pytest.raises(InvalidParameter, match="no instances given"):
            run_bench([], (ABSOLUTE,), ("ls1",), (0,), out_csv=out_csv, sol_dir=sol_dir)
        assert not out_csv.exists() and not sol_dir.exists()

    def test_grid_seeds_come_back_as_ints(self):
        # run_bench and sweep write these seeds into CSV rows and .sol names
        seeds = check_grid((ABSOLUTE,), ("ls1",), np.arange(2))[2]
        assert seeds == (0, 1) and all(type(seed) is int for seed in seeds)


class TestSummaryTable:
    def test_layout(self, bench_dir):
        report = run_bench(
            bench_dir, (ABSOLUTE,), ("ls1", "exact"), (0,), params=FAST
        )
        table = summary_table(report)
        lines = table.splitlines()
        assert lines[0].split() == ["variant", "solver", "runs", "err%", "speedup", "seconds"]
        assert set(lines[1]) == {"-"}
        assert len(lines) == 2 + len(report.summaries)
        assert any("ls1" in line for line in lines[2:])

    def test_missing_averages_rendered_as_dashes(self, bench_dir):
        report = run_bench(
            bench_dir, (ABSOLUTE,), ("ls1",), (0,), params=FAST, compute_exact=False
        )
        row_line = summary_table(report).splitlines()[2]
        assert " - " in row_line
