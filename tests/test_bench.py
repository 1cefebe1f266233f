"""Benchmark harness: solver dispatch, scoring, CSV and .sol outputs."""
from __future__ import annotations

import csv
import tracemalloc
from itertools import product

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
from rmcif.bench import CSV_COLUMNS, _score, summary_table
from rmcif.exact import DEFAULT_NODE_BUDGET

FAST = SearchParams(population_size=4, generation_limit=8, no_improvement_limit=8)


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
        row = _score("i", self.record, (0, 1.0), warnings)
        assert row.rel_error_pct == 0.0
        assert warnings == []

    def test_zero_exact_positive_cost_excluded(self):
        warnings = []
        record = SolutionRecord(ABSOLUTE, "ls1", 3, (1,), 0, 0.5)
        row = _score("i", record, (0, 1.0), warnings)
        assert row.rel_error_pct is None
        assert len(warnings) == 1 and "undefined" in warnings[0]

    def test_zero_elapsed_has_no_speedup(self):
        record = SolutionRecord(ABSOLUTE, "ls1", 4, (1,), 0, 0.0)
        row = _score("i", record, (4, 1.0), [])
        assert row.speedup is None
        assert row.rel_error_pct == 0.0

    def test_positive_case(self):
        record = SolutionRecord(ABSOLUTE, "ls1", 6, (1,), 0, 0.5)
        row = _score("i", record, (4, 1.0), [])
        assert row.rel_error_pct == pytest.approx(50.0)
        assert row.speedup == pytest.approx(2.0)
        assert row.exact_cost == 4

    def test_without_exact_everything_is_bare(self):
        row = _score("i", self.record, None, [])
        assert (row.exact_cost, row.rel_error_pct, row.speedup) == (None, None, None)
        assert row.robust_cost == 0


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
        assert len(report.rows) == 2 * 2 * 3 * 2
        assert all(row.error is None for row in report.rows)
        assert report.warnings == []

        for row in report.rows:
            assert row.rel_error_pct is not None and row.rel_error_pct >= 0
            if row.solver == "exact":
                assert row.rel_error_pct == 0.0

        with open(out_csv) as handle:
            lines = list(csv.reader(handle))
        assert lines[0] == list(CSV_COLUMNS)
        assert len(lines) == 1 + len(report.rows)

        sol_files = sorted(p.name for p in sol_dir.glob("*.sol"))
        assert len(sol_files) == len(report.rows)
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

    def test_without_exact(self, bench_dir):
        report = run_bench(
            bench_dir, (ABSOLUTE,), ("ls1",), (0,), params=FAST, compute_exact=False
        )
        assert all(row.exact_cost is None for row in report.rows)
        assert all(row.rel_error_pct is None for row in report.rows)
        assert report.summaries[0].mean_error_pct is None

    def test_exhausted_budget_becomes_warning(self, bench_dir):
        report = run_bench(
            bench_dir, (ABSOLUTE,), ("ls1",), (0,), params=FAST, exact_budget=1
        )
        assert len(report.warnings) == 2
        assert all("exact solve failed" in w for w in report.warnings)
        assert all(row.exact_cost is None and row.error is None for row in report.rows)

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
        assert all(row.error is not None for row in report.rows)
        assert len(report.warnings) == len(report.rows) == 2
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
        sol_dir = tmp_path / "sols"
        report = run_bench(bench_dir, (ABSOLUTE,), ("exact",), (0, 1, 2), sol_dir=sol_dir)
        assert len(enumerations) == 2
        assert len(report.rows) == 6 and report.warnings == []
        for row in report.rows:
            assert row.speedup == 1.0 and row.rel_error_pct == 0.0
            assert row.robust_cost == row.exact_cost
        for name in ("inst0", "inst1"):
            instance = parse_instance((bench_dir / f"{name}.rmcif").read_bytes())
            cost, values = enumerate_optimum(instance, ABSOLUTE)
            for seed in (0, 1, 2):
                record = SolutionRecord(ABSOLUTE, "exact", cost, values, seed)
                written = (sol_dir / f"{name}_absolute_exact_s{seed}.sol").read_text()
                assert written == format_solution(record, instance)

    @pytest.mark.parametrize("solvers, calls", [(("exact", "ls1"), 2), (("ls1",), 0)])
    def test_without_exact_enumerates_only_for_exact_cells(
        self, bench_dir, enumerations, solvers, calls
    ):
        report = run_bench(bench_dir, (ABSOLUTE,), solvers, (0, 1), FAST, compute_exact=False)
        assert len(enumerations) == calls
        assert all(row.error is None and row.speedup is None for row in report.rows)

    def test_exhausted_budget_fails_every_exact_cell_once_enumerated(
        self, bench_dir, enumerations
    ):
        seeds = (0, 1, 2)
        report = run_bench(bench_dir, (ABSOLUTE,), ("exact",), seeds, exact_budget=1)
        assert len(enumerations) == 2
        warnings, rows = [], []
        for name in ("inst0", "inst1"):
            instance = parse_instance((bench_dir / f"{name}.rmcif").read_bytes())
            with pytest.raises(RmcifError) as err:
                enumerate_optimum(instance, ABSOLUTE, 1)
            warnings.append(f"{name}/absolute: exact solve failed: {err.value}")
            for seed in seeds:
                warnings.append(f"{name}/absolute/exact/seed {seed} failed: {err.value}")
                rows.append(bench.BenchRow(name, ABSOLUTE, "exact", seed, error=str(err.value)))
        assert report.warnings == warnings
        assert report.rows == rows

    @pytest.mark.parametrize(
        "variants, solvers, message",
        [
            ((ABSOLUTE,), ("ls1", "ls9"), "unknown solver tag 'ls9'"),
            (("abs",), ("ls1",), "unknown variant 'abs'"),
        ],
        ids=["solver", "variant"],
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
        ],
        ids=["seed", "budget"],
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

    def test_explicit_path_list(self, bench_dir):
        paths = sorted(bench_dir.glob("*.rmcif"))[:1]
        report = run_bench(paths, (ABSOLUTE,), ("ls1",), (0,), params=FAST)
        assert {row.instance for row in report.rows} == {"inst0"}

    def test_cells_run_instance_major(self, bench_dir, tmp_path):
        out_csv = tmp_path / "order.csv"
        variants, solvers, seeds = (ABSOLUTE, DEVIATION), ("ls1", "ec1"), (1, 0)
        report = run_bench(
            bench_dir, variants, solvers, seeds, params=FAST, out_csv=out_csv
        )
        expected = [
            [name, variant, solver, str(seed)]
            for name, variant, solver, seed in product(("inst0", "inst1"), variants, solvers, seeds)
        ]
        assert [[r.instance, r.variant, r.solver, str(r.seed)] for r in report.rows] == expected
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

    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(RmcifError, match="no .rmcif instances"):
            run_bench(empty, (ABSOLUTE,), ("ls1",), (0,))


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
