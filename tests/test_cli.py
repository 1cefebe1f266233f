"""Command-line interface, driven through main(argv)."""
from __future__ import annotations

import argparse
import csv
import subprocess
import sys

import pytest

from conftest import DIAMOND_TEXT, child_env, run_cli
from rmcif import (
    ABSOLUTE,
    GeneratorSpec,
    InvalidParameter,
    SearchParams,
    SolutionRecord,
    enumerate_optimum,
    format_solution,
    generate,
    parse_instance,
    write_instance,
)
from rmcif import cli
from rmcif.bench import check_grid
from rmcif.cli import _build_params, _seeds, _solver_list, _widths, main


@pytest.fixture()
def diamond_file(tmp_path):
    path = tmp_path / "diamond.rmcif"
    path.write_text(DIAMOND_TEXT)
    return path


class TestArgumentHelpers:
    def test_widths(self):
        assert _widths("3") == (3,)
        assert _widths("2,3,4") == (2, 3, 4)

    def test_seeds(self):
        assert _seeds("0:3") == (0, 1, 2, 3)
        assert _seeds("5,7") == (5, 7)
        assert _seeds("4") == (4,)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("3:1", "no seeds given"),
            ("-1", "seed must be nonnegative, got -1"),
            ("0,-2", "seed must be nonnegative, got -2"),
            ("-2:0", "seed must be nonnegative, got -2"),
            ("x", None),
            ("1:", None),
        ],
        ids=["3:1", "-1", "0,-2", "-2:0", "x", "1:"],
    )
    def test_bad_seeds(self, text, error):
        # `_seeds` only parses: a syntax error is its own, a seed list that
        # parses is judged by `check_grid`
        if error is None:
            with pytest.raises(argparse.ArgumentTypeError):
                _seeds(text)
        else:
            with pytest.raises(InvalidParameter, match=error):
                check_grid((ABSOLUTE,), ("ls1",), _seeds(text))

    def test_solver_list(self):
        assert _solver_list("ls1,ec9") == ("ls1", "ec9")
        assert _solver_list("ls9") == ("ls9",)
        with pytest.raises(InvalidParameter, match="unknown solver tag 'ls9'"):
            check_grid((ABSOLUTE,), _solver_list("ls9"), (0,))

    def test_build_params_overrides(self):
        params = _build_params(["population_size=7", "generation_limit=none"])
        assert params.population_size == 7
        assert params.generation_limit is None

    def test_only_limits_defaulting_to_none_may_be_unbounded(self, diamond_file, capsys):
        params = _build_params(["iteration_limit=None", "generation_limit=NONE"])
        assert params.iteration_limit is None and params.generation_limit is None
        argv = ["solve", "--instance", str(diamond_file), "--variant", "abs", "--solver", "ls1",
                "--param", "population_size=none"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter population_size: expected an integer, got 'none'\n"

    def test_build_params_rejects_unknown_names(self):
        from rmcif import RmcifError

        with pytest.raises(RmcifError, match="unknown parameter names: popsize"):
            _build_params(["popsize=3"])

    def test_defaults_without_flags(self):
        assert _build_params([]) == SearchParams()

    @pytest.mark.parametrize("argv", [["generate", "--width", "1"],
                                      ["sweep", "out", "--shapes", "1"]], ids=["generate", "sweep"])
    def test_generator_flag_defaults_are_the_spec_defaults(self, argv):
        args = cli._make_parser().parse_args(argv + ["--scenarios", "1"])
        assert list(cli._specs(cli._family(args, 1, (1,)))) == [GeneratorSpec((1,), 1)]


class TestGenerate:
    def test_writes_parseable_instance(self, tmp_path, capsys):
        out = tmp_path / "gen.rmcif"
        code = main(
            [
                "generate",
                "--width", "2,3",
                "--scenarios", "2",
                "--cap", "1:4",
                "--cost", "0:9",
                "--seed", "11",
                "-o", str(out),
            ]
        )
        assert code == 0
        instance = parse_instance(out.read_text())
        assert instance.network.vertex_count == 7
        assert len(instance.costs) == 2

    def test_stdout_default(self, capsys):
        assert main(["generate", "--width", "2,2", "--scenarios", "1"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("p rmcif ")
        parse_instance(text)

    def test_generation_failure_is_reported(self, capsys):
        code = main(
            [
                "generate",
                "--width", "2,2",
                "--scenarios", "1",
                "--cap", "0:1",
                "--flow", "50",
                "--retries", "2",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSolve:
    @pytest.mark.parametrize("variant, expected", [("abs", 4), ("dev", 2)])
    def test_solves_to_stdout(self, diamond_file, capsys, variant, expected):
        code = main(
            [
                "solve",
                "--instance", str(diamond_file),
                "--variant", variant,
                "--solver", "ls2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[2:4] == ["ls2", str(expected)]

    def test_exact_solver_with_output_file(self, diamond_file, tmp_path, capsys):
        out = tmp_path / "d.sol"
        code = main(
            [
                "solve",
                "--instance", str(diamond_file),
                "--variant", "abs",
                "--solver", "exact",
                "-o", str(out),
            ]
        )
        assert code == 0
        instance = parse_instance(DIAMOND_TEXT)
        cost, values = enumerate_optimum(instance, ABSOLUTE)
        record = SolutionRecord(ABSOLUTE, "exact", cost, values, 0)
        assert cost == 4
        assert out.read_text() == format_solution(record, instance)
        assert "robust cost 4" in capsys.readouterr().out

    def test_param_flag_reaches_solver(self, diamond_file, capsys):
        code = main(
            [
                "solve",
                "--instance", str(diamond_file),
                "--variant", "dev",
                "--solver", "ec1",
                "--seed", "2",
                "--param", "generation_limit=4",
                "--param", "population_size=4",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("o deviation ec1 2 2\n")

    def test_bad_variant_is_one_error_line(self, diamond_file, capsys):
        code = main(
            [
                "solve",
                "--instance", str(diamond_file),
                "--variant", "worst",
                "--solver", "ls1",
            ]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "unknown variant" in lines[0]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--help"])
        assert err.value.code == 0
        assert "--variant" in capsys.readouterr().out

    def test_malformed_instance_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.rmcif"
        bad.write_text("p rmcif 2 1 1 1\na 1 2\n")
        code = main(
            ["solve", "--instance", str(bad), "--variant", "abs", "--solver", "ls1"]
        )
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestExportLp:
    def test_stdout(self, diamond_file, capsys):
        assert main(
            ["export-lp", "--instance", str(diamond_file), "--variant", "dev"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("\\ robust minimum-cost flow model, deviation variant\n")
        assert out.endswith("End\n")

    def test_file_output(self, diamond_file, tmp_path):
        out = tmp_path / "model.lp"
        main(
            [
                "export-lp",
                "--instance", str(diamond_file),
                "--variant", "abs",
                "-o", str(out),
            ]
        )
        assert "Generals" in out.read_text()


class TestBench:
    def test_full_run(self, tmp_path, capsys):
        instances = tmp_path / "set"
        instances.mkdir()
        for seed in (0, 1):
            code = main(
                [
                    "generate",
                    "--width", "2,2",
                    "--scenarios", "2",
                    "--cap", "1:3",
                    "--seed", str(seed),
                    "-o", str(instances / f"i{seed}.rmcif"),
                ]
            )
            assert code == 0
        capsys.readouterr()

        out_csv = tmp_path / "r.csv"
        sols = tmp_path / "sols"
        code = main(
            [
                "bench",
                "--dir", str(instances),
                "--variants", "abs,dev",
                "--solvers", "ls1,ec2",
                "--seeds", "0:1",
                "--out", str(out_csv),
                "--sol-dir", str(sols),
                "--param", "generation_limit=6",
                "--param", "population_size=4",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].split()[0] == "variant"
        assert len(out_csv.read_text().splitlines()) == 1 + 2 * 2 * 2 * 2
        assert len(list(sols.glob("*.sol"))) == 16

    def test_no_exact_flag(self, tmp_path, capsys):
        instances = tmp_path / "set"
        instances.mkdir()
        main(
            [
                "generate",
                "--width", "2,2",
                "--scenarios", "1",
                "--cap", "1:2",
                "-o", str(instances / "a.rmcif"),
            ]
        )
        out_csv = tmp_path / "r.csv"
        code = main(
            [
                "bench",
                "--dir", str(instances),
                "--variants", "abs",
                "--solvers", "ls1",
                "--seeds", "0",
                "--no-exact",
                "--out", str(out_csv),
            ]
        )
        assert code == 0
        header, row = out_csv.read_text().splitlines()
        assert row.split(",")[5] == ""
        capsys.readouterr()

    def test_missing_directory_reports_error(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--dir", str(tmp_path / "nowhere"),
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_broken_instance_is_named(self, tmp_path, capsys):
        instances = tmp_path / "set"
        instances.mkdir()
        (instances / "d.rmcif").write_text(DIAMOND_TEXT)
        (instances / "e.rmcif").write_text("".join(DIAMOND_TEXT.splitlines(True)[:2]))
        out_csv = tmp_path / "r.csv"
        code = main(["bench", "--dir", str(instances), "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "e.rmcif" in lines[0]
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "outputs",
        [["--out", "{tmp}/nodir/x.csv", "--sol-dir", "{tmp}/made/sols"],
         ["--out", "{tmp}/r.csv", "--sol-dir", "{tmp}/taken"]],
        ids=["csv-in-missing-directory", "sol-dir-is-a-file"],
    )
    def test_rejected_output_path_writes_nothing(self, outputs, tmp_path, capsys):
        # Neither output is left behind when the other cannot be made.
        instances = tmp_path / "set"
        instances.mkdir()
        (instances / "d.rmcif").write_text(DIAMOND_TEXT)
        (tmp_path / "taken").write_text("")
        argv = ["bench", "--dir", str(instances), "--solvers", "ls1"]
        code = main(argv + [arg.format(tmp=tmp_path) for arg in outputs])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["set", "taken"]
        assert (tmp_path / "taken").read_text() == ""


def _family(widths, seeds):
    """Instance bytes by seed, as `corpus` and `sweep` draw them with
    ``--scenarios 2 --cap 1:3 --cost 0:9``."""
    return {
        seed: write_instance(generate(GeneratorSpec(
            layer_widths=widths, scenario_count=2, capacity_range=(1, 3),
            cost_range=(0, 9), seed=seed,
        ))).encode()
        for seed in seeds
    }


GENERATOR_ARGS = ["--scenarios", "2", "--cap", "1:3", "--cost", "0:9"]


class TestCorpus:
    def test_files_are_the_generated_instances(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        argv = ["corpus", str(out), "--count", "3", "--width", "2,3", "--seed", "4"]
        assert main(argv + GENERATOR_ARGS) == 0
        assert capsys.readouterr().out == f"wrote 3 instances to {out}\n"
        family = _family((2, 3), (4, 5, 6))
        assert sorted(p.name for p in out.iterdir()) == [
            f"2x3_s{seed:04d}.rmcif" for seed in family
        ]
        for seed, data in family.items():
            assert (out / f"2x3_s{seed:04d}.rmcif").read_bytes() == data

    def test_late_failed_draw_writes_nothing(self, tmp_path, capsys):
        # the draws of seeds 28..31 reach flow value 5 in one attempt, seed 32's does not
        argv = ["--width", "3,3", "--scenarios", "2", "--cap", "1:3", "--seed", "28",
                "--flow", "5", "--retries", "1"]
        out = tmp_path / "four"
        assert main(["corpus", str(out), "--count", "4"] + argv) == 0
        assert len(list(out.iterdir())) == 4
        capsys.readouterr()
        out = tmp_path / "five"
        assert main(["corpus", str(out), "--count", "5"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no draw reached flow value 5 within 1 attempts (seed 32)\n"
        assert not out.exists()

    @pytest.mark.parametrize("flow", [[], ["--flow", "1"]], ids=["fraction", "flow"])
    def test_each_file_is_written_before_the_next_draw(self, flow, tmp_path, capsys, monkeypatch):
        out = tmp_path / "corpus"
        drawn = []

        def checked(spec):
            on_disk = sorted(p.name for p in out.iterdir()) if out.exists() else []
            # with --flow, every instance is drawn and dropped before the first write
            written = drawn[3:] if flow else drawn
            assert on_disk == [f"2x2_s{seed:04d}.rmcif" for seed in written]
            drawn.append(spec.seed)
            return generate(spec)

        monkeypatch.setattr(cli, "generate", checked)
        argv = ["corpus", str(out), "--count", "3", "--width", "2,2"] + GENERATOR_ARGS + flow
        assert main(argv) == 0
        assert drawn == [0, 1, 2] * (2 if flow else 1)

    def test_single_width_is_one_layer(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        argv = ["corpus", str(out), "--count", "1", "--width", "2"]
        assert main(argv + GENERATOR_ARGS) == 0
        assert (out / "2_s0000.rmcif").read_bytes() == _family((2,), (0,))[0]


class TestSweep:
    def test_each_shape_is_written_and_benched(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", str(out), "--shapes", "2x2,3x2", "--count", "2",
                "--solvers", "ls1", "--seeds", "0:1"]
        assert main(argv + GENERATOR_ARGS) == 0
        printed = capsys.readouterr().out
        for shape, widths in (("2x2", (2, 2)), ("3x2", (3, 2))):
            assert f"== shape {shape} (2 instances) ==" in printed
            family = out / shape
            for seed, data in _family(widths, (0, 1)).items():
                assert (family / f"s{seed:04d}.rmcif").read_bytes() == data
            with open(out / f"{shape}.csv") as handle:
                rows = list(csv.reader(handle))[1:]
            # 2 instances x 2 variants x 1 solver x 2 seeds
            assert len(rows) == 8
            bench_csv, bench_sols = tmp_path / f"{shape}.csv", tmp_path / f"{shape}-sols"
            main(["bench", "--dir", str(family), "--solvers", "ls1", "--seeds", "0:1",
                  "--out", str(bench_csv), "--sol-dir", str(bench_sols)])
            sols = sorted(p.name for p in (family / "solutions").iterdir())
            assert len(sols) == 8
            assert sols == sorted(p.name for p in bench_sols.iterdir())
            for name in sols:
                assert (family / "solutions" / name).read_bytes() == (bench_sols / name).read_bytes()
        capsys.readouterr()

    def test_benches_only_the_family_it_wrote(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", str(out), "--shapes", "2x2", "--solvers", "ls1"] + GENERATOR_ARGS
        assert main(argv + ["--count", "3"]) == 0
        assert main(argv + ["--count", "2"]) == 0
        capsys.readouterr()
        with open(out / "2x2.csv") as handle:
            names = {row[0] for row in list(csv.reader(handle))[1:]}
        assert names == {"s0000", "s0001"}

    # BAD_INPUTS runs these too, without the shared generator flags
    @pytest.mark.parametrize(
        "argv",
        [
            ["corpus", "{out}", "--width", "3,a"],
            ["corpus", "{out}", "--width", "3,3", "--count", "0"],
            ["corpus", "{out}", "--width", "0,3"],
            ["sweep", "{out}", "--solvers", "ls9"],
            ["sweep", "{out}", "--seeds", "0:x"],
            ["sweep", "{out}", "--shapes", "2x2,2x2"],
            ["corpus", "{out}", "--count", "3", "--width", "2,2", "--flow", "100000"],
            # the 3x3 family can be drawn, the 2x2 one cannot carry 3 units
            ["sweep", "{out}", "--shapes", "3x3,2x2", "--solvers", "ls1", "--count", "1",
             "--seeds", "0", "--cap", "1:1", "--flow", "3", "--retries", "2"],
        ],
        ids=["non-integer-width", "zero-count", "zero-width", "unknown-solver",
             "malformed-seeds", "repeated-shape", "corpus-failed-draw", "sweep-failed-draw"],
    )
    def test_bad_input_writes_nothing(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [arg.format(out=out) for arg in argv]
        # the shared flags go first, so a case's own flags override them
        code = main(argv[:2] + GENERATOR_ARGS + argv[2:])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()


def test_repeated_solve_runs_write_identical_files(diamond_file, tmp_path, capsys):
    outputs = []
    for name in ("first.sol", "second.sol"):
        path = tmp_path / name
        main(
            [
                "solve",
                "--instance", str(diamond_file),
                "--variant", "abs",
                "--solver", "ec5",
                "--seed", "42",
                "-o", str(path),
            ]
        )
        outputs.append(path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


# Each bad instance file kind sits in a directory of its own, after a
# good copy of the diamond, and is read by solve, export-lp and bench.
# A second item is the error text after the bench's file name.
BAD_FILES = {
    "non-ascii": (DIAMOND_TEXT.replace("s 2", "c \xff\ns 2").encode("latin-1"), None),
    "sparse-header": (b"p rmcif 2000000 0 1 0\ns 1\n", None),
    "duplicate-arc": (b"p rmcif 3 2 1 1\na 1 2 1\na 1 2 1\ns 1 1 1\n", "line 3: duplicate arc 1->2"),
    "self-loop": (b"p rmcif 3 2 1 1\na 1 2 1\na 2 2 1\ns 1 1 1\n", None),
    "negative-capacity": (b"p rmcif 3 2 1 1\na 1 2 -1\na 2 3 1\ns 1 1 1\n", None),
    "negative-cost": (
        b"p rmcif 3 2 1 1\na 1 2 1\na 2 3 1\ns 1 1 -1\n", "line 4: cost must be nonnegative, got -1"
    ),
    "short-scenario": (
        b"p rmcif 3 2 1 1\na 1 2 1\na 2 3 1\ns 1 1\n", "line 4: length mismatch: expected 2 costs, found 1"
    ),
    "long-scenario": (
        b"p rmcif 3 2 1 1\na 1 2 1\na 2 3 1\ns 1 1 1 1\n",
        "line 4: length mismatch: expected 2 costs, found 3",
    ),
    "truncated-instance": (
        "".join(DIAMOND_TEXT.splitlines(True)[:2]).encode(), "line 1: expected 4 arc lines, found 1"
    ),
}
BAD_INPUTS = {
    "missing-instance": ["solve", "--instance", "{missing}", "--variant", "abs", "--solver", "ls1"],
    "non-integer-param": ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
                          "--param", "neighborhood_size=abc"],
    "zero-param": ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
                   "--param", "neighborhood_size=0"],
    "zero-scenarios": ["generate", "--width", "2,2", "--scenarios", "0"],
    "density": ["generate", "--width", "2,2", "--scenarios", "1", "--density", "1.5"],
    "generate-negative-seed": ["generate", "--width", "2,2", "--scenarios", "1", "--seed", "-1"],
    "ec-negative-seed": ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ec1",
                         "--seed", "-1"],
    "ls-negative-seed": ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
                         "--seed", "-1"],
    "empty-seed-range": ["bench", "--dir", "{dir}", "--seeds", "3:1", "--out", "{csv}"],
    "solve-negative-budget": ["solve", "--instance", "{diamond}", "--variant", "abs",
                              "--solver", "exact", "--budget", "-5"],
    "bench-negative-budget": ["bench", "--dir", "{dir}", "--budget", "-1", "--out", "{csv}"],
    "bench-unknown-variant": ["bench", "--dir", "{dir}", "--variants", "foo", "--out", "{csv}"],
    "generate-oversized-cap": ["generate", "--width", "2,2", "--scenarios", "2",
                               "--cap", "99999999999999999999:99999999999999999999"],
    "generate-non-integer-cap": ["generate", "--width", "2,2", "--scenarios", "2", "--cap", "1:x"],
    "generate-non-integer-width": ["generate", "--width", "2,x", "--scenarios", "2"],
    "bench-unknown-solver": ["bench", "--dir", "{dir}", "--solvers", "ls9", "--out", "{csv}"],
    "solve-missing-variant": ["solve", "--instance", "{diamond}", "--solver", "ls1"],
    "no-command": [],
    "bench-negative-seed": ["bench", "--dir", "{dir}", "--seeds", "-1", "--out", "{csv}"],
    "bench-negative-seed-list": ["bench", "--dir", "{dir}", "--seeds", "0,-2", "--out", "{csv}"],
    "bench-negative-seed-range": ["bench", "--dir", "{dir}", "--seeds=-2:0", "--out", "{csv}"],
    "bench-malformed-seeds": ["bench", "--dir", "{dir}", "--seeds", "x", "--out", "{csv}"],
    "solve-unknown-solver": ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls9"],
    "export-lp-unknown-variant": ["export-lp", "--instance", "{diamond}", "--variant", "worst"],
    "bench-repeated-solver": ["bench", "--dir", "{dir}", "--solvers", "ls1,ls1", "--out", "{csv}"],
    "bench-csv-in-missing-directory": ["bench", "--dir", "{dir}", "--solvers", "ls1",
                                       "--out", "{out}/x.csv", "--sol-dir", "{out}-sols"],
    "corpus-zero-width": ["corpus", "{out}", "--count", "1", "--width", "0,3", "--scenarios", "3"],
    "corpus-non-integer-width": ["corpus", "{out}", "--count", "1", "--width", "3,a",
                                 "--scenarios", "3"],
    "corpus-zero-count": ["corpus", "{out}", "--count", "0", "--width", "3,3", "--scenarios", "3"],
    "corpus-negative-count": ["corpus", "{out}", "--count", "-2", "--width", "3,3", "--scenarios", "3"],
    "corpus-negative-seed": ["corpus", "{out}", "--width", "3,3", "--scenarios", "3", "--seed", "-1"],
    "sweep-unknown-solver": ["sweep", "{out}", "--shapes", "2x2", "--solvers", "ls9", "--count", "1",
                             "--scenarios", "3"],
    "sweep-malformed-seeds": ["sweep", "{out}", "--shapes", "2x2", "--seeds", "0:x", "--count", "1",
                              "--scenarios", "3"],
    "sweep-non-integer-shape": ["sweep", "{out}", "--shapes", "2xq", "--scenarios", "3"],
    "sweep-zero-width-shape": ["sweep", "{out}", "--shapes", "2x2,0x1", "--scenarios", "3"],
    "sweep-zero-count": ["sweep", "{out}", "--count", "0", "--scenarios", "3"],
    "sweep-negative-budget": ["sweep", "{out}", "--budget", "-1", "--scenarios", "3"],
    "sweep-repeated-solver": ["sweep", "{out}", "--solvers", "ls1,ls1", "--scenarios", "3"],
    "sweep-repeated-seed": ["sweep", "{out}", "--seeds", "0,0", "--scenarios", "3"],
    "sweep-empty-seed-range": ["sweep", "{out}", "--seeds", "3:1", "--scenarios", "3"],
    "sweep-negative-seed": ["sweep", "{out}", "--seeds", "-1", "--scenarios", "3"],
    "sweep-negative-seed-list": ["sweep", "{out}", "--seeds", "0,-1", "--scenarios", "3"],
    "sweep-negative-seed-range": ["sweep", "{out}", "--seeds=-2:0", "--scenarios", "3"],
    "corpus-unreached-flow": ["corpus", "{out}", "--count", "2", "--width", "2,2", "--scenarios", "2",
                              "--cap", "1:1", "--flow", "3", "--retries", "2"],
    # the 3x3 family can be drawn, the 2x2 one cannot carry 3 units
    "sweep-unreached-flow": ["sweep", "{out}", "--shapes", "3x3,2x2", "--solvers", "ls1",
                             "--count", "1", "--scenarios", "2", "--seeds", "0", "--cap", "1:1",
                             "--flow", "3", "--retries", "2"],
    "sweep-repeated-shape": ["sweep", "{out}", "--shapes", "2x2,2x2", "--solvers", "ls1",
                             "--count", "1", "--scenarios", "2"],
    # the draws of seeds 28..31 reach flow value 5 in one attempt, seed 32's does not
    "corpus-late-draw": ["corpus", "{out}", "--count", "5", "--width", "3,3", "--scenarios", "2",
                         "--cap", "1:3", "--seed", "28", "--flow", "5", "--retries", "1"],
    # each setting has one spelling: a --width list, repeated --param, 'none'
    # and the default solver list stand for these
    "generate-layers": ["generate", "--width", "2", "--layers", "2", "--scenarios", "1"],
    "solve-config": ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
                     "--config", "{config}"],
    "param-inf": ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
                  "--param", "generation_limit=inf"],
    "param-unbounded": ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
                        "--param", "iteration_limit=unbounded"],
    "bench-all-solvers": ["bench", "--dir", "{dir}", "--solvers", "all", "--out", "{csv}"],
}
ERROR_LINES = {
    "zero-scenarios": "error: scenario count must be positive, got 0",
    "density": "error: density must lie in (0, 1], got 1.5",
    "generate-negative-seed": "error: seed must be nonnegative, got -1",
    "generate-oversized-cap": "error: capacity_range lower end must lie in 0..9223372036854775807,"
                              " got 99999999999999999999",
    "generate-non-integer-cap": "error: argument --cap: expected integers lo:hi, got '1:x'",
    "generate-non-integer-width": "error: argument --width: expected comma-separated integers,"
                                  " got '2,x'",
    "corpus-negative-count": "error: instance count must be positive, got -2",
    "corpus-negative-seed": "error: seed must be nonnegative, got -1",
    "sweep-non-integer-shape": "error: argument --shapes: expected comma-separated shapes such as"
                               " 2x2,4x4x2, got '2xq'",
    "sweep-zero-width-shape": "error: layer widths must be positive, got 0",
    "sweep-zero-count": "error: instance count must be positive, got 0",
    "sweep-negative-budget": "error: node budget must be nonnegative, got -1",
    "sweep-repeated-solver": "error: repeated solver tag 'ls1'",
    "sweep-repeated-seed": "error: repeated seed 0",
    "sweep-empty-seed-range": "error: no seeds given",
    "sweep-negative-seed": "error: seed must be nonnegative, got -1",
    "sweep-negative-seed-list": "error: seed must be nonnegative, got -1",
    "sweep-negative-seed-range": "error: seed must be nonnegative, got -2",
    "corpus-late-draw": "error: no draw reached flow value 5 within 1 attempts (seed 32)",
    "generate-layers": "error: unrecognized arguments: --layers 2",
    "solve-config": "error: unrecognized arguments: --config {config}",
    "param-inf": "error: parameter generation_limit: expected an integer, got 'inf'",
    "param-unbounded": "error: parameter iteration_limit: expected an integer, got 'unbounded'",
    "bench-all-solvers": "error: unknown solver tag 'all'",
}
for kind, (_, text) in BAD_FILES.items():
    BAD_INPUTS[f"solve-{kind}"] = ["solve", "--instance", f"{{{kind}}}", "--variant", "abs",
                                   "--solver", "ls1"]
    BAD_INPUTS[f"export-lp-{kind}"] = ["export-lp", "--instance", f"{{{kind}}}", "--variant", "abs"]
    BAD_INPUTS[f"bench-{kind}"] = ["bench", "--dir", f"{{{kind}_dir}}", "--out", "{csv}"]
    if text:
        ERROR_LINES[f"solve-{kind}"] = ERROR_LINES[f"export-lp-{kind}"] = f"error: {text}"
        ERROR_LINES[f"bench-{kind}"] = f"error: {{{kind}}}: {text}"


def _check_bad_input(case, diamond_file, tmp_path, run):
    """`run` the case's command line: it must exit 1 after one error line,
    the exact one where `ERROR_LINES` has it, and write nothing."""
    paths = {"diamond": str(diamond_file), "dir": str(diamond_file.parent),
             "missing": str(tmp_path / "missing.rmcif"), "csv": str(tmp_path / "bench.csv"),
             "out": str(tmp_path / "out"), "config": str(tmp_path / "params.json")}
    for kind, (data, _) in BAD_FILES.items():
        folder = tmp_path / kind
        folder.mkdir()
        (folder / "a.rmcif").write_text(DIAMOND_TEXT)
        (folder / "bad.rmcif").write_bytes(data)
        paths[kind], paths[f"{kind}_dir"] = str(folder / "bad.rmcif"), str(folder)
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run([arg.format(**paths) for arg in BAD_INPUTS[case]])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if case in ERROR_LINES:
        assert lines[0] == ERROR_LINES[case].format(**paths)
    # no output file, .sol directory or corpus directory is left behind
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_is_one_error_line(case, diamond_file, tmp_path, capsys):
    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    _check_bad_input(case, diamond_file, tmp_path, run)


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_is_one_error_line_in_a_process(case, diamond_file, tmp_path):
    _check_bad_input(case, diamond_file, tmp_path, run_cli)


def test_running_out_of_memory_is_one_error_line(diamond_file, tmp_path):
    """A seed range too long to hold, in a child whose address space is capped at 1 GiB."""
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out_csv = tmp_path / "o.csv"
    argv = ["bench", "--dir", str(diamond_file.parent), "--seeds", "0:1000000000000",
            "--out", str(out_csv)]
    done = subprocess.run(
        [sys.executable, "-m", "rmcif.cli", *argv], capture_output=True, text=True,
        env=child_env(), preexec_fn=cap_address_space, timeout=300,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: out of memory\n")
    assert not out_csv.exists()


def test_huge_count_with_an_unreachable_flow_ends_at_once(tmp_path):
    """The first spec's draw fails before a second spec is made.

    A corpus of 10**12 instances whose flow value no draw reaches; the
    child's address space is capped at 1 GiB and it has 60 s, so a
    command that built every spec first would end in "out of memory" or
    a timeout, not in the draw's error.
    """
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = tmp_path / "huge"
    argv = ["corpus", str(out), "--count", "1000000000000", "--width", "2", "--scenarios", "1",
            "--cap", "1:1", "--flow", "5", "--retries", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "rmcif.cli", *argv], capture_output=True, text=True,
        env=child_env(), preexec_fn=cap_address_space, timeout=60,
    )
    error = "error: no draw reached flow value 5 within 1 attempts (seed 0)\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", error)
    assert not out.exists()
