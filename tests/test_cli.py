"""Command-line interface, driven through main(argv)."""
from __future__ import annotations

import argparse
import csv
import json

import pytest

from conftest import DIAMOND_TEXT
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
        assert len(_solver_list("all")) == 13
        assert _solver_list("ls1,ec9") == ("ls1", "ec9")
        assert _solver_list("ls9") == ("ls9",)
        with pytest.raises(InvalidParameter, match="unknown solver tag 'ls9'"):
            check_grid((ABSOLUTE,), _solver_list("ls9"), (0,))

    def test_build_params_overrides(self):
        params = _build_params(None, ["population_size=7", "generation_limit=none"])
        assert params.population_size == 7
        assert params.generation_limit is None

    def test_only_limits_defaulting_to_none_may_be_unbounded(self, diamond_file, capsys):
        params = _build_params(None, ["iteration_limit=None", "generation_limit=inf"])
        assert params.iteration_limit is None and params.generation_limit is None
        argv = ["solve", "--instance", str(diamond_file), "--variant", "abs", "--solver", "ls1",
                "--param", "population_size=none"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter population_size: expected an integer, got 'none'\n"

    def test_build_params_config_file(self, tmp_path):
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"tournament_size": 5, "iteration_limit": 9}))
        params = _build_params(str(config), ["tournament_size=2"])
        assert params.tournament_size == 2
        assert params.iteration_limit == 9

    def test_build_params_config_integral_float(self, tmp_path):
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"population_size": 4.0}))
        assert _build_params(str(config), []).population_size == 4

    def test_build_params_rejects_unknown_names(self):
        from rmcif import RmcifError

        with pytest.raises(RmcifError, match="unknown parameter names: popsize"):
            _build_params(None, ["popsize=3"])

    def test_defaults_without_flags(self):
        assert _build_params(None, []) == SearchParams()


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
        assert main(["generate", "--width", "2", "--layers", "2", "--scenarios", "1"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("p rmcif ")
        parse_instance(text)

    def test_single_width_needs_layers(self, capsys):
        code = main(["generate", "--width", "2", "--scenarios", "1"])
        assert code == 1
        assert "needs --layers" in capsys.readouterr().err

    def test_layers_width_conflict(self, capsys):
        code = main(
            ["generate", "--width", "2,2", "--layers", "3", "--scenarios", "1"]
        )
        assert code == 1
        assert "disagrees" in capsys.readouterr().err

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
        # the draws of seeds 1..4 reach flow value 5 in one attempt, seed 5's does not
        argv = ["--width", "3,3", "--scenarios", "2", "--cap", "1:3", "--seed", "1",
                "--flow", "5", "--retries", "1"]
        out = tmp_path / "four"
        assert main(["corpus", str(out), "--count", "4"] + argv) == 0
        assert len(list(out.iterdir())) == 4
        capsys.readouterr()
        out = tmp_path / "five"
        assert main(["corpus", str(out), "--count", "5"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no draw reached flow value 5 within 1 attempts (seed 5)\n"
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

    def test_single_width_repeats_over_layers(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        argv = ["corpus", str(out), "--count", "1", "--width", "2", "--layers", "3"]
        assert main(argv + GENERATOR_ARGS) == 0
        assert (out / "2x2x2_s0000.rmcif").read_bytes() == _family((2, 2, 2), (0,))[0]


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["corpus", "{out}", "--width", "3,a"],
            ["corpus", "{out}", "--width", "3,3", "--count", "0"],
            ["corpus", "{out}", "--width", "3,3", "--count", "-2"],
            ["corpus", "{out}", "--width", "0,3"],
            ["corpus", "{out}", "--width", "3,3", "--seed", "-1"],
            ["corpus", "{out}", "--width", "3"],
            ["sweep", "{out}", "--solvers", "ls9"],
            ["sweep", "{out}", "--shapes", "2xq"],
            ["sweep", "{out}", "--seeds", "0:x"],
            ["sweep", "{out}", "--seeds", "0,-1"],
            ["sweep", "{out}", "--budget", "-1"],
            ["sweep", "{out}", "--shapes", "2x2,0x1"],
            ["sweep", "{out}", "--count", "0"],
            ["sweep", "{out}", "--solvers", "ls1,ls1"],
            ["sweep", "{out}", "--seeds", "0,0"],
            ["sweep", "{out}", "--seeds", "3:1"],
            ["sweep", "{out}", "--seeds", "-1"],
            ["sweep", "{out}", "--seeds=-2:0"],
            ["sweep", "{out}", "--shapes", "2x2,2x2"],
            ["corpus", "{out}", "--count", "3", "--width", "2,2", "--flow", "100000"],
            # the 3x3 family can be drawn, the 2x2 one cannot carry 3 units
            ["sweep", "{out}", "--shapes", "3x3,2x2", "--solvers", "ls1", "--count", "1",
             "--seeds", "0", "--cap", "1:1", "--flow", "3", "--retries", "2"],
        ],
        ids=["non-integer-width", "zero-count", "negative-count", "zero-width",
             "negative-seed", "width-without-layers", "unknown-solver",
             "non-integer-shape", "malformed-seeds", "negative-seeds", "negative-budget",
             "zero-width-shape", "sweep-zero-count", "repeated-solver", "repeated-seed",
             "empty-seed-range", "negative-seed-list", "negative-seed-range",
             "repeated-shape", "corpus-failed-draw", "sweep-failed-draw"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--instance", "{missing}", "--variant", "abs", "--solver", "ls1"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
         "--param", "neighborhood_size=abc"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
         "--param", "neighborhood_size=0"],
        ["generate", "--width", "2", "--layers", "2", "--scenarios", "0"],
        ["generate", "--width", "2", "--layers", "2", "--scenarios", "1", "--density", "1.5"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
         "--config", "{config}"],
        ["generate", "--width", "2", "--layers", "2", "--scenarios", "1", "--seed", "-1"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ec1",
         "--seed", "-1"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
         "--seed", "-1"],
        ["bench", "--dir", "{dir}", "--seeds", "3:1", "--out", "{csv}"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "exact",
         "--budget", "-5"],
        ["bench", "--dir", "{dir}", "--budget", "-1", "--out", "{csv}"],
        ["bench", "--dir", "{dir}", "--variants", "foo", "--out", "{csv}"],
        ["solve", "--instance", "{latin}", "--variant", "abs", "--solver", "ls1"],
        ["export-lp", "--instance", "{latin}", "--variant", "abs"],
        ["bench", "--dir", "{latin_dir}", "--out", "{csv}"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
         "--config", "{config_latin}"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
         "--config", "{config_float}"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls1",
         "--config", "{config_bool}"],
        ["generate", "--width", "2", "--layers", "2", "--scenarios", "2",
         "--cap", "99999999999999999999:99999999999999999999"],
        ["generate", "--width", "2", "--layers", "2", "--scenarios", "2", "--cap", "1:x"],
        ["generate", "--width", "2,x", "--layers", "2", "--scenarios", "2"],
        ["bench", "--dir", "{dir}", "--solvers", "ls9", "--out", "{csv}"],
        ["solve", "--instance", "{diamond}", "--solver", "ls1"],
        [],
        ["solve", "--instance", "{sparse}", "--variant", "abs", "--solver", "ls1"],
        ["export-lp", "--instance", "{sparse}", "--variant", "abs"],
        ["bench", "--dir", "{sparse_dir}", "--out", "{csv}"],
        ["bench", "--dir", "{dir}", "--seeds", "-1", "--out", "{csv}"],
        ["bench", "--dir", "{dir}", "--seeds", "0,-2", "--out", "{csv}"],
        ["bench", "--dir", "{dir}", "--seeds=-2:0", "--out", "{csv}"],
        ["bench", "--dir", "{dir}", "--seeds", "x", "--out", "{csv}"],
        ["solve", "--instance", "{diamond}", "--variant", "abs", "--solver", "ls9"],
        ["export-lp", "--instance", "{diamond}", "--variant", "worst"],
    ],
    ids=["missing-instance", "non-integer-param", "zero-param", "zero-scenarios", "density",
         "config-not-json", "generate-negative-seed", "ec-negative-seed", "ls-negative-seed",
         "empty-seed-range", "solve-negative-budget", "bench-negative-budget",
         "bench-unknown-variant", "solve-non-ascii", "export-lp-non-ascii", "bench-non-ascii",
         "config-not-utf8", "config-float", "config-bool", "generate-oversized-cap",
         "generate-non-integer-cap", "generate-non-integer-width", "bench-unknown-solver",
         "solve-missing-variant", "no-command", "solve-sparse-header",
         "export-lp-sparse-header", "bench-sparse-header", "bench-negative-seed",
         "bench-negative-seed-list", "bench-negative-seed-range", "bench-malformed-seeds",
         "solve-unknown-solver", "export-lp-unknown-variant"],
)
def test_bad_input_is_one_error_line(argv, diamond_file, tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text("{neighborhood_size: 3")
    config_latin = tmp_path / "latin.json"
    config_latin.write_bytes(b"\xff{}")
    config_float = tmp_path / "float.json"
    config_float.write_text('{"population_size": 2.7}')
    config_bool = tmp_path / "bool.json"
    config_bool.write_text('{"neighborhood_size": true}')
    latin = tmp_path / "latin" / "diamond.rmcif"
    latin.parent.mkdir()
    latin.write_bytes(diamond_file.read_bytes().replace(b"s 2", b"c \xff\ns 2"))
    sparse = tmp_path / "sparse" / "sparse.rmcif"
    sparse.parent.mkdir()
    sparse.write_text("p rmcif 2000000 0 1 0\ns 1\n")
    paths = {
        "latin": str(latin),
        "latin_dir": str(latin.parent),
        "sparse": str(sparse),
        "sparse_dir": str(sparse.parent),
        "missing": str(tmp_path / "missing.rmcif"),
        "diamond": str(diamond_file),
        "config": str(config),
        "config_latin": str(config_latin),
        "config_float": str(config_float),
        "config_bool": str(config_bool),
        "dir": str(diamond_file.parent),
        "csv": str(tmp_path / "bench.csv"),
    }
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
