"""The `rmcif` command end to end, each run in a child interpreter.

Every run goes through `conftest.run_cli`, which fails on a Python
traceback in its output, whether the command succeeds or not.  The
chain a new user runs, the cyclic instances, the exact solver's search
and its budget, and the determinism contract run here: one seed writes
the same ``.sol`` bytes in two processes under different string-hash
seeds.  The bad inputs, one error line each and nothing written, are the
`test_bad_input_is_one_error_line` table in `test_cli.py`, which runs
them in this process and in a child one.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from conftest import finish_cli, run_cli, start_cli
from rmcif import EC_SOLVERS, LS_SOLVERS

DATA = Path(__file__).parent / "data"


def test_readme_chain(tmp_path):
    (tmp_path / "corpus").mkdir()
    demo = "corpus/demo.rmcif"
    ranges = ["--cap", "1:3", "--cost", "0:9", "--density", "0.8"]
    for argv in [
        ["generate", "--width", "2,2", "--scenarios", "2", "--cap", "1:3", "--cost", "0:9",
         "--seed", "3", "-o", demo],
        ["solve", "--instance", demo, "--variant", "absolute", "--solver", "ec9", "--seed", "1"],
        ["export-lp", "--instance", demo, "--variant", "deviation", "-o", "demo.lp"],
        ["bench", "--dir", "corpus", "--solvers", "ls1,ls4,ec9", "--seeds", "0:1", "--out", "bench.csv"],
        ["corpus", "made", "--count", "2", "--width", "3,3", "--scenarios", "3", *ranges],
        ["sweep", "trend", "--shapes", "2x2", "--solvers", "ls1", "--count", "2", "--scenarios", "3",
         *ranges],
    ]:
        assert run_cli(argv, tmp_path)[0] == 0, argv


@pytest.mark.parametrize(
    "name, solver, variant",
    [("cyc", "ec7", "absolute"), ("cyc", "ec8", "absolute"), ("cyc", "ec9", "deviation"),
     ("rev", "ec7", "absolute"), ("rev", "ec8", "absolute"), ("rev", "ec9", "deviation"),
     ("cyc", "exact", "absolute")],
)
def test_cyclic_instance_solves(name, solver, variant):
    argv = ["solve", "--instance", DATA / f"{name}.rmcif", "--variant", variant, "--solver", solver,
            "--seed", "0"]
    assert run_cli(argv)[0] == 0


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    """A generated layered instance, the cyclic reproducer and rev.rmcif, on
    which the descents and mutations cancel cycles."""
    det = tmp_path_factory.mktemp("det") / "det.rmcif"
    argv = ["generate", "--width", "6,6,6", "--scenarios", "5", "--cap", "1:20", "--cost", "0:99",
            "--seed", "1", "-o", det]
    assert run_cli(argv)[0] == 0
    return {"det": det, "cyc": DATA / "cyc.rmcif", "rev": DATA / "rev.rmcif"}


@pytest.mark.parametrize("solver", EC_SOLVERS + LS_SOLVERS)
@pytest.mark.parametrize("name", ["det", "cyc", "rev"])
def test_two_processes_write_the_same_sol_bytes(name, solver, instances, tmp_path):
    # both passes run at once, never more: string hashing differs between them
    sols = [tmp_path / "1.sol", tmp_path / "2.sol"]
    argv = ["solve", "--instance", instances[name], "--variant", "deviation", "--solver", solver,
            "--seed", "3", "--param", "generation_limit=50", "-o"]
    runs = [start_cli([*argv, sol], PYTHONHASHSEED=sol.stem) for sol in sols]
    try:
        assert [finish_cli(run)[0] for run in runs] == [0, 0]
    finally:
        for run in runs:
            run.kill()
    assert sols[0].read_bytes() == sols[1].read_bytes()


def test_exact_search_and_its_budget(tmp_path):
    # both variants have to search this instance
    search = tmp_path / "search"
    search.mkdir()
    instance = search / "s.rmcif"
    argv = ["generate", "--width", "2,2", "--scenarios", "3", "--cap", "1:3", "--cost", "0:9",
            "--seed", "0", "-o", instance]
    assert run_cli(argv)[0] == 0
    code, out, _ = run_cli(["solve", "--instance", instance, "--variant", "dev", "--solver", "exact"])
    assert code == 0 and "o deviation exact 3 0" in out.splitlines()
    argv = ["solve", "--instance", instance, "--variant", "abs", "--solver", "exact", "--budget", "1"]
    assert run_cli(argv) == (1, "", "error: enumeration budget exhausted after 2 nodes\n")
    # bench warns once per variant and goes on
    argv = ["bench", "--dir", search, "--solvers", "ls1", "--budget", "1", "--out", tmp_path / "s.csv"]
    code, _, err = run_cli(argv)
    assert code == 0
    assert sum("exact solve failed" in line for line in err.splitlines()) == 2


def test_four_instance_twin_of_the_late_failing_corpus(tmp_path):
    # the table's corpus-late-draw case fails at its fifth draw and writes nothing
    argv = ["corpus", tmp_path / "late", "--count", "4", "--width", "3,3", "--scenarios", "2",
            "--cap", "1:3", "--seed", "28", "--flow", "5", "--retries", "1"]
    assert run_cli(argv)[0] == 0
    assert len(list((tmp_path / "late").iterdir())) == 4
