"""Start-up imports only what every command needs, and no command loads numpy.

rmcif draws its random numbers from the standard library (`rmcif.draws`),
so no command, ec1..ec9, `generate`, `corpus` and `sweep` included, loads
numpy, and a run in a process where ``import numpy`` fails writes the
same bytes as a run where it would work.  No module of the package
imports `dataclasses` (which pulls in `inspect`) or `json`.  The test
process has all of these loaded already, so every run checks a fresh
interpreter.
"""
from __future__ import annotations

import ast
import csv
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SRC, child_env
from rmcif import EC_SOLVERS

DATA = Path(__file__).parent / "data"

WATCHED = ("numpy", "dataclasses", "inspect", "json")

# argv[1] says whether ``import numpy`` must fail in the probe; the rest
# are command lines for `rmcif.cli.main`, separated by ";" tokens.  The
# probe imports nothing of its own, so what it reports the package
# loaded.  The last stdout line is the repr of a list: the watched modules
# loaded after the import, then the exit code and the watched modules
# loaded after each command.
PROBE = f"""
import sys
if sys.argv[1] == "numpy-blocked":
    sys.modules["numpy"] = None  # `import numpy` now raises ImportError
import rmcif, rmcif.cli
commands = []
for token in sys.argv[2:]:
    if token == ";":
        commands.append([])
    else:
        commands[-1].append(token)
loaded = lambda: sorted(name for name in {WATCHED!r} if sys.modules.get(name))
report = [loaded()]
for argv in commands:
    report.append([rmcif.cli.main(argv), loaded()])
print(repr(report))
"""


def _probe(commands, numpy_blocked=False):
    mode = "numpy-blocked" if numpy_blocked else "numpy-importable"
    argv = [token for command in commands for token in (";", *command)]
    done = subprocess.run(
        [sys.executable, "-c", PROBE, mode, *argv],
        capture_output=True, text=True, env=child_env(), timeout=300, check=True,
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_import_loads_no_numpy():
    """Nor dataclasses, inspect or json."""
    assert _probe([]) == [[]]


def test_commands_that_never_draw_load_no_numpy(tmp_path):
    """Nor dataclasses, inspect or json."""
    cyc = str(DATA / "cyc.rmcif")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(cyc, corpus)
    commands = [
        ["solve", "--instance", cyc, "--variant", "absolute", "--solver", "ls1",
         "-o", str(tmp_path / "ls1.sol")],
        ["solve", "--instance", cyc, "--variant", "deviation", "--solver", "exact",
         "-o", str(tmp_path / "exact.sol")],
        ["export-lp", "--instance", cyc, "--variant", "absolute", "-o", str(tmp_path / "cyc.lp")],
        ["bench", "--dir", str(corpus), "--solvers", "ls1,ls4", "--out", str(tmp_path / "bench.csv")],
    ]
    assert _probe(commands) == [[]] + [[0, []]] * len(commands)
    assert (tmp_path / "bench.csv").stat().st_size > 0


def _written(out: Path) -> dict[str, object]:
    """Every file under `out`: its bytes, or for a bench CSV its rows
    without the timing columns, which differ from run to run."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = str(path.relative_to(out))
        if path.suffix == ".csv":
            with path.open(newline="") as handle:
                files[name] = [
                    {k: v for k, v in row.items() if k not in ("seconds", "speedup")}
                    for row in csv.DictReader(handle)
                ]
        else:
            files[name] = path.read_bytes()
    return files


def test_no_command_loads_numpy_and_blocking_it_changes_no_byte(tmp_path):
    """Every drawing command, in a process where ``import numpy`` works and
    in one where it fails: neither loads numpy, and both write the same."""
    rev = str(DATA / "rev.rmcif")
    written = {}
    for numpy_blocked in (False, True):
        out = tmp_path / str(numpy_blocked)
        bench_dir = out / "bench-in"
        bench_dir.mkdir(parents=True)
        shutil.copy(rev, bench_dir)
        commands = [
            ["generate", "--width", "3,3", "--scenarios", "3", "--seed", "5",
             "-o", str(out / "gen.rmcif")],
            *(["solve", "--instance", rev, "--variant", "deviation", "--solver", solver,
               "--seed", "3", "--param", "generation_limit=20", "-o", str(out / f"{solver}.sol")]
              for solver in EC_SOLVERS),
            ["bench", "--dir", str(bench_dir), "--solvers", "ec1,ec5,ec9", "--seeds", "0:1",
             "--no-exact", "--param", "generation_limit=10", "--out", str(out / "bench.csv"),
             "--sol-dir", str(out / "bench-sol")],
            ["corpus", str(out / "corpus"), "--count", "3", "--width", "3,3", "--scenarios", "2",
             "--seed", "7"],
            ["sweep", str(out / "sweep"), "--shapes", "2x2,3", "--count", "2", "--scenarios", "2",
             "--solvers", "ls1,ec2,ec7", "--seeds", "0:1"],
        ]
        report = _probe(commands, numpy_blocked)
        assert report == [[]] + [[0, []]] * len(commands)
        written[numpy_blocked] = _written(out)
    # gen.rmcif, nine .sol files, the bench input, its CSV and 12 .sol files,
    # three corpus files, and per sweep shape two instances, a CSV and 24 .sol
    assert len(written[False]) == 1 + 9 + 1 + 1 + 12 + 3 + 2 * (2 + 1 + 24)
    assert written[False] == written[True]


def _imported_modules():
    """(file name, names of the modules each import statement of the package names)."""
    for path in sorted((SRC / "rmcif").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield path.name, [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                yield path.name, [node.module or ""]


def test_no_module_imports_dataclasses():
    for name, modules in _imported_modules():
        assert "dataclasses" not in modules, f"{name} imports dataclasses"


def test_no_module_imports_json():
    for name, modules in _imported_modules():
        assert "json" not in modules, f"{name} imports json"
