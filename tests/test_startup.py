"""Start-up imports only what every command needs.

numpy is loaded by the first `make_rng` call, never by ``import rmcif``:
ls1..ls4, `exact`, `export-lp` and the parser draw no random number, so
those paths run without numpy; ec1..ec9 and `generate` load it when they
make their generator.  No module of the package imports `dataclasses`
(which pulls in `inspect`) or `json`.  The test process has all of these
loaded already, so every run checks a fresh interpreter.
"""
from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SRC, child_env

DATA = Path(__file__).parent / "data"

WATCHED = ("numpy", "dataclasses", "inspect", "json")

# argv[1] says whether to import numpy before rmcif; the rest are command
# lines for `rmcif.cli.main`, separated by ";" tokens.  The probe imports
# nothing of its own, so what it reports the package loaded.  The last
# stdout line is the repr of a list: the watched modules loaded after the
# import, then the exit code and the watched modules loaded after each
# command.
PROBE = f"""
import sys
if sys.argv[1] == "numpy-first":
    import numpy
import rmcif, rmcif.cli
commands = []
for token in sys.argv[2:]:
    if token == ";":
        commands.append([])
    else:
        commands[-1].append(token)
loaded = lambda: sorted(name for name in {WATCHED!r} if name in sys.modules)
report = [loaded()]
for argv in commands:
    report.append([rmcif.cli.main(argv), loaded()])
print(repr(report))
"""


def _probe(commands, numpy_first=False):
    order = "numpy-first" if numpy_first else "rmcif-first"
    argv = [token for command in commands for token in (";", *command)]
    done = subprocess.run(
        [sys.executable, "-c", PROBE, order, *argv],
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


def test_drawing_commands_load_numpy_with_the_same_bytes(tmp_path):
    outputs = {}
    for numpy_first in (False, True):
        out = tmp_path / str(numpy_first)
        out.mkdir()
        commands = [
            ["solve", "--instance", str(DATA / "rev.rmcif"), "--variant", "deviation",
             "--solver", "ec1", "--seed", "3", "--param", "generation_limit=50",
             "-o", str(out / "ec1.sol")],
            ["generate", "--width", "3,3", "--scenarios", "3", "--seed", "5",
             "-o", str(out / "gen.rmcif")],
        ]
        report = _probe(commands, numpy_first)
        assert [("numpy" in loaded) for loaded in report[:1]] == [numpy_first]
        assert [(code, "numpy" in loaded) for code, loaded in report[1:]] == [(0, True)] * 2
        assert not {"dataclasses", "json"} & {name for _, loaded in report[1:] for name in loaded}
        outputs[numpy_first] = [(out / name).read_bytes() for name in ("ec1.sol", "gen.rmcif")]
    assert outputs[False] == outputs[True]


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
