"""numpy is loaded by the first `make_rng` call, never by ``import rmcif``.

ls1..ls4, `exact`, `export-lp` and the parser draw no random number, so
those paths run without numpy; ec1..ec9 and `generate` load it when they
make their generator.  The test process has numpy loaded already, so
every check runs in a fresh interpreter.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import rmcif

SRC = Path(rmcif.__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

# argv[1] says whether to import numpy before rmcif; argv[2] is a JSON
# list of command lines for `rmcif.cli.main`.  The last stdout line is
# whether numpy was loaded after the import, then the exit code and that
# flag after each command.
PROBE = """
import json, sys
if sys.argv[1] == "numpy-first":
    import numpy
import rmcif, rmcif.cli
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[2]):
    loaded.append([rmcif.cli.main(argv), "numpy" in sys.modules])
print(json.dumps(loaded))
"""


def _probe(commands, numpy_first=False):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), path))))
    order = "numpy-first" if numpy_first else "rmcif-first"
    done = subprocess.run(
        [sys.executable, "-c", PROBE, order, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_numpy():
    assert _probe([]) == [False]


def test_commands_that_never_draw_load_no_numpy(tmp_path):
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
    assert _probe(commands) == [False] + [[0, False]] * len(commands)
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
        assert _probe(commands, numpy_first) == [numpy_first, [0, True], [0, True]]
        outputs[numpy_first] = [(out / name).read_bytes() for name in ("ec1.sol", "gen.rmcif")]
    assert outputs[False] == outputs[True]
