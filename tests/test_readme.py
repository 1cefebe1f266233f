"""The README's examples run and print what the README says they print.

Its ```python blocks run in order, in one namespace: the first must print
the costs its comment states, and the diamond built by hand must write
the ``.rmcif`` text that "File formats" shows.  Its command-line
transcript is replayed through `cli.main` in a scratch directory: every
command but `bench`, whose table reports wall time, must exit 0 and
print the lines that follow it in the transcript, byte for byte.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from rmcif import cli, write_instance

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
FENCES = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def _block(info: str, start: str) -> str:
    """The first fenced block with info string `info` whose text begins with `start`."""
    return next(body for kind, body in FENCES if kind == info and body.startswith(start))


def test_python_blocks_run(capsys):
    namespace: dict = {}
    for kind, body in FENCES:
        if kind == "python":
            exec(compile(body, "README.md", "exec"), namespace)
    instance_text = _block("", "p rmcif ")
    assert write_instance(namespace["diamond"]) == instance_text
    printed = re.search(r"^print\(record\.robust_cost, exact_cost\)  # (.*)$", README, re.M)
    assert capsys.readouterr().out == printed.group(1) + "\n" + instance_text


def test_cli_transcript(tmp_path, monkeypatch, capsys):
    steps: list[tuple[list[str], list[str]]] = []
    for line in _block("", "$ rmcif ").splitlines(keepends=True):
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:])[1:], []))
        else:
            steps[-1][1].append(line)
    monkeypatch.chdir(tmp_path)
    replayed = []
    for argv, lines in steps:
        if argv[0] == "bench":
            continue
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == "".join(lines), argv
        replayed.append(argv[0])
    assert replayed == ["generate", "solve", "export-lp", "corpus"]
