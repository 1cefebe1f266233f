#!/usr/bin/env python3
"""Benchmark of the rmcif solvers: one workload per run, in this process.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; `rmcif` is imported from
``src/``.  The seed fixes every input: the benchmark writes its own
``.rmcif`` instances (`instances.py`) and computes an independent
reference for them with scipy (`reference.py`) before any clock starts.
A workload is a list of tasks.  The measured phase repeats that list
until `--seconds` have passed, and always finishes the first pass.
Every returned flow is checked against the reference, and every pass
must reproduce the first pass's ``.sol`` bytes.  Times are in reference
seconds, corrected for the machine's drifting speed (`speed.py`).

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics.  With ``--trace 1`` it holds the
per-layer metrics of one pass in which every task runs untraced and
then traced (`tracing.py`).  The lines before it are for people.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import check
import speed
import tracing

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
VARIANTS = (check.ABSOLUTE, check.DEVIATION)


@dataclass(frozen=True)
class Workload:
    shape: dict
    instance_count: int
    solvers: tuple[str, ...]
    params: dict = field(default_factory=dict)
    # solver -> how many of the instances it runs on (default: all)
    instances_for: dict = field(default_factory=dict)


# Shapes follow `instances.Shape`.  L: 32 vertices, 220 arcs.
L_SHAPE = dict(widths=(10, 10, 10), scenarios=10, caps=(1, 50), density=1.0)
S_SHAPE = dict(widths=(4, 4), scenarios=4, caps=(1, 5), density=0.8)
GENERATIONS = 30

WORKLOADS = {
    # Descent runs to its natural local optimum with default parameters.
    # ls4 runs one descent per scenario (ten on L), so it runs on two
    # instances and the other solvers on all eight: more instances per
    # second of solving make the run's figures steadier across seeds.
    "descent": Workload(
        L_SHAPE, 8, ("ls1", "ls2", "ls3", "ls4"), instances_for={"ls4": 2},
    ),
    # One solver per crossover kind, each with the perturb mutation; the
    # generation count is fixed so every run does the same work.
    "crossover": Workload(
        L_SHAPE, 12, ("ec1", "ec4", "ec7"),
        dict(generation_limit=GENERATIONS, no_improvement_limit=GENERATIONS),
    ),
    # The `rmcif bench` user flow, exact optima included.
    "corpus": Workload(S_SHAPE, 30, ("ls1", "ls4", "ec9")),
}
CORPUS_SEEDS = (0, 1)
# About a second of enumeration: most pairs are proven in a tenth of it,
# and a few need up to a million nodes; the cap keeps those few from
# setting the pass time (budget hits show in exact.proven_ratio).
CORPUS_BUDGET = 250_000
SETUP_REPEATS = 3

IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, "src")
import rmcif, rmcif.cli
print(time.perf_counter() - start)
"""


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_rmcif():
    """Import the package from this checkout's ``src/``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rmcif
    import rmcif.cli

    if Path(rmcif.__file__).resolve().parent != (src / "rmcif").resolve():
        raise SystemExit(f"rmcif was imported from {rmcif.__file__}, not from {src}")
    return rmcif


def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rmcif").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


_now = time.perf_counter


# ---------------------------------------------------------------- set-up


def _parse_and_optimise(rmcif, paths, track) -> tuple[list, list]:
    """Parse every instance file and compute each instance's scenario optima.

    Returns the instances and the (start, end) of each one's set-up; speed
    marks are taken between instances, outside those windows.
    """
    clear = getattr(rmcif.objectives.compute_optima, "cache_clear", None)
    if clear is not None:
        clear()
    parsed, windows = [], []
    for path in paths:
        text = path.read_text()
        track.maybe_mark()
        start = _now()
        inst = rmcif.core.parse_instance(text)
        rmcif.objectives.compute_optima(inst)
        windows.append((start, _now()))
        parsed.append(inst)
    return parsed, windows


def _import_in_child() -> float:
    """Seconds to import `rmcif` in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(result.stdout.split()[-1])


def set_up(rmcif, paths, track):
    """Set up SETUP_REPEATS times; return the instances and the set-up time.

    A set-up is an import of `rmcif` in a fresh interpreter plus parsing
    and scenario optima here; each part is timed SETUP_REPEATS times and
    the two medians are added.
    """
    parse_spans = []
    for _ in range(SETUP_REPEATS):
        parsed, windows = _parse_and_optimise(rmcif, paths, track)
        parse_spans.append(windows)
    import_spans = []
    for _ in range(SETUP_REPEATS):
        track.mark()
        start = _now()
        seconds = _import_in_child()
        import_spans.append((seconds, start, _now()))
    track.mark()
    parse_s = [sum(track.seconds(s, e) for s, e in windows) for windows in parse_spans]
    import_s = []
    for seconds, start, end in import_spans:
        reference, wall = track.split(start, end)
        import_s.append(seconds * reference / wall)
    note = (
        "setup_s = median import " + ", ".join(f"{s:.4f}" for s in import_s)
        + " + median parse and optima " + ", ".join(f"{s:.4f}" for s in parse_s)
    )
    return parsed, statistics.median(import_s) + statistics.median(parse_s), note


# ------------------------------------------------------------ measuring


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # (task, start, end, in p50 and tail) of each solve
    spans: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # (start, end) of each bench call
    gaps: dict = field(default_factory=dict)  # task -> gap in percent
    first_sols: dict = field(default_factory=dict)  # task -> .sol bytes

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def solution(self, task, text: bytes) -> bool:
        """Keep the first pass's bytes; a later pass must reproduce them."""
        first = self.first_sols.setdefault(task, text)
        if first != text:
            self.fail(f"{task}: .sol bytes differ from the first pass")
            return False
        return True

    def digest(self) -> str:
        h = hashlib.sha256()
        for task in sorted(self.first_sols, key=repr):
            h.update(self.first_sols[task])
        return h.hexdigest()


def _gap(cost: int, bound: int) -> float | None:
    return 100.0 * (cost - bound) / bound if bound > 0 else None


class SolveWorkload:
    """descent and crossover: `solve_one` on every (instance, solver, variant)."""

    def __init__(self, rmcif, workload: Workload, seed: int, refs, parsed):
        self.rmcif = rmcif
        self.seed = seed
        self.refs = refs
        self.parsed = parsed
        self.params = rmcif.heuristics.SearchParams(**workload.params)
        self.tasks = [
            (i, solver, variant)
            for i in range(len(parsed))
            for solver in workload.solvers
            if i < workload.instances_for.get(solver, len(parsed))
            for variant in VARIANTS
        ]

    def _solve(self, task):
        i, solver, variant = task
        start = _now()
        record = self.rmcif.bench.solve_one(self.parsed[i], variant, solver, self.seed, self.params)
        return record, start, _now()

    def _check(self, out: Outcome, task, record) -> None:
        i, solver, variant = task
        ref = self.refs[i]
        out.attempted += 1
        problem = check.check_flow(ref, variant, list(record.values), record.robust_cost)
        if record.solver != solver or record.variant != variant:
            problem = f"record is for {record.solver}/{record.variant}"
        if problem:
            out.fail(f"instance {i} {solver}/{variant}: {problem}")
            return
        try:
            text = self.rmcif.core.format_solution(record, self.parsed[i]).encode()
        except Exception as exc:  # a program error is counted, not fatal
            out.fail(f"instance {i} {solver}/{variant}: format_solution raised {exc!r}")
            return
        if out.solution(task, text):
            out.gaps.setdefault(task, _gap(record.robust_cost, ref.bounds[variant]))

    def measure(self, seconds: float, track) -> Outcome:
        out = Outcome()
        deadline = _now() + seconds
        first_pass = True
        while first_pass or _now() < deadline:
            for task in self.tasks:
                if not first_pass and _now() >= deadline:
                    break
                track.maybe_mark()
                try:
                    record, start, end = self._solve(task)
                except Exception as exc:  # a failing solve is counted, not fatal
                    out.attempted += 1
                    out.fail(f"{task}: {type(exc).__name__}: {exc}")
                    continue
                out.spans.append((task, start, end, True))
                self._check(out, task, record)
            first_pass = False
        track.mark()
        return out

    def traced_pass(self, tracer, track):
        """Each task untraced and traced (as run id n), in alternating order."""
        out = Outcome()
        plain, traced = [], []
        for n, task in enumerate(self.tasks, 1):
            for with_trace in (n % 2 == 0, n % 2 == 1):
                track.maybe_mark()
                if with_trace:
                    tracer.run_id = n
                    tracer.install()
                try:
                    record, start, end = self._solve(task)
                finally:
                    tracer.restore()
                (traced if with_trace else plain).append((n, start, end))
                self._check(out, task, record)
        track.mark()
        return out, plain, traced


class CorpusWorkload:
    """corpus: ``rmcif bench`` over a directory, through `rmcif.cli.main`."""

    def __init__(self, rmcif, workload: Workload, refs, paths, work: Path):
        self.rmcif = rmcif
        self.refs = {p.stem: ref for p, ref in zip(paths, refs)}
        self.sol_dir = work / "sol"
        self.csv = work / "bench.csv"
        self.argv = [
            "bench", "--dir", str(paths[0].parent), "--variants", "abs,dev",
            "--solvers", ",".join(workload.solvers),
            "--seeds", ",".join(map(str, CORPUS_SEEDS)),
            "--budget", str(CORPUS_BUDGET), "--out", str(self.csv),
            "--sol-dir", str(self.sol_dir),
        ]
        self.cells = len(paths) * len(VARIANTS) * len(workload.solvers) * len(CORPUS_SEEDS)
        self.pairs = len(paths) * len(VARIANTS)
        self.proven = 0

    def _pass(self, cells: list, mark):
        """One bench call; returns its (start, end).

        Each call the harness makes to `solve_one` or `enumerate_optimum`
        is timed into `cells`, after a call to `mark` for speed marks.
        """
        bench = self.rmcif.bench
        saved = {name: getattr(bench, name) for name in ("solve_one", "enumerate_optimum")}

        def timed(name, fn):
            def cell(*args, **kwargs):
                mark()
                start = _now()
                error = None
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    error = exc
                    raise
                finally:
                    cells.append((name, len(cells), start, _now(), error))

            return cell

        for name, fn in saved.items():
            setattr(bench, name, timed(name, fn))
        shutil.rmtree(self.sol_dir, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = _now()
                code = self.rmcif.cli.main(list(self.argv))
                end = _now()
        finally:
            for name, fn in saved.items():
                setattr(bench, name, fn)
        if code != 0:
            raise RuntimeError(f"rmcif bench exited with {code}")
        return start, end

    def _check(self, out: Outcome) -> None:
        out.attempted += self.cells + self.pairs
        with open(self.csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
        for _ in range(self.cells - len(rows)):
            out.fail(f"{self.cells - len(rows)} bench cells missing from the CSV")
        exact_seen = {}
        for row in rows:
            name, variant = row["instance"], row["variant"]
            ref = self.refs[name]
            task = (name, variant, row["solver"], row["seed"])
            sol = self.sol_dir / f"{name}_{variant}_{row['solver']}_s{row['seed']}.sol"
            try:
                text = sol.read_bytes()
                header, values = check.read_sol(text, ref)
            except (OSError, ValueError, KeyError) as exc:
                out.fail(f"{task}: unreadable .sol: {exc!r}")
                continue
            cost = int(row["robust_cost"])
            problem = check.check_flow(ref, variant, values, cost)
            if header != [variant, row["solver"], str(cost), row["seed"]]:
                problem = f".sol header {header} disagrees with the CSV row"
            elif problem is None and cost < ref.exact[variant]:
                problem = f"robust cost {cost} beats the MILP optimum {ref.exact[variant]}"
            if problem:
                out.fail(f"{task}: {problem}")
                continue
            if out.solution(task, text):
                out.gaps.setdefault(task, _gap(cost, ref.bounds[variant]))
            exact_seen[(name, variant)] = row["exact_cost"]
        self.proven = 0
        for (name, variant), found in sorted(exact_seen.items()):
            if not found:
                continue
            self.proven += 1
            if int(found) != self.refs[name].exact[variant]:
                out.fail(
                    f"{name}/{variant}: enumerator optimum {found}"
                    f" != MILP optimum {self.refs[name].exact[variant]}"
                )

    def measure(self, seconds: float, track) -> Outcome:
        out = Outcome()
        budget_error = self.rmcif.exact.BudgetExceeded
        deadline = _now() + seconds
        while not out.passes or _now() < deadline:
            cells: list = []
            track.mark()
            try:
                out.passes.append(self._pass(cells, track.maybe_mark))
            except Exception as exc:  # a failing pass is counted, not fatal
                out.attempted += self.cells + self.pairs
                for _ in range(self.cells + self.pairs):
                    out.fail(f"rmcif bench raised {type(exc).__name__}: {exc}")
                continue
            for name, index, start, end, error in cells:
                # the exact reference counts as a cell, not as a solver's latency
                out.spans.append((index, start, end, name == "solve_one"))
                if error is not None and not isinstance(error, budget_error):
                    out.fail(f"call {index}: {type(error).__name__}: {error}")
            self._check(out)
        track.mark()
        return out

    def traced_pass(self, tracer, track):
        """An untraced, a traced (run id 1) and another untraced bench call.

        Speed marks inside the traced call are spans of their own, so the
        harness's self time leaves them out.
        """
        out = Outcome()
        plain, traced = [], []
        for with_trace in (False, True, False):
            track.mark()
            mark = track.maybe_mark
            if with_trace:
                tracer.run_id = 1
                tracer.install()
                mark = tracer.span(tracing.SPEED_MARK, mark)
            try:
                window = (1, *self._pass([], mark))
            finally:
                tracer.restore()
            (traced if with_trace else plain).append(window)
            self._check(out)
        track.mark()
        return out, plain, traced


# ------------------------------------------------------------ reporting


def _tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile that leaves >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # nearest rank: ceil(pct * n / 100)
    return ordered[rank - 1], pct


def end_to_end(out: Outcome, track, setup: float) -> tuple[dict, list[str]]:
    """Per-task mean times weigh every task equally, however many passes ran."""
    times: dict = {}
    latency: set = set()
    wall = 0.0
    for task, start, end, in_latency in out.spans:
        times.setdefault(task, []).append(track.seconds(start, end))
        wall += end - start
        if in_latency:
            latency.add(task)
    means = [statistics.fmean(v) for v in times.values()]
    solve_means = [statistics.fmean(v) for task, v in times.items() if task in latency]
    if out.passes:  # corpus: the whole bench call, orchestration included
        pass_seconds = statistics.fmean(track.seconds(s, e) for s, e in out.passes)
    else:
        pass_seconds = sum(means)
    tail, pct = _tail(solve_means)
    gaps = [g for g in out.gaps.values() if g is not None]
    metrics = {
        "solves_per_s": (len(means) / pass_seconds, "1/s"),
        "solve_s_p50": (statistics.median(solve_means), "s"),
        "solve_s_tail": (tail, "s"),
        "setup_s": (setup, "s"),
        "gap_pct": (statistics.fmean(gaps) if gaps else 0.0, "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    measured = sum(sum(v) for v in times.values())
    notes = [
        f"solve_s_tail is p{pct} of {len(solve_means)} per-task mean times"
        f" ({len(out.spans)} solves in all)",
        f"gap_pct averages {len(gaps)} distinct solves with a positive LP bound",
        f"wall seconds of the solves {wall:.3f}, reference seconds {measured:.3f}",
    ]
    return metrics, notes


def per_layer(tracer, track, windows, plain, traced) -> dict:
    """Layer totals over set-up (run id 0) and the traced pass, in reference seconds."""
    reference, wall = defaultdict(float), defaultdict(float)
    for run, start, end in windows:
        ref, unmarked = track.split(start, end)
        reference[run] += ref
        wall[run] += unmarked
    scale = {run: reference[run] / wall[run] for run in wall}
    counts = tracer.counts
    child = [0.0] * len(tracer.spans)
    for _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    own: dict = {}
    inclusive: dict = {}
    calls: dict = {}
    setup_own = 0.0
    for (name, start, end, _, run), covered in zip(tracer.spans, child):
        self_s = (end - start - covered) * scale[run]
        own[name] = own.get(name, 0.0) + self_s
        inclusive[name] = inclusive.get(name, 0.0) + (end - start) * scale[run]
        calls[name] = calls.get(name, 0) + 1
        if run == 0 and name == "flow_ops.cost_reduce":
            setup_own += self_s

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    evaluations = calls.get(tracing.EVALUATE, 0)
    # the same work untraced and traced; corpus runs its untraced call twice
    plain_s = sum(track.seconds(s, e) for _, s, e in plain) * len(traced) / len(plain)
    traced_s = sum(track.seconds(s, e) for _, s, e in traced)
    metrics.update({
        "flow_ops.cost_reduce.optimal_ratio": (
            ratio(counts["cost_reduce.optimal"], calls.get("flow_ops.cost_reduce", 0)), "ratio"),
        "flow_ops.cost_reduce.setup_share": (
            ratio(setup_own, own.get("flow_ops.cost_reduce", 0.0)), "ratio"),
        "flow_ops.perturb.noop_ratio": (
            ratio(counts["perturb.noop"], calls.get("flow_ops.perturb", 0)), "ratio"),
        "objectives.evaluations_per_s": (
            ratio(evaluations, inclusive.get(tracing.EVALUATE, 0.0)), "1/s"),
        "heuristics.self_s": (
            own.get("heuristics.local_search", 0.0) + own.get("heuristics.evolutionary", 0.0), "s"),
        "heuristics.moves": (counts["moves"], "count"),
        "heuristics.generations": (counts["generations"], "count"),
        "heuristics.move_ratio": (ratio(counts["moves"], evaluations), "ratio"),
        "heuristics.insert_child.accept_ratio": (
            ratio(counts["insert_child.accepted"], counts["insert_child.calls"]), "ratio"),
        "exact.proven_ratio": (
            ratio(counts["exact.proven"], calls.get("exact.enumerate_optimum", 0)), "ratio"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_pct": (ratio(100.0 * (traced_s - plain_s), plain_s), "%"),
    })
    return metrics


def _check_digest(key: str, digest: str) -> str | None:
    """Record the digest per (code, workload, seed); report a disagreement."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    previous = known.setdefault(key, digest)
    if previous != digest:
        return f"digest {digest[:16]} differs from an earlier run's {previous[:16]} ({key})"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
    tmp.replace(path)
    return None


def _environment() -> str:
    version = importlib.metadata.version
    return (
        f"python {sys.version.split()[0]}, numpy {version('numpy')},"
        f" scipy {version('scipy')}, nproc {os.cpu_count()}"
    )


# ----------------------------------------------------------------- main


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "rmcif" / "__init__.py").is_file():
        print("error: run from a checkout of the repository (src/rmcif is missing)", file=sys.stderr)
        return 2
    rmcif = _import_rmcif()

    workload = WORKLOADS[args.workload]
    track = speed.SpeedTrack()
    work = STATE / f"{args.workload}-{args.seed}-{os.getpid()}"
    inst_dir = work / "instances"
    inst_dir.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "reference.py"), json.dumps(workload.shape),
             str(args.seed), str(workload.instance_count), str(inst_dir),
             "1" if args.workload == "corpus" else "0"],
            cwd=ROOT, timeout=600, check=True,
        )
        refs = check.load(inst_dir / "reference.json")
        paths = sorted(inst_dir.glob("*.rmcif"))

        tracer = tracing.Tracer(rmcif) if args.trace else None
        if tracer is not None:  # one traced set-up, as run id 0
            tracer.install()
            try:
                parsed, setup_windows = _parse_and_optimise(rmcif, paths, track)
            finally:
                tracer.restore()
            track.mark()
        else:
            parsed, setup, setup_note = set_up(rmcif, paths, track)
        if args.workload == "corpus":
            runner = CorpusWorkload(rmcif, workload, refs, paths, work)
        else:
            runner = SolveWorkload(rmcif, workload, args.seed, refs, parsed)

        if tracer is not None:
            out, plain, traced = runner.traced_pass(tracer, track)
            tracer.write(STATE / f"spans-{args.workload}.jsonl.gz")
            windows = [(0, s, e) for s, e in setup_windows] + traced
            metrics = per_layer(tracer, track, windows, plain, traced)
            notes = [f"trace: {len(tracer.spans)} spans of one pass, set-up included"]
        else:
            out = runner.measure(args.seconds, track)
            metrics, notes = end_to_end(out, track, setup)
            notes.append(setup_note)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = out.digest()
    clash = _check_digest(f"{_code_hash()}:{args.workload}:{args.seed}", digest)
    if clash:
        out.fail(clash)
    if args.workload == "corpus":
        notes.append(f"exact: {runner.proven} of {runner.pairs} pairs proven within the budget")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {out.failed / max(out.attempted, 1):.6g} ratio")
    for line in notes + [f"sol sha256 {digest}", _environment()] + out.problems:
        print(line)
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
