#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --workloads descent,crossover,corpus --seeds 1:10
    python3 perfbench/prove.py --seeds 1:10 --out perfbench/baseline.json

Runs `run.py` once per (workload, seed), one process at a time, from the
root of the checkout.  For every end-to-end metric it prints the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  With ``--out`` it also writes
those figures, each run's `.sol` digest and the environment to a JSON
file, so a later run can be compared with this one (see ``--against``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition(":")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(s) for s in text.split(",")]


def _run(spec: dict, workload: str, seed: int) -> tuple[dict, str]:
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next((ln.split()[-1] for ln in lines if ln.startswith("sol sha256 ")), "")
    return json.loads(lines[-1]), digest


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1:10"))
    parser.add_argument("--out", type=Path, help="write the figures to this JSON file")
    parser.add_argument("--against", type=Path, help="compare medians and digests with a file --out wrote")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    record = {"environment": _environment(), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        digests = {}
        for seed in args.seeds:
            result, digest = _run(spec, workload, seed)
            digests[str(seed)] = digest
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            line = f"  {workload:<10} {name:<14} median {median:<11.5g} spread {spread:.3f}"
            line += f" (bound {bounds[name]})"
            if name != "setup_s" and spread > bounds[name]:
                line += "  OVER BOUND"
                ok = False
            elif name != "setup_s" and spread > bounds[name] / 3:
                line += "  above a third of the bound"
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                line += f"  was {before['median']:.5g} ({median / before['median'] - 1:+.1%})"
            print(line, flush=True)
        for seed, digest in digests.items():
            old = earlier.get(workload, {}).get("digests", {}).get(seed)
            if old and old != digest:
                print(f"  {workload} seed {seed}: .sol digest changed")
                ok = False
        record["workloads"][workload] = {"metrics": summary, "digests": digests}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
