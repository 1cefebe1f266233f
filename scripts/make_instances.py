#!/usr/bin/env python3
"""Build a reusable corpus of layered .rmcif instances.

Instance i is drawn with generator seed start-seed + i; each one's flow
value is its maximum flow scaled by the flow fraction, so every seed
gives an instance and the corpus holds exactly `count` files.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from rmcif import GeneratorSpec, RmcifError, generate, write_instance


def int_pair(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def write_corpus(
    directory: Path, count: int, start_seed: int = 0, prefix: str = "", **spec
) -> None:
    """Write `count` instances, seeds from `start_seed` on, as
    ``<prefix>s<seed>.rmcif``; `spec` holds the other `GeneratorSpec` fields."""
    directory.mkdir(parents=True, exist_ok=True)
    for seed in range(start_seed, start_seed + count):
        instance = generate(GeneratorSpec(seed=seed, **spec))
        (directory / f"{prefix}s{seed:04d}.rmcif").write_text(write_instance(instance))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", type=Path, help="directory for the .rmcif files")
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--widths", default="3x3", help="middle layer widths, e.g. 4x4x2")
    parser.add_argument("--scenarios", type=int, default=3)
    parser.add_argument("--caps", type=int_pair, default=(1, 3), metavar="LO:HI")
    parser.add_argument("--costs", type=int_pair, default=(0, 9), metavar="LO:HI")
    parser.add_argument("--density", type=float, default=0.8)
    parser.add_argument("--flow-fraction", type=float, default=0.5)
    parser.add_argument("--start-seed", type=int, default=0)
    args = parser.parse_args()

    try:
        write_corpus(
            args.out,
            args.count,
            args.start_seed,
            f"{args.widths}_",
            layer_widths=tuple(int(w) for w in args.widths.split("x")),
            scenario_count=args.scenarios,
            capacity_range=args.caps,
            cost_range=args.costs,
            density=args.density,
            flow_fraction=args.flow_fraction,
        )
    except RmcifError as exc:
        sys.exit(f"error: {exc}")
    print(f"wrote {args.count} instances to {args.out}")


if __name__ == "__main__":
    main()
