"""Independent checks of the program's output, in plain Python.

A returned flow must respect capacities and conservation, carry the
required value F, have the robust cost the program reported, and cost at
least the LP bound.  `.sol` files are read with the benchmark's own
reader.  None of this calls `rmcif`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ABSOLUTE = "absolute"
DEVIATION = "deviation"


@dataclass(frozen=True)
class Arrays:
    """One instance as plain arrays, and its reference values."""

    vertex_count: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    caps: tuple[int, ...]
    costs: tuple[tuple[int, ...], ...]
    flow_value: int
    optima: tuple[int, ...] = ()  # scenario optima
    bounds: dict | None = None  # variant -> ceiling of the LP relaxation
    exact: dict | None = None  # variant -> MILP optimum, where computed


def load(path: Path) -> list[Arrays]:
    """Instances and reference values as `reference.prepare` wrote them."""
    out = []
    for item in json.loads(path.read_text()):
        out.append(Arrays(
            item["vertex_count"], tuple(item["tails"]), tuple(item["heads"]),
            tuple(item["caps"]), tuple(map(tuple, item["costs"])), item["flow_value"],
            tuple(item["optima"]), item["bounds"], item["exact"],
        ))
    return out


def robust_cost(inst: Arrays, variant: str, values) -> int:
    scenario = [sum(c * x for c, x in zip(row, values)) for row in inst.costs]
    if variant == DEVIATION:
        return max(s - z for s, z in zip(scenario, inst.optima))
    return max(scenario)


def check_flow(inst: Arrays, variant: str, values, reported: int) -> str | None:
    """None when `values` is a feasible value-F flow whose cost is as reported."""
    if len(values) != len(inst.tails):
        return f"{len(values)} arc values for {len(inst.tails)} arcs"
    net = [0] * (inst.vertex_count + 1)
    for i, (t, h, cap, x) in enumerate(zip(inst.tails, inst.heads, inst.caps, values)):
        if not isinstance(x, int) or not 0 <= x <= cap:
            return f"arc {i + 1}: value {x!r} outside [0, {cap}]"
        net[t] += x
        net[h] -= x
    for v in range(2, inst.vertex_count):
        if net[v]:
            return f"conservation broken at vertex {v}"
    if net[1] != inst.flow_value:
        return f"flow value {net[1]} differs from F = {inst.flow_value}"
    actual = robust_cost(inst, variant, values)
    if actual != reported:
        return f"reported robust cost {reported} but the flow costs {actual}"
    if reported < inst.bounds[variant]:
        return f"robust cost {reported} below the LP bound {inst.bounds[variant]}"
    return None


def read_sol(text: bytes, inst: Arrays) -> tuple[list[str], list[int]]:
    """``o`` header fields and arc values of `.sol` text."""
    index = {(t, h): i for i, (t, h) in enumerate(zip(inst.tails, inst.heads))}
    values = [0] * len(inst.tails)
    header = None
    for line in text.decode("ascii").splitlines():
        parts = line.split()
        if parts[0] == "o":
            header = parts[1:]
        elif parts[0] == "x":
            values[index[(int(parts[1]), int(parts[2]))]] = int(parts[3])
        else:
            raise ValueError(f"unexpected line {line!r}")
    if header is None:
        raise ValueError("no header line")
    return header, values
