"""Seeded layered-DAG instances written as ``.rmcif`` text.

The benchmark owns this writer so that a change to `rmcif.generator`
cannot silently change a workload: the program under test only ever
sees the text, through `parse_instance`.

Vertex 1 is the source and the last vertex the sink.  The source feeds
every first-layer vertex, every last-layer vertex feeds the sink, and
each arc between adjacent middle layers is kept with probability
`density`; a repair pass then gives every middle vertex at least one
entry and one exit.  Capacities and costs are uniform integers, drawn
in a fixed order from one Philox stream, so a shape and a seed fix the
text.  The required value F is half the maximum flow, rounded half-up.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from check import Arrays


@dataclass(frozen=True)
class Shape:
    widths: tuple[int, ...]
    scenarios: int
    caps: tuple[int, int]
    costs: tuple[int, int] = (0, 99)
    density: float = 1.0


def _arcs(widths: tuple[int, ...], density: float, rng) -> list[tuple[int, int]]:
    layers = [[1]]
    nxt = 2
    for w in widths:
        layers.append(list(range(nxt, nxt + w)))
        nxt += w
    sink = nxt
    pairs = [(1, v) for v in layers[1]]
    middle = list(zip(layers[1:-1], layers[2:]))
    for left, right in middle:
        pairs += [(u, v) for u in left for v in right if rng.random() < density]
    pairs += [(u, sink) for u in layers[-1]]
    for left, right in middle:
        heads = {h for _, h in pairs}
        pairs += [(left[int(rng.integers(len(left)))], v) for v in right if v not in heads]
        tails = {t for t, _ in pairs}
        pairs += [(u, right[int(rng.integers(len(right)))]) for u in left if u not in tails]
    return pairs


def make(shape: Shape, seed: int, max_flow) -> Arrays:
    """The instance for `seed`; `max_flow(n, tails, heads, caps)` sets F."""
    rng = np.random.Generator(np.random.Philox(seed))
    pairs = _arcs(shape.widths, shape.density, rng)
    lo, hi = shape.caps
    caps = tuple(int(c) for c in rng.integers(lo, hi + 1, size=len(pairs)))
    clo, chi = shape.costs
    costs = tuple(
        tuple(int(c) for c in rng.integers(clo, chi + 1, size=len(pairs)))
        for _ in range(shape.scenarios)
    )
    n = sum(shape.widths) + 2
    tails = tuple(t for t, _ in pairs)
    heads = tuple(h for _, h in pairs)
    flow_value = (max_flow(n, tails, heads, caps) + 1) // 2
    return Arrays(n, tails, heads, caps, costs, flow_value)


def to_text(inst: Arrays) -> str:
    lines = [f"p rmcif {inst.vertex_count} {len(inst.tails)} {len(inst.costs)} {inst.flow_value}"]
    lines += [f"a {t} {h} {c}" for t, h, c in zip(inst.tails, inst.heads, inst.caps)]
    lines += [f"s {k} " + " ".join(map(str, row)) for k, row in enumerate(inst.costs, 1)]
    return "\n".join(lines) + "\n"
