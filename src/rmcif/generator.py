"""Seeded random generator for layered benchmark instances.

Vertices sit in ordered layers between a source and a sink.  The source
feeds every first-layer vertex and every last-layer vertex feeds the sink;
between adjacent layers each candidate arc survives with the configured
density, after which a repair pass gives every stranded vertex one
incoming or outgoing arc so the whole network lies on source-sink paths.
Capacities and the scenario cost rows are then drawn uniformly, in one
fixed order, so an instance is a pure function of its spec.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .core import (
    Instance,
    InvalidParameter,
    Network,
    RmcifError,
    check_integer,
    check_sequence,
)
from .flow_ops import max_flow_value
from .heuristics import make_rng


class GenerationError(RmcifError):
    """No feasible instance emerged within the retry budget."""


# The largest bound numpy's int64 draw takes: `integers(lo, hi + 1)` needs hi + 1 <= 2**63.
_DRAW_MAX = 2**63 - 1


@dataclass(frozen=True)
class GeneratorSpec:
    """Description of one layered instance family member.

    `flow_value`, when set, is the required value F and the draw is
    retried until the realized max-flow supports it; otherwise F is the
    max-flow scaled by `flow_fraction`, rounded half-up.
    """

    layer_widths: tuple[int, ...]
    scenario_count: int
    capacity_range: tuple[int, int] = (0, 99)
    cost_range: tuple[int, int] = (0, 99)
    density: float = 1.0
    flow_value: int | None = None
    flow_fraction: float = 0.5
    seed: int = 0
    max_retries: int = 20

    def __post_init__(self):
        widths = check_sequence(self.layer_widths, "layer widths")
        if not widths:
            raise InvalidParameter("no layer widths given")
        judged = {
            "layer_widths": tuple(check_integer(w, "layer widths", 1) for w in widths),
            "scenario_count": check_integer(self.scenario_count, "scenario count", 1),
            "max_retries": check_integer(self.max_retries, "retry budget", 1),
            "seed": check_integer(self.seed, "seed"),
        }
        if self.flow_value is not None:
            judged["flow_value"] = check_integer(self.flow_value, "flow value")
        for name in ("capacity_range", "cost_range"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                raise InvalidParameter(f"{name} must be a pair of integers") from None
            lo = check_integer(lo, f"{name} lower end", 0, _DRAW_MAX)
            judged[name] = (lo, check_integer(hi, f"{name} upper end", lo, _DRAW_MAX))
        if not isinstance(self.density, Real) or not 0 < self.density <= 1:
            raise InvalidParameter(f"density must lie in (0, 1], got {self.density!r}")
        if not isinstance(self.flow_fraction, Real) or not 0 <= self.flow_fraction <= 1:
            raise InvalidParameter(f"flow fraction must lie in [0, 1], got {self.flow_fraction!r}")
        for name, value in judged.items():
            object.__setattr__(self, name, value)  # frozen: as the generated __init__ does


def _layer_vertices(widths: tuple[int, ...]) -> list[list[int]]:
    """Vertex numbers per layer: [source], the widths, [sink]."""
    layers = [[1]]
    next_vertex = 2
    for width in widths:
        layers.append(list(range(next_vertex, next_vertex + width)))
        next_vertex += width
    layers.append([next_vertex])
    return layers


def _draw_arcs(layers: list[list[int]], density: float, rng) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    for v in layers[1]:
        pairs.append((1, v))
    for left, right in zip(layers[1:-2], layers[2:-1]):
        for u in left:
            for v in right:
                if rng.random() < density:
                    pairs.append((u, v))
    sink = layers[-1][0]
    for u in layers[-2]:
        pairs.append((u, sink))
    # Repair: every middle-layer vertex needs an entry and an exit.
    has_in = {h for _, h in pairs}
    for left, right in zip(layers[1:-2], layers[2:-1]):
        for v in right:
            if v not in has_in:
                u = left[int(rng.integers(0, len(left)))]
                pairs.append((u, v))
                has_in.add(v)
    has_out = {t for t, _ in pairs}
    for left, right in zip(layers[1:-2], layers[2:-1]):
        for u in left:
            if u not in has_out:
                v = right[int(rng.integers(0, len(right)))]
                pairs.append((u, v))
                has_out.add(u)
    return pairs


def generate(spec: GeneratorSpec) -> Instance:
    """One instance, fully determined by the spec (seed included)."""
    layers = _layer_vertices(spec.layer_widths)
    vertex_count = layers[-1][0]
    rng = make_rng(spec.seed)
    cap_lo, cap_hi = spec.capacity_range
    cost_lo, cost_hi = spec.cost_range
    for _ in range(spec.max_retries):
        pairs = _draw_arcs(layers, spec.density, rng)
        tails, heads = zip(*pairs)
        capacities = tuple(int(rng.integers(cap_lo, cap_hi + 1)) for _ in pairs)
        rows = tuple(
            tuple(int(rng.integers(cost_lo, cost_hi + 1)) for _ in pairs)
            for _ in range(spec.scenario_count)
        )
        network = Network(vertex_count, tails, heads, capacities)
        capacity = max_flow_value(network)
        if spec.flow_value is not None:
            if spec.flow_value > capacity:
                continue
            flow_value = spec.flow_value
        else:
            flow_value = math.floor(spec.flow_fraction * capacity + 0.5)
        return Instance(network, rows, flow_value)
    raise GenerationError(
        f"no draw reached flow value {spec.flow_value} within"
        f" {spec.max_retries} attempts (seed {spec.seed})"
    )
