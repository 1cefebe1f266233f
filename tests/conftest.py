"""Shared fixtures: tiny hand-built networks and seeded instance streams."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import oracles

from rmcif import (
    GenerationError,
    GeneratorSpec,
    Instance,
    Network,
    generate,
    make_rng,
    parse_instance,
)

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# Two arc-disjoint paths of capacity 1; scenario 1 favors the upper path,
# scenario 2 the lower.  Every solver question about it can be answered by
# looking at its three feasible flows.
DIAMOND_TEXT = """p rmcif 4 4 2 1
a 1 2 1
a 1 3 1
a 2 4 1
a 3 4 1
s 1 1 2 1 2
s 2 2 1 2 1
"""


def network_of(vertex_count: int, triples) -> Network:
    """A `Network` from ``(tail, head, capacity)`` triples in declaration order."""
    tails, heads, capacities = tuple(zip(*triples)) or ((), (), ())
    return Network(vertex_count, tails, heads, capacities)


@pytest.fixture
def diamond() -> Instance:
    return parse_instance(DIAMOND_TEXT)


@pytest.fixture
def four_path() -> Network:
    """Four vertex-disjoint unit-capacity paths from source 1 to sink 6."""
    arcs = []
    for middle in (2, 3, 4, 5):
        arcs.append((1, middle, 1))
    for middle in (2, 3, 4, 5):
        arcs.append((middle, 6, 1))
    return network_of(6, arcs)


def chain_instance(
    vertices: int, capacity: int, flow_value: int, cost_rows=None
) -> Instance:
    """Single path 1 -> 2 -> ... -> n; the unique route for any flow."""
    arcs = [(v, v + 1, capacity) for v in range(1, vertices)]
    if cost_rows is None:
        cost_rows = ((1,) * len(arcs),)
    return Instance(network_of(vertices, arcs), cost_rows, flow_value)


def gen(seed: int, widths=(2, 2), scenarios=2, caps=(1, 3), costs=(0, 9),
        density=1.0, flow_value=None, flow_fraction=0.5) -> Instance:
    return generate(
        GeneratorSpec(
            layer_widths=tuple(widths),
            scenario_count=scenarios,
            capacity_range=caps,
            cost_range=costs,
            density=density,
            flow_value=flow_value,
            flow_fraction=flow_fraction,
            seed=seed,
        )
    )


def seeded_instances(count: int, start_seed: int = 0, **kwargs):
    """Yield (seed, instance) pairs, skipping seeds the generator rejects."""
    produced = 0
    seed = start_seed
    while produced < count:
        try:
            instance = gen(seed, **kwargs)
        except GenerationError:
            seed += 1
            continue
        yield seed, instance
        produced += 1
        seed += 1


@st.composite
def cyclic_networks(draw):
    """Up to 7 vertices, arcs in both directions, capacities 0..4."""
    n = draw(st.integers(2, 7))
    pairs = [(t, h) for t in range(1, n + 1) for h in range(1, n + 1) if t != h]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=18))
    caps = draw(st.lists(st.integers(0, 4), min_size=len(chosen), max_size=len(chosen)))
    return network_of(n, [(t, h, c) for (t, h), c in zip(chosen, caps)])


@st.composite
def routed_networks(draw):
    """A `cyclic_networks` network with a positive maximum flow value.

    A random simple source-to-sink walk is added to it, its arcs created or
    widened to capacity 1..4.
    """
    network = draw(cyclic_networks())
    n = network.vertex_count
    inner = draw(st.permutations(range(2, n)))
    walk = [network.source, *inner[: draw(st.integers(0, n - 2))], network.sink]
    arcs = zip(network.tails, network.heads, network.capacities)
    caps = {(t, h): c for t, h, c in arcs}
    for pair in zip(walk, walk[1:]):
        caps[pair] = max(caps.get(pair, 0), draw(st.integers(1, 4)))
    return network_of(n, [(t, h, c) for (t, h), c in caps.items()])


@st.composite
def cyclic_instances(draw):
    """A `routed_networks` network, 1..3 scenarios of costs 0..9, and F
    drawn as the maximum flow value, a random positive value or 0."""
    network = draw(routed_networks())
    k = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, 9)] * network.arc_count)
    rows = draw(st.lists(row, min_size=k, max_size=k))
    top = oracles.max_flow(network)
    value = draw(st.sampled_from((top, draw(st.integers(1, top)), 0)))
    return Instance(network, rows, value)


def scrambled_flow(network, value, seed, steps=3):
    """A value-`value` flow moved around random residual cycles."""
    rng = make_rng(seed)
    values = oracles.augment_to_value(network, [0] * network.arc_count, value)
    for _ in range(steps):
        values = oracles.perturb_values(network, values, rng)
    return values


def unit_flow(network, path) -> tuple[int, ...]:
    """The value-1 flow of a unit path given as arc indices."""
    values = [0] * network.arc_count
    for i in path:
        values[i] = 1
    return tuple(values)


def unit_vertices(network, path) -> tuple[int, ...]:
    """The vertices a unit path given as arc indices walks, source first."""
    return (network.source,) + tuple(network.heads[i] for i in path)
