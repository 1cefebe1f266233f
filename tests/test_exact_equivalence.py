"""The reduced-cost enumerator against the prefix-cost one it replaced.

`oracles.prefix_cost_optimum` keeps the enumerator that pruned on the cost
of the fixed arcs alone, with one walk for DAGs and one for other
networks.  On generator DAGs, with their arcs declared in generator or in
shuffled order, and on random cyclic networks, all with zero-capacity
arcs, `enumerate_optimum` must return the same cost and witness, explore
no more arc assignments, give up under the same node budgets, and match
the optimum of a scan over every feasible flow.
"""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cyclic_networks, gen, network_of
from rmcif import (
    ABSOLUTE,
    DEVIATION,
    BudgetExceeded,
    GenerationError,
    Instance,
    ScenarioSet,
    enumerate_optimum,
)
from rmcif import exact
from rmcif.exact import _sink_distances

# The oracle gives up beyond this many nodes; the flow scan runs only on
# networks with at most this many capacity-bounded assignments.
ORACLE_BUDGET = 30_000
SCAN_LIMIT = 20_000


@st.composite
def generator_instances(draw):
    widths = draw(st.sampled_from([(2, 2), (3, 3)]))
    try:
        return gen(
            draw(st.integers(0, 5_000)),
            widths=widths,
            scenarios=draw(st.integers(1, 4)),
            caps=(0, 5),
            density=draw(st.sampled_from([0.6, 0.8, 1.0])),
        )
    except GenerationError:
        return gen(0, widths=widths, caps=(0, 5))


@st.composite
def cyclic_instances(draw):
    network = draw(cyclic_networks())
    top = oracles.max_flow(network)
    value = draw(st.integers(min(1, top), top))
    k = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 9), min_size=network.arc_count, max_size=network.arc_count),
            min_size=k,
            max_size=k,
        )
    )
    return Instance(network, ScenarioSet(tuple(map(tuple, rows))), value)


def redeclared(instance: Instance, order) -> Instance:
    """The same instance with its arcs, and cost columns, declared in `order`."""
    network = instance.network
    arcs = list(zip(network.tails, network.heads, network.capacities))
    rows = tuple(tuple(row[i] for i in order) for row in instance.scenarios.costs)
    redeclared_network = network_of(network.vertex_count, [arcs[i] for i in order])
    return Instance(redeclared_network, ScenarioSet(rows), instance.flow_value)


@st.composite
def shuffled_generator_instances(draw):
    """A generator DAG whose arcs are declared in a random order."""
    instance = draw(generator_instances())
    return redeclared(instance, draw(st.permutations(range(instance.network.arc_count))))


instances = st.one_of(
    generator_instances(), shuffled_generator_instances(), cyclic_instances()
)


def seeded_cyclic_instance(seed: int) -> Instance | None:
    """A random network of 3-7 vertices with arcs both ways, or None if F would be 0."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    pairs = [(t, h) for t in range(1, n + 1) for h in range(1, n + 1) if t != h]
    chosen = rng.sample(pairs, rng.randint(2, min(14, len(pairs))))
    network = network_of(n, [(t, h, rng.randint(0, 4)) for t, h in chosen])
    top = oracles.max_flow(network)
    if top == 0:
        return None
    rows = tuple(
        tuple(rng.randint(0, 9) for _ in chosen) for _ in range(rng.randint(2, 4))
    )
    return Instance(network, ScenarioSet(rows), rng.randint(1, top))


def counted(instance, variant, node_budget):
    """``(cost, witness values, explored)``, with the count `exact._walk` returns."""
    explored = 0
    walk = exact._walk

    def counting(*args):
        nonlocal explored
        cost, values, explored = walk(*args)
        return cost, values, explored

    exact._walk = counting
    try:
        cost, witness = enumerate_optimum(instance, variant, node_budget)
    finally:
        exact._walk = walk
    return cost, witness, explored


def scannable(instance) -> bool:
    return math.prod(c + 1 for c in instance.network.capacities) <= SCAN_LIMIT


def check_against_oracle(instance, variant) -> int:
    """Assert agreement with the prefix-cost enumerator; the oracle's node count."""
    try:
        expected = oracles.prefix_cost_optimum(instance, variant, ORACLE_BUDGET)
    except oracles.OracleBudget:
        # The oracle gave up; the enumerator may finish, but only correctly.
        try:
            cost, _, _ = counted(instance, variant, ORACLE_BUDGET)
        except BudgetExceeded:
            return ORACLE_BUDGET + 1
        if scannable(instance):
            assert cost == oracles.brute_robust_optimum(instance, variant)
        return ORACLE_BUDGET + 1
    cost, values, explored = counted(instance, variant, ORACLE_BUDGET)
    assert (cost, values) == expected[:2]
    assert explored <= expected[2]
    if scannable(instance):
        assert cost == oracles.brute_robust_optimum(instance, variant)
    if explored:
        # The search fits a budget of exactly its node count; one node
        # short of it, both enumerators give up.
        assert enumerate_optimum(instance, variant, explored) == (cost, values)
        with pytest.raises(BudgetExceeded) as err:
            enumerate_optimum(instance, variant, explored - 1)
        assert err.value.explored == explored
        with pytest.raises(oracles.OracleBudget):
            oracles.prefix_cost_optimum(instance, variant, explored - 1)
    return expected[2]


@given(instances, st.sampled_from([ABSOLUTE, DEVIATION]))
@settings(max_examples=150)
def test_same_optimum_in_fewer_nodes(instance, variant):
    check_against_oracle(instance, variant)


# Seeds per kind: few random cyclic instances need any search at all.
SWEEP = {"generator": 40, "shuffled": 40, "cyclic": 300}


@pytest.mark.parametrize("kind", sorted(SWEEP))
def test_seeded_sweep_searches(kind):
    # Most drawn instances are solved by their incumbent before any search;
    # a fixed sweep makes sure that enough of them branch.
    searched = 0
    for seed in range(SWEEP[kind]):
        if kind == "cyclic":
            instance = seeded_cyclic_instance(seed)
        else:
            try:
                instance = gen(seed, widths=(3, 3), scenarios=2 + seed % 3, caps=(0, 5),
                               density=0.8)
            except GenerationError:
                instance = None
            if kind == "shuffled" and instance is not None:
                order = random.Random(seed).sample(range(instance.network.arc_count),
                                                   instance.network.arc_count)
                instance = redeclared(instance, order)
        if instance is None:
            continue
        for variant in (ABSOLUTE, DEVIATION):
            searched += check_against_oracle(instance, variant) > 0
    assert searched >= 20


def test_unreachable_vertex_keeps_reduced_costs_nonnegative():
    # Vertex 3 cannot reach the sink 5.  The zero-capacity arc 4 -> 2 still
    # counts: it makes vertex 4 two away from the sink, not seven.
    network = network_of(5, [(1, 2, 1), (2, 5, 1), (1, 3, 1), (4, 3, 2), (4, 5, 1),
                             (1, 4, 1), (4, 2, 0), (5, 3, 0)])
    for row in ((4, 1, 0, 3, 7, 2, 1, 5), (0, 0, 9, 0, 0, 0, 0, 0)):
        d = _sink_distances(network, row)
        assert d[network.sink] == 0
        assert d[3] == max(d[1], d[2], d[4], d[5])
        for tail, head, c in zip(network.tails, network.heads, row):
            assert c + d[head] - d[tail] >= 0
    assert _sink_distances(network, (4, 1, 0, 3, 7, 2, 1, 5))[1:] == [4, 1, 4, 2, 0]
