"""Layered instance generator: shapes, invariants, determinism."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcif import GenerationError, GeneratorSpec, generate, max_flow_value, write_instance


def layer_of(widths, vertex):
    """0 for the source, 1..k for the middle layers, k+1 for the sink."""
    if vertex == 1:
        return 0
    bound = 2
    for depth, width in enumerate(widths, start=1):
        bound += width
        if vertex < bound:
            return depth
    return len(widths) + 1


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"layer_widths": ()}, "layer widths"),
            ({"layer_widths": (2, 0)}, "layer widths"),
            ({"scenario_count": 0}, "scenario count"),
            ({"capacity_range": (5, 2)}, "capacity_range"),
            ({"capacity_range": (-1, 2)}, "capacity_range"),
            ({"cost_range": (3, 1)}, "cost_range"),
            ({"density": 0.0}, "density"),
            ({"density": 1.5}, "density"),
            ({"flow_value": -1}, "flow value"),
            ({"flow_fraction": 1.2}, "flow fraction"),
            ({"max_retries": 0}, "retry budget"),
            ({"seed": -1}, "seed"),
            ({"capacity_range": (0, 2**63)}, "capacity_range"),
            ({"cost_range": (10**20, 10**20)}, "cost_range"),
        ],
    )
    def test_rejects(self, kwargs, fragment):
        base = dict(layer_widths=(2, 2), scenario_count=2)
        base.update(kwargs)
        with pytest.raises(ValueError, match=fragment):
            GeneratorSpec(**base)

    def test_numpy_integers_stored_as_ints(self):
        plain = GeneratorSpec((2, 3), 2, capacity_range=(1, 5), seed=4)
        spec = GeneratorSpec(
            [np.int64(2), 3], np.int64(2), capacity_range=(np.int8(1), 5), seed=np.uint16(4)
        )
        assert spec == plain
        assert type(spec.seed) is int and type(spec.layer_widths[0]) is int
        assert write_instance(generate(spec)) == write_instance(generate(plain))


class TestShapes:
    def test_full_density_counts(self):
        spec = GeneratorSpec(layer_widths=(3, 4), scenario_count=2, density=1.0)
        instance = generate(spec)
        assert instance.network.vertex_count == 2 + 3 + 4
        assert instance.network.arc_count == 3 + 3 * 4 + 4
        assert instance.scenarios.scenario_count == 2

    def test_single_layer(self):
        instance = generate(GeneratorSpec(layer_widths=(5,), scenario_count=1))
        assert instance.network.vertex_count == 7
        assert instance.network.arc_count == 10

    def test_source_and_sink_fully_wired(self):
        spec = GeneratorSpec(layer_widths=(3, 3), scenario_count=1, density=0.3, seed=5)
        net = generate(spec).network
        from_source = {h for t, h in zip(net.tails, net.heads) if t == 1}
        to_sink = {t for t, h in zip(net.tails, net.heads) if h == net.vertex_count}
        assert from_source == {2, 3, 4}
        assert to_sink == {5, 6, 7}


class TestDeterminism:
    def test_same_spec_same_instance(self):
        spec = GeneratorSpec(layer_widths=(3, 2), scenario_count=3, density=0.6, seed=9)
        assert generate(spec) == generate(spec)

    def test_seed_changes_the_draw(self):
        a = generate(GeneratorSpec(layer_widths=(3, 3), scenario_count=2, seed=0))
        b = generate(GeneratorSpec(layer_widths=(3, 3), scenario_count=2, seed=1))
        assert a != b


class TestFlowValuePolicy:
    def test_explicit_value_kept(self):
        spec = GeneratorSpec(
            layer_widths=(2, 2), scenario_count=1, capacity_range=(2, 4), flow_value=2
        )
        assert generate(spec).flow_value == 2

    def test_unreachable_value_raises(self):
        spec = GeneratorSpec(
            layer_widths=(2, 2),
            scenario_count=1,
            capacity_range=(0, 2),
            flow_value=1_000,
            max_retries=3,
        )
        with pytest.raises(GenerationError, match="3 attempts"):
            generate(spec)

    def test_fraction_one_is_max_flow(self):
        spec = GeneratorSpec(layer_widths=(2, 2), scenario_count=1, flow_fraction=1.0)
        instance = generate(spec)
        assert instance.flow_value == max_flow_value(instance.network)

    def test_fraction_zero_is_empty_flow(self):
        spec = GeneratorSpec(layer_widths=(2, 2), scenario_count=1, flow_fraction=0.0)
        assert generate(spec).flow_value == 0

    def test_fraction_rounds_half_up(self):
        spec = GeneratorSpec(layer_widths=(2, 2), scenario_count=1, flow_fraction=0.5)
        instance = generate(spec)
        maxflow = max_flow_value(instance.network)
        assert instance.flow_value == (maxflow + 1) // 2


@given(st.integers(0, 3_000))
@settings(max_examples=120)
def test_structural_invariants(seed):
    spec = GeneratorSpec(
        layer_widths=(3, 2, 3),
        scenario_count=3,
        capacity_range=(0, 9),
        cost_range=(2, 7),
        density=0.4,
        seed=seed,
    )
    instance = generate(spec)
    net = instance.network
    widths = spec.layer_widths
    for tail, head, capacity in zip(net.tails, net.heads, net.capacities):
        assert layer_of(widths, head) == layer_of(widths, tail) + 1
        assert 0 <= capacity <= 9
    for vertex in range(2, net.vertex_count):
        entries = [i for i, forward, _ in net.residual_adjacency[vertex] if not forward]
        assert entries, f"vertex {vertex} has no entry"
        assert net.out_arcs[vertex], f"vertex {vertex} has no exit"
    for row in instance.scenarios.costs:
        assert all(2 <= c <= 7 for c in row)
    assert 0 <= instance.flow_value <= max_flow_value(net)
