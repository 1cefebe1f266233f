"""The flat-list path, augmentation and cycle walks against reference ones.

`oracles` keeps plain implementations that extract one unit path per
search, rebuild the residual network for every augmenting path and search
cycles over per-arc move records.  On random layered instances and on
random cyclic networks with zero-capacity arcs and a source-to-sink route
(`routed_networks`, so flows are seldom zero), every kernel here must give
the same output, raise the matching error, and leave a shared random
stream in the same state.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    cyclic_networks,
    gen,
    network_of,
    routed_networks,
    scrambled_flow,
    unit_flow,
    unit_vertices,
)
from rmcif import (
    Network,
    TargetUnreachable,
    center,
    compose,
    decompose,
    find_flow,
    flow_value_of,
    harmonize,
    max_flow_value,
    min_cost_flow,
    parse_instance,
    perturb,
    round_flow,
)
from rmcif.flow_ops import (
    _augment_to_value,
    _push_paths,
    _support_path,
    dfs_cycle,
    fewest_arc_path,
)
from rmcif.heuristics import make_rng

seeds = st.integers(0, 2_000)


@st.composite
def networks(draw):
    if draw(st.booleans()):
        return draw(routed_networks())
    seed = draw(seeds)
    return gen(seed, widths=(3, 3), caps=(0, 4), density=0.8).network


@st.composite
def flows(draw, count=1):
    """A network and `count` scrambled flows of one common random value."""
    network = draw(networks())
    value = draw(st.integers(0, oracles.max_flow(network)))
    seed = draw(seeds)
    return network, [scrambled_flow(network, value, seed + k) for k in range(count)]


def next_draw(rng):
    return int(rng.integers(0, 2**62))


def outcome(fn, *args):
    """`fn(*args)`, or the name of the error family it raised."""
    try:
        return fn(*args)
    except (TargetUnreachable, oracles.OracleUnreachable):
        return "unreachable"


def endpoints(network, i, forward):
    tail, head = network.tails[i], network.heads[i]
    return (tail, head) if forward else (head, tail)


def unit_pairs(network, values):
    """`decompose` as the oracle's ``(values, vertices)`` pairs."""
    return [
        (unit_flow(network, path), unit_vertices(network, path))
        for path in decompose(network, values)
    ]


def oracle_units(network, paths):
    """Unit paths as the value-1 flows `oracles.compose_units` reads."""
    return [unit_flow(network, path) for path in paths]


CYC = Path(__file__).parent / "data" / "cyc.rmcif"


def arc_values(network, top):
    """A strategy for one value in ``[0, top(capacity)]`` per arc."""
    return st.tuples(*[st.integers(0, top(c)) for c in network.capacities])


class TestPathSearches:
    """Both fewest-arc searches against the oracle's plain breadth-first search,
    which tests for the sink only when it reaches the sink itself."""

    @given(routed_networks(), st.data())
    @settings(max_examples=80)
    def test_fewest_arc_path_on_random_values(self, network, data):
        values = data.draw(arc_values(network, lambda c: c))
        assert fewest_arc_path(network, values) == oracles.fewest_arc_path(network, values)

    @given(flows())
    @settings(max_examples=40)
    def test_fewest_arc_path_on_scrambled_flows(self, case):
        network, (values,) = case
        assert fewest_arc_path(network, values) == oracles.fewest_arc_path(network, values)

    @given(routed_networks(), st.data())
    @settings(max_examples=80)
    def test_support_path_on_random_remaining(self, network, data):
        remaining = data.draw(arc_values(network, lambda c: 3))
        assert _support_path(network, remaining) == oracles.support_path(network, remaining)

    @pytest.mark.parametrize("values, want", [
        ((0, 0, 0), [(2, True, 3)]),
        ((0, 0, 3), [(0, True, 1), (1, True, 1)]),
        ((1, 1, 3), None),
    ])
    def test_direct_source_to_sink_arc(self, values, want):
        # The direct arc is declared last: the source is tested before any
        # other vertex is reached, as the plain search reaches the sink
        # from the source before it expands vertex 2.
        net = network_of(3, [(1, 2, 1), (2, 3, 1), (1, 3, 3)])
        remaining = [c - x for c, x in zip(net.capacities, values)]
        assert fewest_arc_path(net, values) == oracles.fewest_arc_path(net, values) == want
        assert _support_path(net, remaining) == oracles.support_path(net, remaining) == want

    @pytest.mark.parametrize("triples, values, want", [
        # sink -> 2 declared before 2 -> sink: its backward move comes first
        ([(1, 2, 2), (3, 2, 1), (2, 3, 2)], (0, 1, 1), [(0, True, 2), (1, False, 1)]),
        ([(1, 2, 2), (3, 2, 1), (2, 3, 2)], (0, 0, 1), [(0, True, 2), (2, True, 1)]),
        # 2 -> sink declared first: its forward move comes first
        ([(1, 2, 2), (2, 3, 2), (3, 2, 1)], (0, 1, 1), [(0, True, 2), (1, True, 1)]),
        ([(1, 2, 2), (2, 3, 2), (3, 2, 1)], (0, 2, 1), [(0, True, 2), (2, False, 1)]),
    ])
    def test_vertex_with_moves_both_ways_to_the_sink(self, triples, values, want):
        net = network_of(3, triples)
        assert fewest_arc_path(net, values) == oracles.fewest_arc_path(net, values) == want

    def test_first_reached_vertex_has_a_dry_sink_arc(self):
        # Vertex 2 is reached first, but its arc into the sink is full.
        net = network_of(4, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)])
        values, remaining = (0, 0, 1, 0), (1, 1, 0, 1)
        want = [(1, True, 1), (3, True, 1)]
        assert fewest_arc_path(net, values) == oracles.fewest_arc_path(net, values) == want
        assert _support_path(net, remaining) == oracles.support_path(net, remaining) == want

    def test_cyclic_reproducer(self):
        # Its source has both an arc into the sink and one out of it.
        network = parse_instance(CYC.read_text()).network
        top = oracles.max_flow(network)
        for value in range(top + 1):
            for seed in range(5):
                values = scrambled_flow(network, value, seed)
                assert fewest_arc_path(network, values) == oracles.fewest_arc_path(network, values)
                assert _support_path(network, values) == oracles.support_path(network, values)
        # the source's backward move into the sink has room, its forward one none
        values = [0] * network.arc_count
        values[2], values[11] = 1, network.capacities[11]
        assert fewest_arc_path(network, values) == oracles.fewest_arc_path(network, values) == [(2, False, 1)]


class TestDecompose:
    @given(flows())
    @settings(max_examples=60)
    def test_same_unit_paths_in_the_same_order(self, case):
        # Every conserving flow decomposes; a circulation is left out alike.
        network, (values,) = case
        assert unit_pairs(network, values) == oracles.unit_paths(network, values)

    @given(routed_networks(), seeds, st.data())
    @settings(max_examples=60)
    def test_forward_peel_matches_one_unit_extraction(self, network, seed, data):
        # Each peeled path, taken `copies` times, is what one-unit-at-a-time extraction gives.
        values = scrambled_flow(network, data.draw(st.integers(0, oracles.max_flow(network))), seed)
        remaining = list(values)
        got = []
        total = flow_value_of(network, values)
        for path, copies in _push_paths(remaining, partial(_support_path, network), total, -1):
            assert all(forward for _, forward, _ in path)
            arcs = [i for i, _, _ in path]
            got += [(unit_flow(network, arcs), unit_vertices(network, arcs))] * copies
        assert got == oracles.unit_paths(network, values)

    @given(routed_networks(), st.data())
    @settings(max_examples=60)
    def test_support_path_is_the_fewest_arc_path_without_backward_room(self, network, data):
        remaining = data.draw(st.lists(
            st.integers(0, 3), min_size=network.arc_count, max_size=network.arc_count
        ))
        # `remaining` as capacities at the zero flow: no backward move has room.
        support = Network(network.vertex_count, network.tails, network.heads, tuple(remaining))
        zeros = [0] * network.arc_count
        assert _support_path(network, remaining) == fewest_arc_path(support, zeros)

    def test_circulation_on_the_path_is_rejected_alike(self):
        # The circulation 2 -> 3 -> 2 is left out by both: two copies of 1 -> 2 -> 4.
        net = network_of(4, [(1, 2, 2), (2, 3, 1), (3, 2, 1), (2, 4, 2)])
        values = (2, 1, 1, 2)
        want = [((1, 0, 0, 1), (1, 2, 4))] * 2
        assert unit_pairs(net, values) == oracles.unit_paths(net, values) == want


class TestAugmentation:
    @given(networks())
    @settings(max_examples=60)
    def test_max_flow_value(self, network):
        assert max_flow_value(network) == oracles.max_flow(network)

    @given(networks(), st.integers(0, 3))
    @settings(max_examples=60)
    def test_find_flow_every_value_and_one_past(self, network, extra):
        value = oracles.max_flow(network) + extra - 2
        if value < 0:
            return
        got = outcome(lambda: find_flow(network, value))
        want = outcome(oracles.augment_to_value, network, [0] * network.arc_count, value)
        assert got == want


    @given(flows(), st.integers(0, 3))
    @settings(max_examples=60)
    def test_raising_a_scrambled_flow(self, case, extra):
        network, (values,) = case
        target = flow_value_of(network, values) + extra
        got = outcome(_augment_to_value, network, values, target, partial(fewest_arc_path, network))
        assert got == outcome(oracles.augment_to_value, network, values, target)


class TestRoundFlow:
    @given(flows(count=3), st.integers(2, 3))
    @settings(max_examples=60)
    def test_rounded_center(self, case, count):
        network, values = case
        totals, k = center(network, values[:count])
        assert k == count
        got = outcome(lambda: round_flow(network, totals, k))
        mean = [Fraction(t, k) for t in totals]
        assert got == outcome(oracles.round_to_integer, network, mean)

    @given(networks(), st.data())
    @settings(max_examples=60)
    def test_arbitrary_half_integral_vectors(self, network, data):
        doubled = [data.draw(st.integers(0, 2 * c)) for c in network.capacities]
        got = outcome(lambda: round_flow(network, doubled, 2))
        halves = [Fraction(d, 2) for d in doubled]
        assert got == outcome(oracles.round_to_integer, network, halves)


class TestCompose:
    @given(flows(count=2), seeds)
    @settings(max_examples=60)
    def test_same_flow_and_random_stream(self, case, seed):
        network, (a, b) = case
        first = decompose(network, a)
        second = decompose(network, b)
        if not first:
            return
        rng, ref = make_rng(seed), make_rng(seed)
        got = outcome(lambda: compose(network, first, second, rng))
        want = outcome(
            oracles.compose_units, network, oracle_units(network, first),
            oracle_units(network, second), ref,
        )
        assert got == want
        assert next_draw(rng) == next_draw(ref)


def test_compose_keeps_the_per_pick_distribution():
    """One order per list and call picks like a fresh order per pick.

    On a tiny network whose arc 2 -> 4 carries one unit, both lists hold
    the path 1 -> 2 -> 4 -> 5, so a second pick of it never fits.  Over
    4,000 seeds each, every output flow's frequency under `compose` must
    match the per-pick scheme's within 0.05, above four standard errors of
    the difference.
    """
    network = network_of(5, [
        (1, 2, 2), (1, 3, 2), (2, 4, 1), (3, 4, 2),
        (4, 5, 3), (2, 5, 1), (3, 5, 1),
    ])
    via_2_4, via_3_4, via_2, via_3 = (0, 2, 4), (1, 3, 4), (0, 5), (1, 6)
    first = [via_2_4, via_2, via_3_4]
    second = [via_3_4, via_3, via_2_4]
    seeds = range(4_000)
    got = Counter(compose(network, first, second, make_rng(seed)) for seed in seeds)
    want = Counter(
        oracles.compose_units_per_pick(
            network, oracle_units(network, first), oracle_units(network, second), make_rng(seed)
        )
        for seed in seeds
    )
    assert set(got) == set(want) and len(got) > 2
    for flow in want:
        assert abs(got[flow] - want[flow]) <= 0.05 * len(seeds)


@st.composite
def cost_rows(draw, network):
    """1..3 cost rows for `network`, about half their costs 0, so zero-cost
    cycles and ties between equally cheap paths are common."""
    row = st.tuples(*[st.sampled_from((0, 0, 0, 1, 2, 9))] * network.arc_count)
    return draw(st.lists(row, min_size=1, max_size=3))


class TestMinCostFlowWitness:
    """`min_cost_flow` returns the same flow, not only the same cost, as the
    settled-array search it replaced, at every value up to the maximum and
    one past it.  The witness sets every solver's trajectory."""

    @staticmethod
    def check(network, rows):
        top = oracles.max_flow(network)
        for costs in rows:
            for value in range(top + 2):
                assert outcome(min_cost_flow, network, costs, value) == outcome(
                    oracles.min_cost_flow_settled, network, costs, value
                )

    @given(st.one_of(cyclic_networks(), routed_networks()), st.data())
    @settings(max_examples=80)
    def test_cyclic_networks(self, network, data):
        # zero-capacity arcs, vertices no search reaches and, in
        # `cyclic_networks`, a sink the source may not reach at all
        self.check(network, data.draw(cost_rows(network)))

    @given(seeds, st.data())
    @settings(max_examples=20)
    def test_layered_networks(self, seed, data):
        network = gen(seed, widths=(3, 3), caps=(0, 3), density=0.8).network
        self.check(network, data.draw(cost_rows(network)))

    def test_zero_cost_cycle_beside_a_dry_shortcut(self):
        # a zero-cost cycle 2 -> 3 -> 2 on the cheapest route, a
        # zero-capacity shortcut 1 -> 4, a dearer route 2 -> 4, and a
        # vertex 5 no search reaches, with a free arc into the route
        network = network_of(6, [
            (1, 2, 3), (2, 3, 2), (3, 2, 2), (3, 4, 2), (2, 4, 3), (1, 4, 0), (4, 6, 3), (5, 4, 2),
        ])
        self.check(network, [(1, 0, 0, 1, 5, 0, 0, 0), (1, 0, 0, 9, 1, 0, 0, 0), (0,) * 8])


class TestCycleWalks:
    @given(flows(), seeds)
    @settings(max_examples=60)
    def test_dfs_cycle_returns_the_same_moves(self, case, seed):
        network, (values,) = case
        rng, ref = make_rng(seed), make_rng(seed)
        cyc = dfs_cycle(network, values, rng)
        want = oracles.random_cycle(
            network.vertex_count, oracles.residual_moves(network, values), ref
        )
        if want is None:
            assert cyc is None
        else:
            moves = tuple((*endpoints(network, i, forward), room, i, forward)
                          for i, forward, room in cyc)
            assert moves == want
            assert min(room for _, _, room in cyc) == min(m[2] for m in want)
        assert next_draw(rng) == next_draw(ref)

    @given(flows(), seeds)
    @settings(max_examples=60)
    def test_perturb(self, case, seed):
        network, (values,) = case
        rng, ref = make_rng(seed), make_rng(seed)
        moved = perturb(network, values, rng)
        want = oracles.perturb_values(network, values, ref)
        assert moved == want
        if want == values:
            assert moved is values
        assert next_draw(rng) == next_draw(ref)

    @given(flows(count=2), seeds)
    @settings(max_examples=60)
    def test_harmonize(self, case, seed):
        network, (a, b) = case
        rng, ref = make_rng(seed), make_rng(seed)
        pulled = harmonize(network, a, b, rng)
        assert pulled == oracles.harmonize_values(network, a, b, ref)
        assert next_draw(rng) == next_draw(ref)


@pytest.mark.parametrize("seed", [0, 1])
def test_larger_layered_instances(seed):
    """Multiplicities above one on 6x6x6: whole-bottleneck peeling must agree."""
    instance = gen(seed, widths=(6, 6, 6), scenarios=2, caps=(1, 20))
    network = instance.network
    a = scrambled_flow(network, instance.flow_value, seed, steps=5)
    b = scrambled_flow(network, instance.flow_value, seed + 9, steps=5)
    assert unit_pairs(network, a) == oracles.unit_paths(network, a)
    totals, count = center(network, [a, b])
    mean = [Fraction(t, count) for t in totals]
    assert round_flow(network, totals, count) == oracles.round_to_integer(network, mean)
    rng, ref = make_rng(seed), make_rng(seed)
    first, second = decompose(network, a), decompose(network, b)
    assert compose(network, first, second, rng) == oracles.compose_units(
        network, oracle_units(network, first), oracle_units(network, second), ref
    )
    assert next_draw(rng) == next_draw(ref)
