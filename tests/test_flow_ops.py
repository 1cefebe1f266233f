"""Flow constructors, displacement network, and cycle machinery."""
from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    cyclic_instances,
    gen,
    network_of,
    routed_networks,
    scrambled_flow,
    seeded_instances,
    unit_flow,
    unit_vertices,
)
from oracles import brute_min_cost, has_negative_cycle_floyd_warshall, min_cut_value, sum_flows
from rmcif import (
    CapacityViolation,
    ConservationViolation,
    Instance,
    ScenarioSet,
    TargetUnreachable,
    center,
    check_arc_values,
    compose,
    cost_reduce,
    decompose,
    find_flow,
    harmonize,
    max_flow_value,
    min_cost_flow,
    parse_instance,
    perturb,
    round_flow,
)
from rmcif.flow_ops import _push_room, dfs_cycle, fewest_arc_path, negative_cycle
from rmcif.heuristics import make_rng

UPPER = (1, 0, 1, 0)
LOWER = (0, 1, 0, 1)
FULL = (1, 1, 1, 1)

CYC = Path(__file__).parent / "data" / "cyc.rmcif"

small_seeds = st.integers(0, 2_000)


def feasible_value(network, flow):
    """Flow value after asserting capacities and conservation on a bare network."""
    balance = check_arc_values(network, flow)
    for v in range(1, network.vertex_count + 1):
        if v not in (network.source, network.sink):
            assert balance[v] == 0, f"vertex {v} unbalanced"
    return balance[network.source]


def residual_moves(network, values):
    """Every residual move of `values` as ``(tail, head, room, arc index, forward)``.

    Read off `Network.residual_adjacency`, keeping the moves with room, and
    put in residual order: arc declaration order, each arc's forward move
    before its backward one.
    """
    caps = network.capacities
    moves = [
        (t, h, caps[i] - values[i] if forward else values[i], i, forward)
        for t, adjacent in enumerate(network.residual_adjacency)
        for i, forward, h in adjacent
    ]
    return sorted((m for m in moves if m[2] > 0), key=lambda m: (m[3], not m[4]))


def endpoints(network, move):
    """``(tail, head)`` of an ``(arc index, forward, room)`` move."""
    tail, head = network.tails[move[0]], network.heads[move[0]]
    return (tail, head) if move[1] else (head, tail)


def cycle_cost(cycle, costs):
    """Cost change per unit pushed around a cycle of triples."""
    return sum(costs[i] if forward else -costs[i] for i, forward, _ in cycle)


def bottleneck(cycle):
    return min(room for _, _, room in cycle)


def random_feasible_flow(instance, seed):
    """A value-F flow scrambled away from the breadth-first one."""
    rng = make_rng(seed)
    flow = find_flow(instance.network, instance.flow_value)
    for _ in range(3):
        flow = perturb(instance.network, flow, rng)
    return flow


class TestResidualNetwork:
    def test_canonical_arc_order(self, diamond):
        seen = residual_moves(diamond.network, UPPER)
        assert seen == [
            (2, 1, 1, 0, False),
            (1, 3, 1, 1, True),
            (4, 2, 1, 2, False),
            (3, 4, 1, 3, True),
        ]

    def test_partially_used_arc_contributes_both_directions(self):
        net = network_of(2, [(1, 2, 3)])
        moves = residual_moves(net, (1,))
        assert [(forward, room) for _, _, room, _, forward in moves] == [(True, 2), (False, 1)]

    def test_out_lists_group_by_tail(self, diamond):
        adjacency = diamond.network.residual_adjacency
        assert adjacency[1] == ((0, True, 2), (1, True, 3))
        assert adjacency[4] == ((2, False, 2), (3, False, 3))
        moves = residual_moves(diamond.network, UPPER)
        assert [h for t, h, _, _, _ in moves if t == 1] == [3]
        assert [h for t, h, _, _, _ in moves if t == 4] == [2]

    def test_capacities(self, diamond):
        assert diamond.network.capacities == (1, 1, 1, 1)
        assert network_of(3, [(1, 2, 5), (2, 3, 0)]).capacities == (5, 0)

    def test_residual_cost_sign(self, diamond):
        costs = diamond.scenarios.costs[0]
        moves = {t: (i, forward, room) for t, _, room, i, forward in residual_moves(
            diamond.network, UPPER
        )}
        backward, forward = moves[2], moves[1]
        assert cycle_cost([backward], costs) == -costs[backward[0]]
        assert cycle_cost([forward], costs) == costs[forward[0]]
        for move in (backward, forward):
            moved = _push_room(UPPER, [move])
            moved_cost = oracles.scenario_cost(diamond, moved, 0)
            assert moved_cost - oracles.scenario_cost(diamond, UPPER, 0) == cycle_cost(
                [move], costs
            )

    def test_push_room_moves_flow(self, diamond):
        moves = [(i, forward, room) for _, _, room, i, forward in residual_moves(
            diamond.network, UPPER
        )]
        assert _push_room(UPPER, moves) == (0, 1, 0, 1)


class TestPathSearch:
    def test_bfs_finds_fewest_arcs(self):
        net = network_of(4, [(1, 2, 1), (2, 4, 1), (1, 4, 1)])
        path = fewest_arc_path(net, (0, 0, 0))
        assert [i for i, _, _ in path] == [2]

    def test_bfs_none_when_disconnected(self):
        net = network_of(3, [(1, 2, 1)])
        assert fewest_arc_path(net, (0,)) is None

    def test_bfs_uses_backward_room(self):
        net = network_of(4, [(1, 2, 1), (1, 3, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1)])
        path = fewest_arc_path(net, (1, 0, 1, 0, 1))
        assert path == [(1, True, 1), (2, False, 1), (3, True, 1)]


class TestMaxFlowAndFind:
    def test_diamond(self, diamond):
        assert max_flow_value(diamond.network) == 2

    def test_bottlenecked_chain(self):
        net = network_of(3, [(1, 2, 5), (2, 3, 2)])
        assert max_flow_value(net) == 2

    def test_needs_backward_arcs(self):
        net = network_of(4, [(1, 2, 1), (1, 3, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1)])
        assert max_flow_value(net) == 2

    @given(small_seeds)
    def test_matches_cut_enumeration(self, seed):
        instance = gen(seed, widths=(2, 2), caps=(0, 4), density=0.6)
        assert max_flow_value(instance.network) == min_cut_value(instance.network)

    def test_find_flow_every_value(self, diamond):
        for value in range(3):
            flow = find_flow(diamond.network, value)
            assert feasible_value(diamond.network, flow) == value

    def test_find_flow_unreachable(self, diamond):
        with pytest.raises(TargetUnreachable):
            find_flow(diamond.network, 3)

    @given(small_seeds)
    @settings(max_examples=30)
    def test_one_unit_past_the_maximum_fails_alike(self, seed):
        # Both raise from the one augment-to-target step, naming the maximum reached.
        instance = gen(seed, widths=(2, 2), scenarios=1, caps=(0, 4), density=0.6)
        network, costs = instance.network, instance.scenarios.costs[0]
        top = min_cut_value(network)
        messages = []
        for build, args in ((find_flow, ()), (min_cost_flow, (costs,))):
            with pytest.raises(TargetUnreachable) as err:
                build(network, *args, top + 1)
            messages.append(str(err.value))
        assert messages == [f"cannot raise the flow value past {top} (target {top + 1})"] * 2


class TestSumAndDecompose:
    def test_sum_flows(self, diamond):
        total = sum_flows(diamond.network, [UPPER, LOWER])
        assert total == (1, 1, 1, 1)

    def test_sum_flows_capacity_guard(self, diamond):
        with pytest.raises(CapacityViolation) as err:
            sum_flows(diamond.network, [UPPER, UPPER])
        assert err.value.arc_index == 0

    def test_decompose_unit_paths(self, diamond):
        pieces = decompose(diamond.network, FULL)
        assert len(pieces) == 2
        for piece in pieces:
            assert feasible_value(diamond.network, unit_flow(diamond.network, piece)) == 1
        assert sorted(pieces) == [(0, 2), (1, 3)]
        assert sorted(unit_vertices(diamond.network, p) for p in pieces) == [(1, 2, 4), (1, 3, 4)]
        units = [unit_flow(diamond.network, p) for p in pieces]
        assert sum_flows(diamond.network, units) == FULL

    def test_decompose_zero_flow(self, diamond):
        assert decompose(diamond.network, (0, 0, 0, 0)) == []

    def test_decompose_rejects_pure_circulation(self):
        # A flow of value 0 has no unit paths; its circulation is left out.
        net = network_of(4, [(1, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 1)])
        assert decompose(net, (0, 1, 1, 0)) == []

    def test_decompose_rejects_hidden_circulation(self):
        # Only the path part 1 -> 2 -> 4 comes back, not the cycle 2 -> 3 -> 2.
        net = network_of(4, [(1, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 1)])
        assert decompose(net, (1, 1, 1, 1)) == [(0, 3)]

    def test_decompose_rejects_non_conserving_input(self):
        # Value 1 leaves the source, but nothing leaves vertex 2.
        net = network_of(4, [(1, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 1)])
        with pytest.raises(ConservationViolation) as err:
            decompose(net, (1, 0, 0, 0))
        assert err.value.vertex == 2

    @given(small_seeds)
    def test_roundtrip_on_layered_instances(self, seed):
        instance = gen(seed, widths=(2, 2), caps=(1, 3), density=0.8, flow_fraction=1.0)
        flow = random_feasible_flow(instance, seed)
        pieces = decompose(instance.network, flow)
        assert len(pieces) == instance.flow_value
        units = [unit_flow(instance.network, p) for p in pieces]
        assert sum_flows(instance.network, units) == flow


class TestCenterAndRound:
    def test_center_means(self, diamond):
        totals, count = center(diamond.network, [UPPER, LOWER])
        assert (totals, count) == ((1, 1, 1, 1), 2)

    def test_center_requires_equal_values(self, diamond):
        with pytest.raises(ValueError, match="same value"):
            center(diamond.network, [UPPER, FULL])
        with pytest.raises(ValueError, match="empty"):
            center(diamond.network, [])

    def test_round_flow_half_up(self, diamond):
        rounded = round_flow(diamond.network, *center(diamond.network, [UPPER, LOWER]))
        assert feasible_value(diamond.network, rounded) == 1

    def test_round_flow_fixes_integer_input(self, diamond):
        assert round_flow(diamond.network, UPPER, 1) == UPPER

    def test_round_flow_repairs_overshoot(self):
        net = network_of(3, [(1, 2, 2), (2, 3, 2)])
        rounded = round_flow(net, (3, 3), 2)
        assert feasible_value(net, rounded) == 2

    @given(small_seeds)
    def test_round_center_keeps_value(self, seed):
        instance = gen(seed, widths=(2, 2), caps=(1, 3), density=0.8)
        flows = [random_feasible_flow(instance, seed + k) for k in range(3)]
        rounded = round_flow(instance.network, *center(instance.network, flows))
        assert feasible_value(instance.network, rounded) == instance.flow_value


class TestCompose:
    def test_combines_two_decompositions(self, diamond):
        first = decompose(diamond.network, FULL)
        second = decompose(diamond.network, FULL)
        flow = compose(diamond.network, first, second, make_rng(0))
        assert feasible_value(diamond.network, flow) == 2

    def test_same_seed_same_result(self, diamond):
        first = decompose(diamond.network, FULL)
        second = list(reversed(first))
        a = compose(diamond.network, first, second, make_rng(5))
        b = compose(diamond.network, first, second, make_rng(5))
        assert a == b

    def test_repair_after_both_lists_stall(self):
        net = network_of(4, [(1, 2, 1), (2, 4, 1), (1, 3, 1), (3, 4, 1)])
        top = (0, 1)
        clones = [top, top]
        flow = compose(net, clones, clones, make_rng(1))
        assert feasible_value(net, flow) == 2
        assert flow == (1, 1, 1, 1)

    def test_rejects_mismatched_lists(self, diamond):
        pieces = decompose(diamond.network, FULL)
        with pytest.raises(ValueError, match="equal positive length"):
            compose(diamond.network, pieces, pieces[:1], make_rng(0))

    @given(small_seeds)
    def test_feasible_on_random_pairs(self, seed):
        instance = gen(seed, widths=(2, 2), caps=(1, 3), density=0.8, flow_fraction=1.0)
        a = decompose(instance.network, random_feasible_flow(instance, seed))
        b = decompose(instance.network, random_feasible_flow(instance, seed + 77))
        flow = compose(instance.network, a, b, make_rng(seed))
        assert feasible_value(instance.network, flow) == instance.flow_value


class TestNegativeCycle:
    def test_finds_the_improving_cycle(self, diamond):
        costs = diamond.scenarios.costs[0]
        cyc = negative_cycle(diamond.network, LOWER, costs)
        assert cyc is not None
        assert bottleneck(cyc) == 1
        assert cycle_cost(cyc, costs) < 0
        improved = _push_room(LOWER, cyc)
        assert oracles.scenario_cost(diamond, improved, 0) < oracles.scenario_cost(diamond, LOWER, 0)

    def test_none_at_optimum(self, diamond):
        costs = diamond.scenarios.costs[0]
        assert negative_cycle(diamond.network, UPPER, costs) is None

    def test_cycle_is_closed(self, diamond):
        cyc = negative_cycle(diamond.network, LOWER, diamond.scenarios.costs[0])
        arcs = [endpoints(diamond.network, move) for move in cyc]
        assert arcs[-1][1] == arcs[0][0]
        for prev, nxt in zip(arcs, arcs[1:]):
            assert prev[1] == nxt[0]

    @given(small_seeds, st.integers(0, 3))
    @settings(max_examples=60)
    def test_agrees_with_floyd_warshall(self, seed, scenario):
        instance = gen(seed, widths=(2, 2), scenarios=4, caps=(0, 3), density=0.7)
        flow = random_feasible_flow(instance, seed)
        costs = instance.scenarios.costs[scenario]
        cyc = negative_cycle(instance.network, flow, costs)
        assert (cyc is not None) == has_negative_cycle_floyd_warshall(
            instance.network, flow, costs
        )
        if cyc is not None:
            assert cycle_cost(cyc, costs) < 0
            assert bottleneck(cyc) == min(
                residual_capacity(instance.network, flow, move) for move in cyc
            )


def residual_capacity(network, values, move):
    """Residual capacity of one move, read off the arc list directly."""
    i, forward, _ = move
    return network.capacities[i] - values[i] if forward else values[i]


class TestNegativeCycleKernel:
    """Properties of the early-exit kernel on cyclic residual networks."""

    @staticmethod
    def case(seed, scenario):
        instance = gen(seed, widths=(3, 3), scenarios=3, caps=(1, 4), density=0.8)
        flow = random_feasible_flow(instance, seed)
        return instance, flow, instance.scenarios.costs[scenario]

    @given(small_seeds, st.integers(0, 2))
    @settings(max_examples=60)
    def test_finds_a_cycle_exactly_when_one_exists(self, seed, scenario):
        instance, flow, costs = self.case(seed, scenario)
        cyc = negative_cycle(instance.network, flow, costs)
        exists = has_negative_cycle_floyd_warshall(instance.network, flow, costs)
        assert (cyc is not None) == exists

    @given(small_seeds, st.integers(0, 2))
    @settings(max_examples=60)
    def test_cycle_is_closed_simple_negative_and_residual(self, seed, scenario):
        instance, flow, costs = self.case(seed, scenario)
        cyc = negative_cycle(instance.network, flow, costs)
        if cyc is None:
            return
        network = instance.network
        arcs = [endpoints(network, move) for move in cyc]
        for prev, nxt in zip(arcs, arcs[1:] + arcs[:1]):
            assert prev[1] == nxt[0]
        tails = [tail for tail, _ in arcs]
        assert len(tails) == len(set(tails))
        assert cycle_cost(cyc, costs) < 0
        for move in cyc:
            assert move[2] == residual_capacity(network, flow, move) > 0
        assert bottleneck(cyc) == min(
            residual_capacity(network, flow, move) for move in cyc
        )

    @given(small_seeds, st.integers(0, 2))
    @settings(max_examples=30)
    def test_repeat_calls_return_the_same_cycle(self, seed, scenario):
        instance, flow, costs = self.case(seed, scenario)
        first = negative_cycle(instance.network, flow, costs)
        assert negative_cycle(instance.network, flow, costs) == first
        assert negative_cycle(instance.network, list(flow), costs) == first

    def test_flat_lists_match_the_views(self, diamond):
        rows = residual_moves(diamond.network, UPPER)
        want = [m for out in oracles.residual_moves(diamond.network, UPPER) for m in out]
        assert sorted(rows, key=lambda row: row[0]) == want


@st.composite
def residual_cases(draw):
    """A `routed_networks` network, a scrambled flow of random value and a
    cost row of -9..9, so the zero flow can hold negative cycles too."""
    network = draw(routed_networks())
    value = draw(st.integers(0, oracles.max_flow(network)))
    flow = scrambled_flow(network, value, draw(small_seeds))
    row = st.integers(-9, 9)
    costs = draw(st.lists(row, min_size=network.arc_count, max_size=network.arc_count))
    return network, flow, costs


# perfbench's L and S shapes: the descent workload's and the corpus's instances
L_SHAPE = dict(widths=(10, 10, 10), scenarios=10, caps=(1, 50), costs=(0, 99), density=1.0)
S_SHAPE = dict(widths=(4, 4), scenarios=4, caps=(1, 5), costs=(0, 99), density=0.8)


class TestNegativeCycleAgainstEdgeList:
    """The arc-array kernel returns exactly the cycle of the edge-list
    kernel it replaced: same triples, same order, or None for both."""

    @given(residual_cases())
    @settings(max_examples=300)
    def test_same_cycle_on_routed_networks(self, case):
        network, flow, costs = case
        assert negative_cycle(network, flow, costs) == oracles.negative_cycle_edge_list(
            network, flow, costs
        )

    @pytest.mark.parametrize(
        "seed, instance",
        [
            *seeded_instances(2, **L_SHAPE),
            *seeded_instances(10, **S_SHAPE),
            # arcs both ways between most vertex pairs, four of them with
            # capacity 0, declared in no topological order
            *((seed, parse_instance(CYC.read_text())) for seed in (0, 1, 2)),
            # a directed cycle 2 -> 3 -> 2 and a zero-capacity shortcut 1 -> 4
            (0, Instance(
                network_of(4, [(1, 2, 3), (2, 3, 2), (3, 2, 2), (3, 4, 2), (2, 4, 3), (1, 4, 0)]),
                ScenarioSet(((1, 0, 0, 1, 5, 0), (1, 9, 0, 9, 1, 0))),
                3,
            )),
        ],
    )
    def test_same_cycles_along_cancellation_chains(self, seed, instance):
        network = instance.network
        start = random_feasible_flow(instance, seed)
        calls = 0
        for costs in instance.scenarios.costs:
            flow = start
            while True:
                cycle = negative_cycle(network, flow, costs)
                calls += 1
                assert cycle == oracles.negative_cycle_edge_list(network, flow, costs)
                if cycle is None:
                    break
                flow = _push_room(flow, cycle)
        assert calls > instance.scenarios.scenario_count


class TestCostReduce:
    def test_single_step(self, diamond):
        costs = diamond.scenarios.costs[0]
        flow, optimal, _ = cost_reduce(diamond.network, costs, LOWER)
        assert not optimal
        assert flow == UPPER
        flow, optimal, _ = cost_reduce(diamond.network, costs, flow)
        assert optimal
        assert flow == UPPER

    @given(small_seeds)
    @settings(max_examples=60)
    def test_min_cost_flow_matches_enumeration(self, seed):
        instance = gen(seed, widths=(2,), scenarios=1, caps=(0, 2), density=0.9)
        costs = instance.scenarios.costs[0]
        flow = min_cost_flow(instance.network, costs, instance.flow_value)
        assert feasible_value(instance.network, flow) == instance.flow_value
        got = sum(c * v for c, v in zip(costs, flow))
        assert got == brute_min_cost(instance, 0)

    # A zero-cost cycle 2 -> 3 -> 2 on the cheapest route, a zero-capacity
    # shortcut 1 -> 4 and a dearer parallel route 2 -> 4.
    @example(Instance(
        network_of(4, [(1, 2, 3), (2, 3, 2), (3, 2, 2), (3, 4, 2), (2, 4, 3), (1, 4, 0)]),
        ScenarioSet(((1, 0, 0, 1, 5, 0), (1, 0, 0, 9, 1, 0))),
        3,
    ))
    @given(cyclic_instances())
    @settings(max_examples=40)
    def test_min_cost_flow_on_cyclic_networks(self, instance):
        network = instance.network
        top = oracles.max_flow(network)
        for s, costs in enumerate(instance.scenarios.costs):
            flow = min_cost_flow(network, costs, instance.flow_value)
            assert feasible_value(network, flow) == instance.flow_value
            assert sum(c * v for c, v in zip(costs, flow)) == brute_min_cost(instance, s)
            assert min_cost_flow(network, costs, 0) == (0,) * network.arc_count
            with pytest.raises(TargetUnreachable):
                min_cost_flow(network, costs, top + 1)

    @given(small_seeds)
    @settings(max_examples=60)
    def test_min_cost_flow_at_the_maximum_value_matches_enumeration(self, seed):
        # At the maximum flow value later paths often have to undo part of
        # an earlier one, a backward move of negative cost that only the
        # node potentials keep the search exact for.
        instance = gen(seed, widths=(3, 3), scenarios=3, caps=(1, 3), flow_fraction=1.0)
        network = instance.network
        for s, costs in enumerate(instance.scenarios.costs):
            flow = min_cost_flow(network, costs, instance.flow_value)
            assert feasible_value(network, flow) == instance.flow_value
            assert sum(c * v for c, v in zip(costs, flow)) == brute_min_cost(instance, s)

    def test_min_cost_flow_rejects_negative_costs(self, diamond):
        with pytest.raises(ValueError, match="nonnegative"):
            min_cost_flow(diamond.network, (1, -1, 1, 1), 1)


class TestMinCostFlowAgainstLinprog:
    """Scenario optima on L-size instances, against an off-the-shelf LP.

    The node-arc incidence matrix is totally unimodular, so the LP optimum
    of one scenario is also its integer optimum.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cost_equals_lp_optimum(self, seed):
        pytest.importorskip("scipy")
        import numpy as np
        from scipy.optimize import linprog

        instance = gen(seed, widths=(10, 10, 10), scenarios=3, caps=(1, 50), costs=(0, 99))
        network = instance.network
        n, m = network.vertex_count, network.arc_count
        incidence = np.zeros((n, m))
        for i, (tail, head) in enumerate(zip(network.tails, network.heads)):
            incidence[tail - 1, i] = 1
            incidence[head - 1, i] = -1
        supply = np.zeros(n)
        supply[network.source - 1] = instance.flow_value
        supply[network.sink - 1] = -instance.flow_value
        bounds = [(0, capacity) for capacity in network.capacities]
        for costs in instance.scenarios.costs:
            flow = min_cost_flow(network, costs, instance.flow_value)
            assert feasible_value(network, flow) == instance.flow_value
            lp = linprog(costs, A_eq=incidence, b_eq=supply, bounds=bounds, method="highs")
            assert lp.status == 0, lp.message
            assert sum(c * x for c, x in zip(costs, flow)) == round(lp.fun)


class TestPerturbAndHarmonize:
    def test_perturb_moves_around_the_only_cycle(self, diamond):
        for seed in range(6):
            moved = perturb(diamond.network, UPPER, make_rng(seed))
            assert moved == LOWER

    def test_perturb_skips_two_arc_reversal(self):
        net = network_of(2, [(1, 2, 2)])
        flow = (1,)
        assert perturb(net, flow, make_rng(0)) == flow

    def test_perturb_without_cycles(self, diamond):
        assert perturb(diamond.network, FULL, make_rng(3)) == FULL

    def test_harmonize_reaches_target(self, diamond):
        pulled = harmonize(diamond.network, UPPER, LOWER, make_rng(0))
        assert pulled == LOWER

    def test_harmonize_fixpoint_on_self(self, diamond):
        assert harmonize(diamond.network, UPPER, UPPER, make_rng(0)) == UPPER

    @given(small_seeds)
    @settings(max_examples=60)
    def test_harmonize_never_loses_agreement(self, seed):
        instance = gen(seed, widths=(2, 2), caps=(1, 3), density=0.8)
        flow = random_feasible_flow(instance, seed)
        target = random_feasible_flow(instance, seed + 13)
        pulled = harmonize(instance.network, flow, target, make_rng(seed))
        assert feasible_value(instance.network, pulled) == instance.flow_value
        assert self_distance(pulled, target) <= self_distance(flow, target)

    @given(small_seeds)
    @settings(max_examples=60)
    def test_perturb_preserves_value(self, seed):
        instance = gen(seed, widths=(2, 2), caps=(1, 3), density=0.8)
        flow = random_feasible_flow(instance, seed)
        moved = perturb(instance.network, flow, make_rng(seed + 1))
        assert feasible_value(instance.network, moved) == instance.flow_value


@given(cyclic_instances(), small_seeds)
@settings(max_examples=80)
def test_crossover_and_mutation_outputs_are_feasible(instance, seed):
    """The evolutionary loop scores these outputs without validating them.

    It never runs at flow value 0, where `compose` has no unit paths.
    """
    network, value = instance.network, instance.flow_value
    a = scrambled_flow(network, value, seed)
    b = scrambled_flow(network, value, seed + 1)
    rng = make_rng(seed)
    outputs = [
        round_flow(network, *center(network, [a, b])),
        harmonize(network, a, b, rng),
        perturb(network, a, rng),
    ]
    outputs += [cost_reduce(network, costs, a)[0] for costs in instance.scenarios.costs]
    if value:
        outputs.append(compose(network, decompose(network, a), decompose(network, b), rng))
    for flow in outputs:
        assert feasible_value(network, flow) == value


def self_distance(a, b):
    """Arcs where exactly one of the two flows is positive."""
    return sum(1 for x, y in zip(a, b) if (x > 0) != (y > 0))


class TestDfsCycle:
    def test_none_on_acyclic_residual(self, diamond):
        assert dfs_cycle(diamond.network, FULL, make_rng(0)) is None

    def test_cycle_is_vertex_simple(self, diamond):
        cyc = dfs_cycle(diamond.network, UPPER, make_rng(2))
        assert cyc is not None
        arcs = [endpoints(diamond.network, move) for move in cyc]
        tails = [tail for tail, _ in arcs]
        assert len(tails) == len(set(tails))
        assert arcs[-1][1] == arcs[0][0]

    @pytest.mark.parametrize("size", [0, 1])
    def test_permuting_fewer_than_two_items_draws_nothing(self, size):
        # dfs_cycle keeps a list of 0 or 1 moves as it is instead of permuting
        # it; that leaves the stream as it was only while numpy draws nothing here.
        rng, fresh = make_rng(7), make_rng(7)
        assert rng.permutation(size).tolist() == list(range(size))
        assert rng.random(4).tolist() == fresh.random(4).tolist()
