"""Solvers score carried cost vectors; they must equal fresh evaluations.

`_neighborhood` advances each scenario chain's cost vector over the arcs
that a cycle cancellation changed, and `_descend` scores those vectors
without re-validating the flow.  `evolutionary` carries each member's
vector from the scenario optima through every crossover and mutation.
On random layered instances and random cyclic networks with
zero-capacity arcs and a source-to-sink route (`routed_networks`), every
carried vector must equal the per-scenario costs of its flow, and every
carried score the fresh objective.  The solvers' evaluation counts are
pinned, and a corrupted vector, even in an entry below the worst one,
must trip the closing comparison with the fresh scenario costs.  Along
whole `cost_reduce` chains the arc changes it hands back must turn each
input into its output and advance the carried vector to the fresh one,
and a step must be optimal exactly when the carried cost for its
scenario equals the scenario optimum; the solvers rely on that rule and
never call `cost_reduce` on an optimal flow.
A flow is costed in full only where it is constructed: the scenario
optima, ls1's and ls3's starts, and each solver's closing check.
"""
from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cyclic_instances, gen, routed_networks, scrambled_flow
from rmcif import (
    ABSOLUTE,
    DEVIATION,
    EC_SOLVERS,
    HEURISTIC_SOLVERS,
    VARIANTS,
    Instance,
    compute_optima,
    cost_reduce,
    heuristics,
    objectives,
    parse_instance,
    validate_flow,
)
from rmcif.heuristics import SearchParams, _descend, _neighborhood, evolutionary, local_search
from rmcif.objectives import Criterion, make_criterion, scenario_costs

seeds = st.integers(0, 2_000)
CYC = Path(__file__).parent / "data" / "cyc.rmcif"


@st.composite
def started_instances(draw):
    """An instance and a scrambled feasible start flow of its value F."""
    if draw(st.booleans()):
        network = draw(routed_networks())
        k = draw(st.integers(1, 3))
        rows = draw(st.lists(
            st.lists(st.integers(0, 9), min_size=network.arc_count, max_size=network.arc_count),
            min_size=k, max_size=k,
        ))
        value = draw(st.integers(0, oracles.max_flow(network)))
        instance = Instance(network, rows, value)
    else:
        instance = gen(draw(seeds), widths=(3, 3), scenarios=3, caps=(0, 4), density=0.8)
    start = scrambled_flow(instance.network, instance.flow_value, draw(seeds))
    return instance, start


def fresh_costs(instance, flow):
    K = len(instance.costs)
    return tuple(oracles.scenario_cost(instance, flow, s) for s in range(K))


def fresh_score(instance, variant, flow):
    if variant == ABSOLUTE:
        return oracles.eval_absolute(instance, flow)
    return oracles.eval_deviation(instance, flow, compute_optima(instance))


variants = st.sampled_from((ABSOLUTE, DEVIATION))


@given(started_instances(), variants, st.integers(1, 40))
@settings(max_examples=80)
def test_neighborhood_vectors_equal_fresh_costs(case, variant, size):
    instance, start = case
    criterion = make_criterion(instance, variant)
    optimum = compute_optima(instance).costs
    start_costs = scenario_costs(instance, start)
    for flow, costs in _neighborhood(instance, start, start_costs, optimum, size):
        assert validate_flow(instance, flow) == instance.flow_value
        assert costs == fresh_costs(instance, flow)
        assert criterion.evaluate(flow, costs) == fresh_score(instance, variant, flow)


@given(started_instances(), variants)
@settings(max_examples=60)
def test_descent_scores_equal_fresh_evaluations(case, variant):
    instance, start = case
    criterion = make_criterion(instance, variant)
    evaluate = criterion.evaluate
    scored = []

    def checked(flow, costs):
        assert costs == fresh_costs(instance, flow)
        cost = evaluate(flow, costs)
        scored.append((flow, cost))
        return cost

    criterion.evaluate = checked
    start_costs = fresh_costs(instance, start)
    optimum = compute_optima(instance).costs
    *_, (flow, cost, costs) = _descend(instance, criterion, start, start_costs, optimum, 8)
    assert scored and criterion.evaluations == len(scored)
    for seen, seen_cost in scored:
        assert seen_cost == fresh_score(instance, variant, seen)
    assert costs == fresh_costs(instance, flow)
    assert cost == fresh_score(instance, variant, flow)


def walk_cost_reduce_chains(instance, start):
    """Run every scenario's `cost_reduce` chain from `start` to its optimum.

    At each step the returned changes must turn the input into the returned
    flow, be empty exactly when the step is optimal (and then the flow is
    the input object), and advance the carried vector to the fresh
    scenario costs.  A step must be optimal exactly when the carried cost
    for its scenario equals that scenario's optimum: the rule by which the
    solvers end a chain without calling `cost_reduce`.  Returns the number
    of cancellations.
    """
    network, rows = instance.network, instance.costs
    optimum = compute_optima(instance).costs
    steps = 0
    for s, row in enumerate(rows):
        flow, costs = start, scenario_costs(instance, start)
        while True:
            nxt, optimal, changes = cost_reduce(network, row, flow)
            assert optimal == (costs[s] == optimum[s])
            # a list: per-call tuples of varying length fill the
            # interpreter's tuple free lists
            assert type(changes) is list
            assert (not changes) == optimal
            if optimal:
                assert nxt is flow
                break
            moved = list(flow)
            for i, d in changes:
                moved[i] += d
            assert tuple(moved) == nxt
            costs = heuristics._advance(rows, costs, changes)
            assert costs == scenario_costs(instance, nxt)
            flow = nxt
            steps += 1
    return steps


@given(seeds, seeds)
@settings(max_examples=60)
def test_cost_reduce_changes_advance_to_fresh_costs(instance_seed, flow_seed):
    instance = gen(instance_seed, widths=(3, 3), scenarios=3, caps=(0, 4), density=0.8)
    walk_cost_reduce_chains(instance, scrambled_flow(instance.network, instance.flow_value, flow_seed))


@given(cyclic_instances(), seeds)
@settings(max_examples=80)
def test_cost_reduce_changes_advance_to_fresh_costs_on_cyclic_networks(instance, flow_seed):
    walk_cost_reduce_chains(instance, scrambled_flow(instance.network, instance.flow_value, flow_seed))


@pytest.mark.parametrize("seed", (1, 2))
def test_cost_reduce_changes_along_long_chains(seed):
    instance = gen(seed, widths=(6, 6, 6), scenarios=5, caps=(1, 20), costs=(0, 99))
    start = scrambled_flow(instance.network, instance.flow_value, seed)
    assert walk_cost_reduce_chains(instance, start) > 5 * len(instance.costs)


@pytest.mark.parametrize("solver", HEURISTIC_SOLVERS)
def test_solvers_never_call_cost_reduce_on_an_optimal_flow(monkeypatch, solver):
    """Every chain ends when its carried cost reaches the scenario optimum,
    and a cost-reduce mutation of a member already optimal for its drawn
    scenario is the member itself, so no call proves optimality."""
    calls = []

    def checked(network, costs, flow):
        result = cost_reduce(network, costs, flow)
        assert result[1] is False, "cost_reduce was called on an optimal flow"
        calls.append(flow)
        return result

    monkeypatch.setattr(heuristics, "cost_reduce", checked)
    instances = [gen(seed, widths=(4, 4), scenarios=4, caps=(1, 5)) for seed in (1, 2)]
    instances.append(parse_instance(CYC.read_text()))
    # a fill after the K optima, and a mutation in most generations
    params = SearchParams(population_size=8, generation_limit=20, mutation_threshold=60)
    for instance in instances:
        for variant in VARIANTS:
            if solver in EC_SOLVERS:
                evolutionary(instance, variant, solver, params, seed=1)
            else:
                local_search(instance, variant, solver, params, seed=1)
    # ec1, ec4 and ec7 perturb; every other solver cancels cycles
    assert bool(calls) == (solver not in ("ec1", "ec4", "ec7"))


# A mutation in most generations, so its carried vectors are scored too.
CARRY = SearchParams(population_size=8, generation_limit=15, mutation_threshold=60)


def run_checked(instance, variant, solver, seed):
    """Run `solver`; every vector `Criterion.evaluate` receives must be fresh."""
    evaluate = Criterion.evaluate
    received = []

    def checked(self, flow, costs):
        assert costs == scenario_costs(instance, flow)
        received.append(costs)
        return evaluate(self, flow, costs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Criterion, "evaluate", checked)
        evolutionary(instance, variant, solver, CARRY, seed)
    return received


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("solver", EC_SOLVERS)
def test_evolutionary_vectors_equal_fresh_costs(seed, variant, solver):
    instance = gen(seed, widths=(3, 3), scenarios=3, caps=(1, 4))
    assert run_checked(instance, variant, solver, seed)


@given(cyclic_instances(), st.sampled_from(EC_SOLVERS), st.integers(0, 100))
@settings(max_examples=40)
def test_evolutionary_vectors_equal_fresh_costs_on_cyclic_networks(instance, solver, seed):
    for variant in VARIANTS:
        run_checked(instance, variant, solver, seed)


def test_corrupted_vector_fails_the_closing_check(monkeypatch):
    instance = gen(1, widths=(6, 6, 6), scenarios=5, caps=(1, 20), costs=(0, 99))
    advance = heuristics._advance
    monkeypatch.setattr(
        heuristics, "_advance", lambda *args: tuple(c - 1 for c in advance(*args))
    )
    with pytest.raises(AssertionError, match="fresh cost"):
        local_search(instance, ABSOLUTE, "ls1")
    # one solver per crossover kind
    for solver in ("ec1", "ec4", "ec7"):
        with pytest.raises(AssertionError, match="fresh cost"):
            evolutionary(instance, ABSOLUTE, solver, SearchParams(generation_limit=10))
    # a cost-reduce mutation in every generation
    with pytest.raises(AssertionError, match="fresh cost"):
        evolutionary(instance, ABSOLUTE, "ec2", SearchParams(generation_limit=10, mutation_threshold=100))


def test_corrupted_entry_below_the_worst_fails_the_closing_check(monkeypatch):
    # Lowering a scenario cost that is not the worst leaves every robust
    # cost, and so the whole search, unchanged: only a check of the whole
    # carried vector sees it.
    instance = gen(1, widths=(6, 6, 6), scenarios=5, caps=(1, 20), costs=(0, 99))
    advance = heuristics._advance

    def corrupted(*args):
        costs = list(advance(*args))
        costs[costs.index(min(costs))] -= 1
        return tuple(costs)

    monkeypatch.setattr(heuristics, "_advance", corrupted)
    with pytest.raises(AssertionError, match="fresh cost"):
        local_search(instance, ABSOLUTE, "ls1")
    for solver in ("ec1", "ec4", "ec7"):
        with pytest.raises(AssertionError, match="fresh cost"):
            evolutionary(instance, ABSOLUTE, solver, SearchParams(generation_limit=10))
    # a cost-reduce mutation in every generation
    with pytest.raises(AssertionError, match="fresh cost"):
        evolutionary(instance, ABSOLUTE, "ec2", SearchParams(generation_limit=10, mutation_threshold=100))


# (instance seed, variant, solver) -> Criterion.evaluations, recorded with
# the successive-shortest-path optima, the cheap evolutionary draws and the
# population fill's descents capped at the free slots; ec runs use
# generation_limit=10.
EVALUATIONS = {
    (1, "absolute", "ls1"): 121,
    (1, "absolute", "ls2"): 156,
    (1, "absolute", "ls3"): 61,
    (1, "absolute", "ls4"): 485,
    (1, "absolute", "ec3"): 1096,
    (1, "absolute", "ec9"): 1128,
    (1, "deviation", "ls1"): 121,
    (1, "deviation", "ls2"): 126,
    (1, "deviation", "ls3"): 181,
    (1, "deviation", "ls4"): 635,
    (1, "deviation", "ec3"): 1087,
    (1, "deviation", "ec9"): 1119,
    (2, "absolute", "ls1"): 121,
    (2, "absolute", "ls2"): 96,
    (2, "absolute", "ls3"): 91,
    (2, "absolute", "ls4"): 755,
    (2, "absolute", "ec3"): 993,
    (2, "absolute", "ec9"): 993,
    (2, "deviation", "ls1"): 181,
    (2, "deviation", "ls2"): 186,
    (2, "deviation", "ls3"): 271,
    (2, "deviation", "ls4"): 815,
    (2, "deviation", "ec3"): 961,
    (2, "deviation", "ec9"): 961,
}


@pytest.fixture(scope="module")
def instances():
    """Two 6x6x6 instances with five scenarios (84 arcs, F = 35 and 39)."""
    return {
        seed: gen(seed, widths=(6, 6, 6), scenarios=5, caps=(1, 20), costs=(0, 99))
        for seed in (1, 2)
    }


@pytest.mark.parametrize("seed, variant, solver", sorted(EVALUATIONS))
def test_evaluation_count_unchanged(instances, monkeypatch, seed, variant, solver):
    made = []

    def capture(instance, variant):
        made.append(make_criterion(instance, variant))
        return made[-1]

    monkeypatch.setattr(heuristics, "make_criterion", capture)
    if solver.startswith("ls"):
        local_search(instances[seed], variant, solver, SearchParams(), seed)
    else:
        evolutionary(instances[seed], variant, solver, SearchParams(generation_limit=10), seed)
    assert [c.evaluations for c in made] == [EVALUATIONS[seed, variant, solver]]


# ls1 and ls3 cost the start they construct; every solver's closing check
# costs its result.  Every other vector is carried.
FULL_COSTINGS = {"ls1": 2, "ls3": 2, **{solver: 1 for solver in ("ls2", "ls4", *EC_SOLVERS)}}


@pytest.mark.parametrize("solver", HEURISTIC_SOLVERS)
def test_flows_are_costed_in_full_only_where_constructed(monkeypatch, solver):
    costed = []
    fresh = objectives.scenario_costs

    def counting(instance, flow):
        costed.append(flow)
        return fresh(instance, flow)

    for module in (objectives, heuristics):
        monkeypatch.setattr(module, "scenario_costs", counting)
    instances = [gen(seed, widths=(4, 4), scenarios=4, caps=(1, 5)) for seed in (1, 2)]
    instances.append(parse_instance(CYC.read_text()))
    # a fill after the K optima, and a mutation in most generations
    params = SearchParams(population_size=8, generation_limit=10, mutation_threshold=60)
    for instance in instances:
        del costed[:]
        optima = compute_optima(instance)
        assert costed == list(optima.flows)
        for variant in VARIANTS:
            del costed[:]
            if solver in EC_SOLVERS:
                record = evolutionary(instance, variant, solver, params, seed=1)
            else:
                record = local_search(instance, variant, solver, params, seed=1)
            assert len(costed) == FULL_COSTINGS[solver]
            assert costed[-1] == record.values
