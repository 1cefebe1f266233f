"""The evolutionary loop's per-run caches hand out what fresh calls give.

`evolutionary` keeps each parent's unit paths while the parent stays in
the population, and the capped descents that fill the initial population
share one memo of neighborhoods.  On random layered instances and random
cyclic networks, every unit-path list a crossover composes must equal a
fresh `decompose` of its parent, a flow is decomposed again only after it
left the population, and the kept lists never outnumber the population.
A descent with a memo, fresh or filled, must follow the one without.
"""
from __future__ import annotations

import weakref
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic_instances, gen, scrambled_flow
from rmcif import DEVIATION, VARIANTS, SearchParams, evolutionary, flow_ops, heuristics
from rmcif.heuristics import _descend, _neighborhood, _tournament
from rmcif.objectives import compute_optima, make_criterion, scenario_costs

CROSSOVER_SOLVERS = ("ec7", "ec8", "ec9")


class Paths(list):
    """A unit-path list that can be watched until it is freed."""


class Watch:
    """Checks one run's crossovers through the `heuristics` bindings."""

    def __init__(self, monkeypatch):
        self.parents = []  # the flow each "best" tournament picked
        self.live = []  # the population's flows at each of those picks
        self.last = {}  # flow -> index into `live` at its last decomposition
        self.calls = 0
        self.composed = 0
        self.kept = 0  # unit-path lists not yet freed
        self.most_kept = 0
        monkeypatch.setattr(heuristics, "_tournament", self.select)
        monkeypatch.setattr(heuristics, "decompose", self.decompose)
        monkeypatch.setattr(heuristics, "compose", self.compose)

    def select(self, population, better, *args, **kwargs):
        chosen = _tournament(population, better, *args, **kwargs)
        if better is lt:  # a parent's "best" tournament, not insert_child's "worst" one
            self.parents.append(population[chosen][0])
            self.live.append({member[0] for member in population})
        return chosen

    def decompose(self, network, flow):
        assert flow in self.live[-1], "decomposed a flow outside the population"
        if flow in self.last:
            # its paths may only have been dropped while it was not a member
            assert any(flow not in live for live in self.live[self.last[flow]:])
        self.last[flow] = len(self.live) - 1
        self.calls += 1
        paths = Paths(flow_ops.decompose(network, flow))
        self.kept += 1
        self.most_kept = max(self.most_kept, self.kept)
        weakref.finalize(paths, self.release)
        return paths

    def release(self):
        self.kept -= 1

    def compose(self, network, first, second, rng):
        assert first == flow_ops.decompose(network, self.parents[-2])
        assert second == flow_ops.decompose(network, self.parents[-1])
        self.composed += 1
        return flow_ops.compose(network, first, second, rng)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("solver", CROSSOVER_SOLVERS)
def test_parents_decomposed_once_while_members(monkeypatch, seed, variant, solver):
    instance = gen(seed, widths=(3, 3), scenarios=3, caps=(1, 4))
    watch = Watch(monkeypatch)
    evolutionary(instance, variant, solver, SearchParams(generation_limit=40), seed)
    assert watch.composed == 40
    assert len(watch.last) <= len(set(watch.parents))
    # uncached, every crossover would decompose both of its parents
    assert watch.calls < 2 * watch.composed


@given(cyclic_instances(), st.sampled_from(CROSSOVER_SOLVERS), st.integers(0, 100))
@settings(max_examples=25)
def test_cyclic_parents_decomposed_once_while_members(instance, solver, seed):
    for variant in VARIANTS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            watch = Watch(monkeypatch)
            evolutionary(instance, variant, solver, SearchParams(generation_limit=20), seed)
        assert len(watch.last) <= len(set(watch.parents))


def test_kept_paths_never_outnumber_the_population(monkeypatch):
    instance = gen(1, widths=(3, 3), scenarios=3, caps=(1, 4))
    params = SearchParams(mutation_threshold=100, generation_limit=200)
    watch = Watch(monkeypatch)
    evolutionary(instance, DEVIATION, "ec7", params, seed=1)
    # more distinct parents than members, so stale paths were dropped
    assert len(watch.last) > params.population_size
    assert watch.most_kept <= params.population_size


@given(cyclic_instances(), st.sampled_from(VARIANTS), st.integers(0, 2_000))
@settings(max_examples=40)
def test_descent_with_a_memo_follows_the_one_without(instance, variant, seed):
    start = scrambled_flow(instance.network, instance.flow_value, seed)
    size = 5
    plain = make_criterion(instance, variant)
    start_costs = scenario_costs(instance, start)
    optimum = compute_optima(instance).costs
    want = list(_descend(instance, plain, start, start_costs, optimum, size))
    memo = {}
    for _ in range(2):  # an empty memo, then the one the first descent filled
        criterion = make_criterion(instance, variant)
        got = list(_descend(instance, criterion, start, start_costs, optimum, size, memo=memo))
        assert got == want
        assert criterion.evaluations == plain.evaluations
    for flow, neighbors in memo.items():
        costs = scenario_costs(instance, flow)
        assert neighbors == _neighborhood(instance, flow, costs, optimum, size)
