"""Local-search and evolutionary solvers, plus their shared building blocks."""
from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_instance, gen
from oracles import brute_robust_optimum
from rmcif import (
    ABSOLUTE,
    DEVIATION,
    EC_SOLVERS,
    HEURISTIC_SOLVERS,
    LS_SOLVERS,
    VARIANTS,
    InvalidParameter,
    SearchParams,
    evolutionary,
    local_search,
    make_criterion,
    make_rng,
    parse_instance,
    validate_flow,
)
from rmcif import heuristics, objectives
from rmcif.objectives import scenario_costs
from rmcif.heuristics import _neighborhood, insert_child, tournament_select

UPPER = (1, 0, 1, 0)
LOWER = (0, 1, 0, 1)
# the diamond's scenario optima, met by UPPER and LOWER respectively
OPTIMUM = (2, 2)

FAST = SearchParams(
    neighborhood_size=10,
    population_size=6,
    generation_limit=25,
    no_improvement_limit=15,
)

run_seeds = st.integers(0, 500)


def solve(instance, variant, solver, **kwargs):
    runner = local_search if solver in LS_SOLVERS else evolutionary
    kwargs.setdefault("params", FAST)
    return runner(instance, variant, solver, **kwargs)


class TestSearchParams:
    def test_defaults(self):
        p = SearchParams()
        assert (p.neighborhood_size, p.population_size) == (30, 30)
        assert (p.iteration_limit, p.generation_limit) == (None, None)
        assert p.no_improvement_limit == 300
        assert (p.similarity_threshold, p.mutation_threshold) == (5, 1)
        assert p.tournament_size == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("neighborhood_size", 0),
            ("population_size", 0),
            ("no_improvement_limit", 0),
            ("tournament_size", -1),
            ("iteration_limit", 0),
            ("generation_limit", -3),
            ("similarity_threshold", 101),
            ("mutation_threshold", -1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchParams(**{field: value})

    def test_unbounded_limits_allowed(self):
        p = SearchParams(iteration_limit=None, generation_limit=None)
        assert p.iteration_limit is None

    def test_numpy_integers_stored_as_ints(self):
        p = SearchParams(population_size=np.int64(4), generation_limit=np.int32(9))
        assert p == SearchParams(population_size=4, generation_limit=9)
        assert type(p.population_size) is int and type(p.generation_limit) is int


class TestRng:
    def test_seed_reproduces_stream(self):
        a = make_rng(42).integers(0, 1000, size=20)
        b = make_rng(42).integers(0, 1000, size=20)
        assert list(a) == list(b)

    def test_seeds_diverge(self):
        a = make_rng(0).integers(0, 1_000_000, size=8)
        b = make_rng(1).integers(0, 1_000_000, size=8)
        assert list(a) != list(b)


class TestNeighborhood:
    def test_chains_collect_intermediate_flows(self, diamond):
        neighbors = _neighborhood(diamond, LOWER, scenario_costs(diamond, LOWER), OPTIMUM, 30)
        assert neighbors == [(UPPER, (2, 4))]

    def test_size_cap(self, diamond):
        assert len(_neighborhood(diamond, LOWER, scenario_costs(diamond, LOWER), OPTIMUM, 1)) <= 1

    def test_exhausts_when_all_chains_hit_optima(self, diamond):
        neighbors = _neighborhood(diamond, UPPER, scenario_costs(diamond, UPPER), OPTIMUM, 30)
        assert neighbors == [(LOWER, (4, 2))]


class TestTournament:
    population = [(None, 7), (None, 3), (None, 7), (None, 3), (None, 9)]

    def test_best_full_sample_breaks_ties_low(self):
        got = tournament_select(self.population, "best", 5, make_rng(0))
        assert got == 1

    def test_worst_full_sample_breaks_ties_low(self):
        got = tournament_select(self.population, "worst", 5, make_rng(0))
        assert got == 4
        tied = [(None, 5), (None, 5)]
        assert tournament_select(tied, "worst", 2, make_rng(0)) == 0

    def test_exclude_narrows_candidates(self):
        got = tournament_select(self.population, "best", 5, make_rng(0), exclude=1)
        assert got == 3

    def test_exclude_everything(self):
        assert tournament_select([(None, 1)], "best", 3, make_rng(0), exclude=0) is None

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            tournament_select(self.population, "median", 2, make_rng(0))

    @given(st.integers(0, 300))
    def test_sample_respects_exclusion(self, seed):
        got = tournament_select(self.population, "worst", 2, make_rng(seed), exclude=4)
        assert got in (0, 1, 2, 3)

    @staticmethod
    def sample(seed, exclude=()):
        """The members that a size-3 tournament over five members samples with `seed`.

        `exclude` holds no member or one, passed on as the optional index.
        The draw is replayed once per member j, with j the only member of
        cost 0, so the "best" pick is j exactly when j was sampled.
        """
        return frozenset(
            j for j in range(5)
            if tournament_select(
                [(None, int(i != j)) for i in range(5)], "best", 3, make_rng(seed), *exclude
            ) == j
        )

    @pytest.mark.parametrize("exclude", [(), (2,)])
    def test_samples_are_uniform_over_subsets(self, exclude):
        # 4,000 seeds: a subset's frequency has a standard error of at most
        # 0.007, so the tolerance of 0.03 is above four of them.
        seeds = range(4_000)
        counts = Counter(self.sample(seed, exclude) for seed in seeds)
        members = [i for i in range(5) if i not in exclude]
        subsets = {frozenset(c) for c in combinations(members, 3)}
        assert set(counts) == subsets
        for count in counts.values():
            assert abs(count / len(seeds) - 1 / len(subsets)) <= 0.03


def members(*pairs):
    """Population members whose scenario cost vector is just their cost."""
    return [(flow, cost, (cost,)) for flow, cost in pairs]


class TestInsertChild:
    base_population = members(("a", 100), ("b", 200), ("c", 300))

    @staticmethod
    def insert(population, child_cost, threshold, size, seed=0):
        """Insert "kid" into a copy, with the lowest-cost member as the given best.

        `insert_child` writes into the list it is given and returns that
        list, so the shared `base_population` is never handed over.
        """
        copy = list(population)
        got = insert_child(
            copy, "kid", child_cost, threshold, size, make_rng(seed), lowest(copy), (child_cost,)
        )
        assert got is copy
        return got

    def test_better_child_replaces_similar_twin(self):
        got = self.insert(self.base_population, 97, 5, 2)
        assert got[0] == ("kid", 97, (97,))
        assert got[1:] == self.base_population[1:]

    def test_worse_child_loses_to_similar_twin(self):
        got = self.insert(self.base_population, 103, 5, 2)
        assert got == self.base_population

    def test_equal_cost_twin_keeps_incumbent(self):
        got = self.insert(self.base_population, 100, 5, 2)
        assert got == self.base_population

    def test_first_twin_by_index_wins(self):
        population = members(("a", 100), ("b", 100))
        got = self.insert(population, 97, 5, 2)
        assert got == members(("kid", 97), ("b", 100))

    def test_dissimilar_child_evicts_tournament_worst(self):
        got = self.insert(self.base_population, 150, 5, 3)
        assert got == members(("a", 100), ("b", 200), ("kid", 150))

    def test_best_member_is_shielded(self):
        for seed in range(10):
            got = self.insert(members(("a", 100), ("b", 400)), 250, 5, 3, seed)
            assert got == members(("a", 100), ("kid", 250))

    def test_single_member_population_unchanged(self):
        got = self.insert(members(("a", 100)), 500, 5, 3)
        assert got == members(("a", 100))

    def test_zero_base_requires_equality(self):
        population = members(("a", 0), ("b", 4))
        got = self.insert(population, 3, 100, 2)
        assert got == members(("a", 0), ("kid", 3))

    def test_given_best_index_is_shielded_and_vector_kept(self):
        # b and c tie for the best; the given index decides which one is shielded
        b, c = members(("b", 100), ("c", 100))
        kid = ("kid", 200, (150, 200))
        for seed in range(10):
            assert insert_child([b, c], *kid[:2], 5, 3, make_rng(seed), 0, kid[2]) == [b, kid]
            assert insert_child([b, c], *kid[:2], 5, 3, make_rng(seed), 1, kid[2]) == [kid, c]


def lowest(population) -> int:
    """Index of the lowest-cost member, the lowest index on ties."""
    return min(range(len(population)), key=lambda i: (population[i][1], i))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("variant", [ABSOLUTE, DEVIATION])
@pytest.mark.parametrize("solver", EC_SOLVERS)
def test_tracked_best_index(monkeypatch, solver, variant, seed):
    """The loop's tracked best equals a fresh scan after every generation.

    Costs 0..2 make tied members common, and a member mutates in every
    generation.  The population after a generation is the list the last
    `insert_child` call returned, as the mutation then changed it in place.
    """
    instance = gen(seed, widths=(3, 3), scenarios=2, caps=(1, 3), costs=(0, 2))
    params = SearchParams(
        population_size=8, generation_limit=30, similarity_threshold=30, mutation_threshold=100
    )
    insert = heuristics.insert_child
    after = []  # the population after the last generation
    ties = []

    def checked(population, child, child_cost, *args):
        assert len(args) == 5, "the loop passes its tracked best index"
        assert args[3] == lowest(population)
        after[:] = [insert(population, child, child_cost, *args)]
        return after[0]

    def trace(generation, best_cost):
        population = after[0]
        assert best_cost == population[lowest(population)][1]
        ties.append(sum(member[1] == best_cost for member in population) > 1)

    monkeypatch.setattr(heuristics, "insert_child", checked)
    record = evolutionary(instance, variant, solver, params, seed, trace=trace)
    assert len(ties) == params.generation_limit
    population = after[0]
    assert (record.values, record.robust_cost) == population[lowest(population)][:2]
    assert any(ties)


class TestLocalSearch:
    @pytest.mark.parametrize("solver", LS_SOLVERS)
    @pytest.mark.parametrize("variant, optimum", [(ABSOLUTE, 4), (DEVIATION, 2)])
    def test_diamond_optimum(self, diamond, solver, variant, optimum):
        record = local_search(diamond, variant, solver, seed=3)
        assert record.robust_cost == optimum
        assert record.variant == variant and record.solver == solver
        assert record.seed == 3
        assert validate_flow(diamond, record.values) == 1

    def test_unknown_solver(self, diamond):
        with pytest.raises(ValueError, match="unknown local-search solver"):
            local_search(diamond, ABSOLUTE, "ec1")

    def test_negative_seed(self, diamond):
        with pytest.raises(InvalidParameter, match="seed"):
            local_search(diamond, ABSOLUTE, "ls1", seed=-1)
        with pytest.raises(InvalidParameter, match="seed"):
            make_rng(-1)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("solver", LS_SOLVERS)
    @pytest.mark.parametrize("network", ["chain", "cyc"])
    def test_zero_flow_instance(self, monkeypatch, network, solver, variant):
        # F = 0 takes the ordinary path: each descent stops at the zero flow,
        # which is optimal for every scenario, before any cycle search
        monkeypatch.setattr(heuristics, "cost_reduce", None)
        if network == "chain":
            instance = chain_instance(3, 2, 0)
        else:
            cyc = parse_instance((Path(__file__).parent / "data" / "cyc.rmcif").read_text())
            instance = replace(cyc, flow_value=0)
        record = local_search(instance, variant, solver)
        assert record.robust_cost == 0
        assert record.values == (0,) * instance.network.arc_count

    @given(run_seeds)
    @settings(max_examples=30)
    def test_trace_costs_strictly_decrease(self, seed):
        instance = gen(seed, widths=(3, 3), scenarios=3, caps=(1, 4), density=0.8)
        seen = []
        record = local_search(
            instance, ABSOLUTE, "ls1", trace=lambda flow, cost: seen.append(cost)
        )
        assert all(b < a for a, b in zip(seen, seen[1:]))
        if seen:
            assert record.robust_cost == seen[-1]
        assert validate_flow(instance, record.values) == instance.flow_value

    @given(run_seeds)
    @settings(max_examples=20)
    def test_ls4_never_worse_than_ls2(self, seed):
        instance = gen(seed, widths=(2, 2), scenarios=3, caps=(1, 3), density=0.8)
        four = local_search(instance, DEVIATION, "ls4")
        two = local_search(instance, DEVIATION, "ls2")
        assert four.robust_cost <= two.robust_cost

    @given(run_seeds)
    @settings(max_examples=20)
    def test_iteration_limit_caps_descent(self, seed):
        instance = gen(seed, widths=(3, 3), scenarios=3, caps=(1, 4), density=0.8)
        capped = local_search(
            instance, ABSOLUTE, "ls1", params=SearchParams(iteration_limit=1)
        )
        free = local_search(instance, ABSOLUTE, "ls1")
        assert capped.robust_cost >= free.robust_cost

    @pytest.mark.parametrize("limit", [None, 1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_iteration_limit_stops_before_the_next_neighborhood(self, monkeypatch, seed, limit):
        # A descent capped at k moves builds one neighborhood per move and
        # none after the k-th; one that ends on its own also builds the
        # neighborhood that offers no improvement.
        instance = gen(seed, widths=(3, 3), scenarios=3, caps=(1, 4), density=0.8)
        built = []
        neighborhood = heuristics._neighborhood

        def counted(*args):
            built.append(args[1])
            return neighborhood(*args)

        monkeypatch.setattr(heuristics, "_neighborhood", counted)
        moves = []
        local_search(
            instance,
            ABSOLUTE,
            "ls1",
            params=SearchParams(iteration_limit=limit),
            trace=lambda flow, cost: moves.append(flow),
        )
        if limit is not None:
            assert len(moves) <= limit
        assert len(built) == (len(moves) if len(moves) == limit else len(moves) + 1)


class TestEvolutionary:
    @pytest.mark.parametrize("solver", EC_SOLVERS)
    @pytest.mark.parametrize("variant, optimum", [(ABSOLUTE, 4), (DEVIATION, 2)])
    def test_diamond_optimum(self, diamond, solver, variant, optimum):
        record = evolutionary(diamond, variant, solver, params=FAST, seed=1)
        assert record.robust_cost == optimum
        assert validate_flow(diamond, record.values) == 1

    def test_unknown_solver(self, diamond):
        with pytest.raises(ValueError, match="unknown evolutionary solver"):
            evolutionary(diamond, ABSOLUTE, "ls1")

    def test_zero_flow_instance(self):
        instance = chain_instance(3, 2, 0)
        record = evolutionary(instance, DEVIATION, "ec5", params=FAST)
        assert record.robust_cost == 0

    def test_same_seed_same_record(self, diamond):
        a = evolutionary(diamond, ABSOLUTE, "ec7", params=FAST, seed=9)
        b = evolutionary(diamond, ABSOLUTE, "ec7", params=FAST, seed=9)
        assert replace(a, elapsed_seconds=0.0) == replace(b, elapsed_seconds=0.0)

    def test_stops_after_stagnation(self, diamond):
        generations = []
        evolutionary(
            diamond,
            ABSOLUTE,
            "ec2",
            params=SearchParams(
                population_size=4, no_improvement_limit=3, generation_limit=None
            ),
            trace=lambda g, cost: generations.append((g, cost)),
        )
        assert [g for g, _ in generations] == [1, 2, 3]
        assert all(cost == 4 for _, cost in generations)

    def test_generation_limit_stops_first(self, diamond):
        generations = []
        evolutionary(
            diamond,
            ABSOLUTE,
            "ec2",
            params=SearchParams(population_size=4, generation_limit=2),
            trace=lambda g, cost: generations.append(g),
        )
        assert generations == [1, 2]

    @given(run_seeds)
    @settings(max_examples=15)
    def test_trace_best_never_worsens(self, seed):
        instance = gen(seed, widths=(2, 2), scenarios=2, caps=(1, 3), density=0.8)
        costs = []
        record = evolutionary(
            instance,
            DEVIATION,
            "ec4",
            params=SearchParams(population_size=5, generation_limit=12),
            seed=seed,
            trace=lambda g, cost: costs.append(cost),
        )
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert record.robust_cost == min(costs)
        assert validate_flow(instance, record.values) == instance.flow_value


class TestAgainstEnumeration:
    @given(st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_heuristics_bounded_below_by_optimum(self, seed):
        instance = gen(seed, widths=(2,), scenarios=2, caps=(0, 2), density=0.9)
        for variant in (ABSOLUTE, DEVIATION):
            floor = brute_robust_optimum(instance, variant)
            for solver in ("ls1", "ls3", "ec1", "ec5", "ec9"):
                record = solve(instance, variant, solver, seed=seed)
                assert record.robust_cost >= floor
                assert validate_flow(instance, record.values) == instance.flow_value


def test_solver_registries():
    assert LS_SOLVERS == ("ls1", "ls2", "ls3", "ls4")
    assert EC_SOLVERS == tuple(f"ec{k}" for k in range(1, 10))
    assert HEURISTIC_SOLVERS == LS_SOLVERS + EC_SOLVERS


@pytest.mark.parametrize("solver", ["ls2", "ls3", "ls4", "ec1", "ec9"])
@pytest.mark.parametrize("variant", [ABSOLUTE, DEVIATION])
def test_scenario_optima_computed_once_per_instance(monkeypatch, solver, variant):
    # One min-cost flow per scenario, however many solves read the optima.
    instance = gen(4, widths=(2, 2), scenarios=3)
    calls = []
    flow = objectives.min_cost_flow

    def counting(*args):
        calls.append(args)
        return flow(*args)

    monkeypatch.setattr(objectives, "min_cost_flow", counting)
    for seed in (0, 1):
        solve(instance, variant, solver, seed=seed)
    assert len(calls) == len(instance.costs) == 3
