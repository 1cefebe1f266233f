"""Robust objectives: scenario optima, both evaluators, criterion wrapper."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIAMOND_TEXT, gen
from oracles import (
    brute_min_cost,
    enumerate_feasible_flows,
    eval_absolute,
    eval_deviation,
    scenario_cost,
)
from rmcif import (
    ABSOLUTE,
    DEVIATION,
    WrongFlowValue,
    compute_optima,
    make_criterion,
    objectives,
    parse_instance,
    validate_flow,
)

UPPER = (1, 0, 1, 0)
LOWER = (0, 1, 0, 1)


class TestScenarioOptima:
    def test_diamond_values(self, diamond):
        optima = compute_optima(diamond)
        assert optima.costs == (2, 2)
        assert optima.flows[0] == UPPER
        assert optima.flows[1] == LOWER

    def test_memoized_per_instance(self, diamond):
        assert compute_optima(diamond) is compute_optima(diamond)

    def test_kept_on_the_instance_object(self, diamond):
        # An equal instance parsed apart computes and keeps its own optima.
        twin = parse_instance(DIAMOND_TEXT)
        assert twin == diamond and twin is not diamond
        first = compute_optima(diamond)
        second = compute_optima(twin)
        assert second == first and second is not first
        assert second.flows[0] is not first.flows[0]
        assert compute_optima(twin) is second

    def test_vectors_are_the_optimal_flows_scenario_costs(self):
        instance = gen(3, widths=(3, 3), scenarios=3)
        optima = compute_optima(instance)
        fresh = tuple(objectives.scenario_costs(instance, f) for f in optima.flows)
        assert optima.vectors == fresh
        assert tuple(v[s] for s, v in enumerate(optima.vectors)) == optima.costs

    def test_duplicate_scenarios_counted_separately(self):
        base = gen(3, widths=(2,), scenarios=1)
        twin = type(base)(
            base.network, type(base.scenarios)(base.scenarios.costs * 2), base.flow_value
        )
        optima = compute_optima(twin)
        assert optima.costs[0] == optima.costs[1]
        assert len(optima.flows) == 2

    @given(st.integers(0, 1_500))
    @settings(max_examples=60)
    def test_matches_enumeration(self, seed):
        instance = gen(seed, widths=(2,), scenarios=3, caps=(0, 2), density=0.9)
        optima = compute_optima(instance)
        for s in range(3):
            assert optima.costs[s] == brute_min_cost(instance, s)
            assert validate_flow(instance, optima.flows[s]) == instance.flow_value


class TestEvaluators:
    def test_absolute_is_worst_scenario(self, diamond):
        assert eval_absolute(diamond, UPPER) == 4
        assert eval_absolute(diamond, LOWER) == 4

    def test_deviation_is_worst_regret(self, diamond):
        optima = compute_optima(diamond)
        assert eval_deviation(diamond, UPPER, optima) == 2
        assert eval_deviation(diamond, LOWER, optima) == 2

    def test_rejects_wrong_value(self, diamond):
        with pytest.raises(WrongFlowValue):
            eval_absolute(diamond, (1, 1, 1, 1))

    def test_rejects_infeasible(self, diamond):
        with pytest.raises(Exception):
            eval_absolute(diamond, (1, 0, 0, 1))

    @given(st.integers(0, 1_500))
    @settings(max_examples=40)
    def test_definitions_hold_flowwise(self, seed):
        instance = gen(seed, widths=(2,), scenarios=2, caps=(0, 2), density=0.9)
        optima = compute_optima(instance)
        K = instance.scenarios.scenario_count
        for values in enumerate_feasible_flows(instance.network, instance.flow_value):
            per = [scenario_cost(instance, values, s) for s in range(K)]
            assert eval_absolute(instance, values) == max(per)
            expected = max(p - o for p, o in zip(per, optima.costs))
            assert eval_deviation(instance, values, optima) == expected
            assert eval_deviation(instance, values, optima) >= 0


class TestCriterion:
    def test_counts_evaluations(self, diamond):
        crit = make_criterion(diamond, ABSOLUTE)
        assert crit.evaluations == 0
        for flow in (UPPER, LOWER):
            crit.evaluate(flow, objectives.scenario_costs(diamond, flow))
        assert crit.evaluations == 2

    def test_shift_is_zero_or_the_scenario_optima(self, diamond):
        assert make_criterion(diamond, ABSOLUTE).shift == (0, 0)
        assert make_criterion(diamond, DEVIATION).shift == compute_optima(diamond).costs

    def test_unknown_variant(self, diamond):
        with pytest.raises(ValueError, match="unknown variant"):
            make_criterion(diamond, "either")
