"""Exhaustive enumerator and the LP-format model export."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIAMOND_TEXT, chain_instance, gen, network_of
from oracles import brute_robust_optimum, solve_lp_text
from rmcif import (
    ABSOLUTE,
    DEVIATION,
    BudgetExceeded,
    GeneratorSpec,
    Instance,
    InvalidParameter,
    compute_optima,
    enumerate_optimum,
    export_lp,
    generate,
    make_criterion,
    validate_flow,
)
from rmcif import exact, objectives
from rmcif.objectives import scenario_costs

DIAMOND_LP = """\
\\ robust minimum-cost flow model, absolute variant
Minimize
 obj: y
Subject To
 rob_1: x_1_2 + 2 x_1_3 + x_2_4 + 2 x_3_4 - y <= 0
 rob_2: 2 x_1_2 + x_1_3 + 2 x_2_4 + x_3_4 - y <= 0
 cons_1: x_1_2 + x_1_3 = 1
 cons_2: - x_1_2 + x_2_4 = 0
 cons_3: - x_1_3 + x_3_4 = 0
 cons_4: - x_2_4 - x_3_4 = -1
Bounds
 0 <= x_1_2 <= 1
 0 <= x_1_3 <= 1
 0 <= x_2_4 <= 1
 0 <= x_3_4 <= 1
Generals
 x_1_2 x_1_3 x_2_4 x_3_4
End
"""


def cyclic_instance():
    """A network whose middle vertices form a directed cycle."""
    net = network_of(4, [(1, 2, 2), (2, 3, 1), (3, 2, 1), (2, 4, 2)])
    return Instance(net, ((1, 5, 5, 1), (2, 1, 1, 2)), 1)


class TestEnumerate:
    @pytest.mark.parametrize("variant, optimum", [(ABSOLUTE, 4), (DEVIATION, 2)])
    def test_diamond(self, diamond, variant, optimum):
        cost, witness = enumerate_optimum(diamond, variant)
        assert cost == optimum
        assert validate_flow(diamond, witness) == 1
        fresh = scenario_costs(diamond, witness)
        assert make_criterion(diamond, variant).evaluate(witness, fresh) == cost

    def test_zero_flow_value(self):
        instance = chain_instance(4, 3, 0)
        cost, witness = enumerate_optimum(instance, ABSOLUTE)
        assert cost == 0
        assert witness == (0, 0, 0)

    def test_unknown_variant(self, diamond):
        with pytest.raises(ValueError, match="unknown variant"):
            enumerate_optimum(diamond, "worst")

    def test_budget_exhaustion(self):
        instance = gen(11, widths=(3, 3), scenarios=2, caps=(1, 9), density=1.0)
        with pytest.raises(BudgetExceeded) as err:
            enumerate_optimum(instance, ABSOLUTE, node_budget=2)
        assert err.value.explored >= 2
        assert "budget" in str(err.value)

    def test_negative_budget(self, diamond):
        with pytest.raises(InvalidParameter, match="node budget"):
            enumerate_optimum(diamond, ABSOLUTE, node_budget=-1)

    @pytest.mark.parametrize("budget", [-1, 2.5])
    def test_bad_budget_rejected_before_any_work(self, diamond, monkeypatch, budget):
        # the deviation criterion needs the scenario optima: none may be computed
        calls = []
        monkeypatch.setattr(objectives, "compute_optima", calls.append)
        monkeypatch.setattr(exact, "compute_optima", calls.append)
        with pytest.raises(InvalidParameter, match="node budget"):
            enumerate_optimum(diamond, DEVIATION, budget)
        assert calls == []

    def test_deep_network_ends_in_budget(self):
        # 1,860 arcs: a search that recursed once per arc would overflow
        # Python's stack long before the budget runs out.
        instance = generate(GeneratorSpec((30, 30, 30), 2, (1, 5), (0, 99), 1.0, seed=0))
        assert instance.network.arc_count == 1860
        with pytest.raises(BudgetExceeded) as err:
            enumerate_optimum(instance, ABSOLUTE, node_budget=10_000)
        assert err.value.explored == 10_001

    def test_non_acyclic_network(self):
        instance = cyclic_instance()
        for variant in (ABSOLUTE, DEVIATION):
            cost, witness = enumerate_optimum(instance, variant)
            assert cost == brute_robust_optimum(instance, variant)
            assert validate_flow(instance, witness) == 1

    @given(st.integers(0, 1_500))
    @settings(max_examples=80)
    def test_matches_flow_enumeration(self, seed):
        instance = gen(seed, widths=(2, 2), scenarios=3, caps=(0, 2), density=0.8)
        for variant in (ABSOLUTE, DEVIATION):
            cost, witness = enumerate_optimum(instance, variant)
            assert cost == brute_robust_optimum(instance, variant)
            assert validate_flow(instance, witness) == instance.flow_value
            fresh = scenario_costs(instance, witness)
            assert make_criterion(instance, variant).evaluate(witness, fresh) == cost

    @given(st.integers(0, 500))
    @settings(max_examples=25)
    def test_witness_cost_is_reachable_by_heuristics_floor(self, seed):
        instance = gen(seed, widths=(3,), scenarios=2, caps=(0, 3), density=1.0)
        abs_cost, _ = enumerate_optimum(instance, ABSOLUTE)
        dev_cost, _ = enumerate_optimum(instance, DEVIATION)
        assert dev_cost >= 0
        assert abs_cost >= max(compute_optima(instance).costs)


class TestExportLp:
    def test_diamond_text(self, diamond):
        assert export_lp(diamond, ABSOLUTE) == DIAMOND_LP

    def test_deviation_moves_optima_to_rhs(self, diamond):
        text = export_lp(diamond, DEVIATION)
        assert " rob_1: x_1_2 + 2 x_1_3 + x_2_4 + 2 x_3_4 - y <= 2" in text
        assert "deviation variant" in text.splitlines()[0]

    def test_unknown_variant(self, diamond):
        with pytest.raises(ValueError, match="unknown variant"):
            export_lp(diamond, "both")

    def test_zero_cost_terms_skipped(self):
        net = network_of(3, [(1, 2, 1), (2, 3, 1)])
        instance = Instance(net, ((0, 3), (0, 0)), 1)
        text = export_lp(instance, ABSOLUTE)
        assert " rob_1: 3 x_2_3 - y <= 0" in text
        assert " rob_2: - y <= 0" in text

    def test_isolated_vertex_row(self):
        net = network_of(3, [(1, 3, 2)])
        instance = Instance(net, ((1,),), 1)
        text = export_lp(instance, ABSOLUTE)
        assert " cons_2: 0 y = 0" in text

    def test_body_lines_wrapped(self):
        instance = gen(4, widths=(6, 6), scenarios=2, caps=(1, 99), costs=(10, 99))
        text = export_lp(instance, ABSOLUTE)
        assert all(len(line) <= 72 for line in text.splitlines())
        for line in text.splitlines()[1:]:
            if line not in ("Minimize", "Subject To", "Bounds", "Generals", "End"):
                assert line.startswith(" ")

    def test_wrapped_rows_parse_back_identically(self):
        instance = gen(4, widths=(2, 2), scenarios=2, caps=(0, 2), costs=(80, 99))
        text = export_lp(instance, ABSOLUTE)
        lines = text.splitlines()
        first_row = next(i for i, line in enumerate(lines) if "rob_1:" in line)
        assert ":" not in lines[first_row + 1], "expected rob_1 to wrap"
        cost, _ = enumerate_optimum(instance, ABSOLUTE)
        assert solve_lp_text(text) == pytest.approx(cost)

    @given(st.integers(0, 400))
    @settings(max_examples=12, deadline=None)
    def test_milp_agrees_with_enumeration(self, seed):
        instance = gen(seed, widths=(2, 2), scenarios=3, caps=(0, 3), density=0.8)
        for variant in (ABSOLUTE, DEVIATION):
            cost, _ = enumerate_optimum(instance, variant)
            assert solve_lp_text(export_lp(instance, variant)) == pytest.approx(cost)
