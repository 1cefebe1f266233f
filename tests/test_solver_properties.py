"""Every heuristic on random cyclic networks is feasible, truthful and bounded.

Each of the thirteen heuristics runs in both variants on networks with
arcs both ways and zero-capacity arcs, with F drawn as 0, a random value
or the maximum flow value.  Every result must be a feasible flow of value
F, its reported cost must equal an independent evaluation, and it must
never beat the enumerator's optimum where the enumerator proves one.
Cyclic flows carry circulations, which `decompose` leaves out, so this
also runs the crossovers' unit-path cache where it differs most from a
fresh flow.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cyclic_instances
from rmcif import (
    ABSOLUTE,
    HEURISTIC_SOLVERS,
    VARIANTS,
    BudgetExceeded,
    SearchParams,
    compute_optima,
    enumerate_optimum,
    solve_one,
    validate_flow,
)

PARAMS = SearchParams(generation_limit=20)


def fresh_cost(instance, variant, flow):
    if variant == ABSOLUTE:
        return oracles.eval_absolute(instance, flow)
    return oracles.eval_deviation(instance, flow, compute_optima(instance))


def proven_optimum(instance, variant):
    """The enumerator's optimum, or None when it runs out of budget."""
    try:
        return enumerate_optimum(instance, variant, node_budget=200_000)[0]
    except BudgetExceeded:
        return None


@given(cyclic_instances(), st.integers(0, 1_000))
@settings(max_examples=30)
def test_every_heuristic_is_feasible_truthful_and_bounded(instance, seed):
    for variant in VARIANTS:
        floor = proven_optimum(instance, variant)
        for solver in HEURISTIC_SOLVERS:
            record = solve_one(instance, variant, solver, seed, PARAMS)
            assert validate_flow(instance, record.values) == instance.flow_value, solver
            assert record.robust_cost == fresh_cost(instance, variant, record.values), solver
            assert floor is None or record.robust_cost >= floor, solver
