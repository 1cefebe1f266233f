"""Robust objective evaluation for both problem variants.

The absolute objective of a flow is its worst cost over the scenarios.
The deviation objective is its worst regret: the gap between its cost
under a scenario and the best cost any feasible flow of the required
value achieves under that same scenario.  Scenario optima are therefore
shared, cacheable inputs; `compute_optima` keeps them on the instance,
together with each optimal flow's scenario cost vector.

A flow is a plain tuple of arc values in arc declaration order.  Both
objectives are a maximum over the per-scenario cost vector that
`scenario_costs` returns, less the criterion's `shift`: zero for every
scenario, or the scenario optima.  `make_criterion` picks the shift, and
nothing downstream branches on the variant again.  `Criterion.evaluate`
scores a vector its caller already holds: the descent carries one along
each cancelled cycle, the evolutionary loop through every crossover and
mutation, and a flow that is built afresh is costed once by
`scenario_costs`, which validates it.
"""
from __future__ import annotations

from operator import mul, sub
from typing import NamedTuple

from .core import (
    ABSOLUTE,
    DEVIATION,
    Instance,
    InvalidParameter,
    Record,
    require_feasible,
    validate_flow,  # unused here, but the benchmark's tracer binds it in this module
)
from .flow_ops import min_cost_flow


class ScenarioOptima(NamedTuple):
    """Per-scenario minimum costs, one optimal flow witnessing each, and
    the `scenario_costs` of each such flow, so ``costs[s] == vectors[s][s]``."""

    costs: tuple[int, ...]
    flows: tuple[tuple[int, ...], ...]
    vectors: tuple[tuple[int, ...], ...]


def compute_optima(instance: Instance) -> ScenarioOptima:
    """Minimum-cost flow of value F under each scenario separately.

    The result is kept on the instance object, the way `Network` keeps its
    cached properties, so it lives exactly as long as the instance: a long
    session holds no optima for instances it has dropped, and two equal
    but separately built instances compute their own.  Each optimal flow
    is costed by `scenario_costs`, so it is validated once, here.
    """
    # `Instance` is frozen; like `cached_property`, write its `__dict__` directly
    cache = vars(instance)
    optima = cache.get("scenario_optima")
    if optima is None:
        rows = instance.costs
        flows = tuple(min_cost_flow(instance.network, row, instance.flow_value) for row in rows)
        vectors = tuple(scenario_costs(instance, flow) for flow in flows)
        costs = tuple(vector[s] for s, vector in enumerate(vectors))
        optima = cache["scenario_optima"] = ScenarioOptima(costs, flows, vectors)
    return optima


def scenario_costs(instance: Instance, flow) -> tuple[int, ...]:
    """Costs of a feasible flow of the required value, one per scenario.

    Raises like `validate_flow`, or `WrongFlowValue`.
    """
    require_feasible(instance, flow)
    return tuple(sum(map(mul, row, flow)) for row in instance.costs)


class Criterion(Record):
    """Callable robust objective with an evaluation counter.

    Heuristics rank candidate flows through one of these; the counter
    supports search-effort accounting in experiments.  Every call counts
    once.  The robust cost is the largest of the scenario costs, each less
    its `shift` entry.
    """

    _fields = ("shift", "evaluations")

    def __init__(self, shift: tuple[int, ...], evaluations: int = 0):
        self.shift = shift
        self.evaluations = evaluations

    def evaluate(self, flow, costs: tuple[int, ...]) -> int:
        """Robust cost of `flow`, whose `scenario_costs` are `costs`.

        Only `costs` is read: the flow is neither validated nor summed
        here, and is passed so that a wrapper can check the two agree.
        """
        self.evaluations += 1
        return max(map(sub, costs, self.shift))


def make_criterion(instance: Instance, variant: str) -> Criterion:
    """Build the objective for a variant, computing scenario optima if needed.

    The absolute variant shifts every scenario cost by zero, the deviation
    variant by that scenario's optimum.
    """
    if variant == ABSOLUTE:
        return Criterion((0,) * len(instance.costs))
    if variant == DEVIATION:
        return Criterion(compute_optima(instance).costs)
    raise InvalidParameter(f"unknown variant {variant!r}")
