"""Every rejected argument raises an `RmcifError`, the package's one base class.

Each case reaches one guard; the message fragment pins which one.
`InvalidParameter` also subclasses `ValueError`, so callers that catch
`ValueError` keep working.
"""
from __future__ import annotations

import pytest

from conftest import DIAMOND_TEXT
from rmcif import (
    ABSOLUTE,
    InvalidParameter,
    Network,
    RmcifError,
    SolutionRecord,
    check_arc_values,
    format_solution,
    parse_instance,
)
from rmcif.bench import check_grid, solve_one
from rmcif.core import Instance
from rmcif.exact import enumerate_optimum
from rmcif.flow_ops import (
    center,
    compose,
    cost_reduce,
    decompose,
    find_flow,
    harmonize,
    min_cost_flow,
    perturb,
    round_flow,
)
from rmcif.generator import GeneratorSpec
from rmcif.heuristics import SearchParams, evolutionary, local_search, make_rng, tournament_select
from rmcif.objectives import make_criterion

ARC = Network(2, (1,), (2,), (1,))
# 1 -> 2 -> 3 and a direct 1 -> 3: the full row (5, 5, 1) finds a cycle at (1, 1, 0)
FORK = Network(3, (1, 2, 1), (2, 3, 3), (2, 2, 1))
FLOW = (1, 0, 1, 0)


def _diamond():
    return parse_instance(DIAMOND_TEXT)


CASES = {
    "network-size": (lambda: Network(1, (), (), ()), "source and a sink"),
    "network-lengths": (lambda: Network(2, (1,), (), ()), "same length"),
    "network-vertex": (lambda: Network(2, (1,), (3,), (1,)), "out of range"),
    "network-self-loop": (lambda: Network(2, (1,), (1,), (1,)), "self-loops"),
    "network-duplicate": (lambda: Network(2, (1, 1), (2, 2), (1, 1)), "duplicate arc 1->2"),
    "network-capacity": (lambda: Network(2, (1,), (2,), (-1,)), "capacity"),
    "scenarios-none": (lambda: Instance(ARC, (), 1), "^at least one scenario is required$"),
    "scenarios-lengths": (
        lambda: Instance(ARC, ((1,), (1, 2)), 1),
        "^scenario 2: length mismatch: expected 1 costs, found 2$",
    ),
    "scenarios-cost": (
        lambda: Instance(ARC, ((-1,),), 1), "^scenario 1: cost must be nonnegative, got -1$"
    ),
    "instance-costs": (
        lambda: Instance(ARC, ((1, 2),), 0),
        "^scenario 1: length mismatch: expected 1 costs, found 2$",
    ),
    "instance-value": (lambda: Instance(ARC, ((1,),), -1), "flow value must be nonnegative"),
    "instance-max-flow": (lambda: Instance(ARC, ((1,),), 2), "maximum flow"),
    # every value of the model is judged by `check_arc`, `check_costs` or
    # `check_integer`, which take integers of any type and nothing else
    "network-bool-capacity": (
        lambda: Network(3, (1, 2), (2, 3), (True, 1)),
        "arc 1: capacity must be an integer, got True",
    ),
    "network-float-tail": (
        lambda: Network(2, (1.0,), (2,), (1,)), "arc 1: tail must be an integer, got 1.0"
    ),
    "network-none-tail": (
        lambda: Network(3, (1, None), (2, 3), (1, 1)), "arc 2: tail must be an integer, got None"
    ),
    "network-string-size": (
        lambda: Network("3", (1,), (2,), (1,)), "vertex count must be an integer, got '3'"
    ),
    "scenarios-bool-cost": (
        lambda: Instance(ARC, ((True,),), 1), "^scenario 1: cost must be an integer, got True$"
    ),
    "scenarios-not-rows": (
        lambda: Instance(ARC, 5, 1), "^costs must be rows of integers, got 5$"
    ),
    "scenarios-row": (
        lambda: Instance(ARC, ((1,), 5), 1),
        "^scenario 2: costs must be a sequence of integers, got 5$",
    ),
    # a container of the wrong kind names its field
    "network-int-tails": (
        lambda: Network(3, 5, (2,), (1,)), "tails must be a sequence of integers, got 5"
    ),
    "network-none-capacities": (
        lambda: Network(2, (1,), (2,), None), "capacities must be a sequence of integers, got None"
    ),
    "instance-network-int": (lambda: Instance(5, ((1,),), 1), "network must be a Network, got 5"),
    "spec-widths-int": (
        lambda: GeneratorSpec(5, 2), "layer widths must be a sequence of integers, got 5"
    ),
    "instance-bool-value": (
        lambda: Instance(ARC, ((1,),), True), "flow value must be an integer, got True"
    ),
    # the flow value and count the toolbox takes are judged by `check_integer`
    "find-flow-float-value": (
        lambda: find_flow(FORK, 1.5), "^flow value must be an integer, got 1.5$"
    ),
    "find-flow-negative-value": (
        lambda: find_flow(FORK, -1), "^flow value must be nonnegative, got -1$"
    ),
    "min-cost-flow-negative-value": (
        lambda: min_cost_flow(FORK, (1, 1, 1), -1), "^flow value must be nonnegative, got -1$"
    ),
    "round-flow-zero-count": (
        lambda: round_flow(FORK, (2, 2, 0), 0), "^count must be positive, got 0$"
    ),
    "round-flow-negative-count": (
        lambda: round_flow(FORK, (2, 2, 0), -1), "^count must be positive, got -1$"
    ),
    "arc-values": (lambda: check_arc_values(ARC, (1, 1)), "arc count"),
    "solution-variant": (
        lambda: format_solution(SolutionRecord("worst", "ls1", 4, FLOW, 0), _diamond()),
        "unknown variant tag",
    ),
    "solution-solver": (
        lambda: format_solution(SolutionRecord(ABSOLUTE, "lp", 4, FLOW, 0), _diamond()),
        "unknown solver tag",
    ),
    "center-empty": (lambda: center(ARC, []), "empty list"),
    "center-values": (lambda: center(ARC, [(0,), (1,)]), "same value"),
    "compose-lengths": (lambda: compose(ARC, [], [], make_rng(0)), "equal positive length"),
    "min-cost-flow-costs": (
        lambda: min_cost_flow(ARC, (-1,), 1), "cost must be nonnegative, got -1"
    ),
    # a row or flow of the wrong length is judged as `check_costs` judges a
    # scenario, not cut short by a zip or met by an IndexError
    "min-cost-flow-short-row": (
        lambda: min_cost_flow(FORK, (1, 1), 1), "length mismatch: expected 3 costs, found 2"
    ),
    "min-cost-flow-long-row": (
        lambda: min_cost_flow(FORK, (1, 1, 1, 1), 1), "length mismatch: expected 3 costs, found 4"
    ),
    "cost-reduce-short-row": (
        lambda: cost_reduce(FORK, (5,), (1, 1, 0)), "length mismatch: expected 3 costs, found 1"
    ),
    "cost-reduce-short-flow": (
        lambda: cost_reduce(FORK, (5, 5, 1), (1, 1)),
        "length mismatch: expected 3 flow values, found 2",
    ),
    "center-long-flow": (
        lambda: center(FORK, [(1, 1, 0), (1, 1, 0, 5)]),
        "^length mismatch: expected 3 flow values, found 4$",
    ),
    "round-flow-short-totals": (
        lambda: round_flow(FORK, (2, 2), 2), "^length mismatch: expected 3 totals, found 2$"
    ),
    "decompose-short-flow": (
        lambda: decompose(FORK, (1, 1)), "^length mismatch: expected 3 flow values, found 2$"
    ),
    "perturb-short-flow": (
        lambda: perturb(FORK, (1, 1), make_rng(0)),
        "^length mismatch: expected 3 flow values, found 2$",
    ),
    "harmonize-short-target": (
        lambda: harmonize(FORK, (1, 1, 0), (0, 0), make_rng(0)),
        "^length mismatch: expected 3 target values, found 2$",
    ),
    "tournament-mode": (
        lambda: tournament_select([(FLOW, 4)] * 3, "median", 2, make_rng(0)),
        "unknown tournament mode",
    ),
    "criterion-variant": (lambda: make_criterion(_diamond(), "worst"), "unknown variant"),
    "local-search-solver": (
        lambda: local_search(_diamond(), ABSOLUTE, "ec1"),
        "unknown local-search solver",
    ),
    "evolutionary-solver": (
        lambda: evolutionary(_diamond(), ABSOLUTE, "ls1"),
        "unknown evolutionary solver",
    ),
    # every integer parameter is judged by `core.check_integer`, which
    # takes integers of any type and nothing else
    "solve-one-seed": (
        lambda: solve_one(_diamond(), ABSOLUTE, "ec1", seed=1.5),
        "seed must be an integer, got 1.5",
    ),
    "solve-one-bool-seed": (
        lambda: solve_one(_diamond(), ABSOLUTE, "ls1", seed=True),
        "seed must be an integer, got True",
    ),
    "make-rng-seed": (lambda: make_rng(1.5), "seed must be an integer, got 1.5"),
    "local-search-seed": (
        lambda: local_search(_diamond(), ABSOLUTE, "ls1", seed=1.5),
        "seed must be an integer, got 1.5",
    ),
    "evolutionary-seed": (
        lambda: evolutionary(_diamond(), ABSOLUTE, "ec1", seed=1.5),
        "seed must be an integer, got 1.5",
    ),
    "check-grid-seed": (
        lambda: check_grid((ABSOLUTE,), ("ls1",), (0, 1.5)),
        "seed must be an integer, got 1.5",
    ),
    "solve-one-budget": (
        lambda: solve_one(_diamond(), ABSOLUTE, "exact", exact_budget=2.5),
        "node budget must be an integer, got 2.5",
    ),
    "enumerate-budget": (
        lambda: enumerate_optimum(_diamond(), ABSOLUTE, 2.5),
        "node budget must be an integer, got 2.5",
    ),
    "params-tournament-size": (
        lambda: SearchParams(tournament_size=2.5),
        "tournament_size must be an integer, got 2.5",
    ),
    "params-iteration-limit": (
        lambda: SearchParams(iteration_limit=2.5),
        "iteration_limit must be an integer, got 2.5",
    ),
    "params-population-size": (
        lambda: SearchParams(population_size="30"),
        "population_size must be an integer, got '30'",
    ),
    "spec-widths": (
        lambda: GeneratorSpec((2.5, 2), 2),
        "layer widths must be an integer, got 2.5",
    ),
    "spec-scenario-count": (
        lambda: GeneratorSpec((2, 2), 2.0),
        "scenario count must be an integer, got 2.0",
    ),
    "spec-seed": (lambda: GeneratorSpec((2, 2), 2, seed=1.5), "seed must be an integer, got 1.5"),
    "spec-capacity-range": (
        lambda: GeneratorSpec((2, 2), 2, capacity_range=(0, 1.5)),
        "capacity_range upper end must be an integer, got 1.5",
    ),
    "spec-capacity-range-int": (
        lambda: GeneratorSpec((2, 2), 2, capacity_range=5),
        "capacity_range must be a pair of integers",
    ),
    "spec-capacity-range-triple": (
        lambda: GeneratorSpec((2, 2), 2, capacity_range=(1, 2, 3)),
        "capacity_range must be a pair of integers",
    ),
    "spec-density": (
        lambda: GeneratorSpec((2, 2), 2, density="x"), r"density must lie in \(0, 1\], got 'x'"
    ),
    "spec-flow-fraction": (
        lambda: GeneratorSpec((2, 2), 2, flow_fraction=None),
        r"flow fraction must lie in \[0, 1\], got None",
    ),
    # `params` is a `SearchParams` or None; a dict, number or string is not
    "params-dict": (
        lambda: local_search(_diamond(), ABSOLUTE, "ls1", params={"neighborhood_size": 3}),
        r"params must be a SearchParams or None, got \{'neighborhood_size': 3\}",
    ),
    "params-number": (
        lambda: evolutionary(_diamond(), ABSOLUTE, "ec1", params=5),
        "params must be a SearchParams or None, got 5",
    ),
    "params-string": (
        lambda: solve_one(_diamond(), ABSOLUTE, "ls1", params="x"),
        "params must be a SearchParams or None, got 'x'",
    ),
    "params-string-exact": (
        lambda: solve_one(_diamond(), ABSOLUTE, "exact", params="x"),
        "params must be a SearchParams or None, got 'x'",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_argument_raises_an_rmcif_error(case):
    call, message = CASES[case]
    with pytest.raises(RmcifError, match=message) as err:
        call()
    assert isinstance(err.value, InvalidParameter) and isinstance(err.value, ValueError)
