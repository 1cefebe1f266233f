"""Robust minimum-cost integer flow: solvers, generator, and harness.

The problem: send a required integer amount from source to sink at
minimum cost when the arc costs are uncertain, given as a finite set of
scenarios.  Two robust objectives are supported: the worst-case cost over
the scenarios (absolute, min-max) and the worst-case regret against each
scenario's own optimum (deviation, min-max regret).
"""
from .bench import (
    BenchReport,
    SolverSummary,
    run_bench,
    solve_one,
    summary_table,
)
from .core import (
    ABSOLUTE,
    ALL_SOLVERS,
    DEVIATION,
    EC_SOLVERS,
    HEURISTIC_SOLVERS,
    LS_SOLVERS,
    VARIANTS,
    CapacityViolation,
    ConservationViolation,
    Instance,
    InstanceFormatError,
    InvalidParameter,
    Network,
    RmcifError,
    SolutionRecord,
    WrongFlowValue,
    check_arc_values,
    flow_value_of,
    format_solution,
    parse_instance,
    validate_flow,
    write_instance,
)
from .exact import BudgetExceeded, enumerate_optimum, export_lp
from .flow_ops import (
    TargetUnreachable,
    center,
    compose,
    cost_reduce,
    decompose,
    find_flow,
    harmonize,
    max_flow_value,
    min_cost_flow,
    perturb,
    round_flow,
)
from .generator import GenerationError, GeneratorSpec, generate
from .heuristics import SearchParams, evolutionary, local_search, make_rng
from .objectives import (
    ScenarioOptima,
    compute_optima,
    make_criterion,
)

__version__ = "0.1.0"

__all__ = [
    "ABSOLUTE",
    "ALL_SOLVERS",
    "DEVIATION",
    "EC_SOLVERS",
    "HEURISTIC_SOLVERS",
    "LS_SOLVERS",
    "VARIANTS",
    "BenchReport",
    "BudgetExceeded",
    "CapacityViolation",
    "ConservationViolation",
    "GenerationError",
    "GeneratorSpec",
    "Instance",
    "InstanceFormatError",
    "InvalidParameter",
    "Network",
    "RmcifError",
    "ScenarioOptima",
    "SearchParams",
    "SolutionRecord",
    "SolverSummary",
    "TargetUnreachable",
    "WrongFlowValue",
    "center",
    "compose",
    "compute_optima",
    "cost_reduce",
    "decompose",
    "enumerate_optimum",
    "evolutionary",
    "export_lp",
    "find_flow",
    "check_arc_values",
    "flow_value_of",
    "format_solution",
    "generate",
    "harmonize",
    "local_search",
    "make_criterion",
    "make_rng",
    "max_flow_value",
    "min_cost_flow",
    "parse_instance",
    "perturb",
    "round_flow",
    "run_bench",
    "solve_one",
    "summary_table",
    "validate_flow",
    "write_instance",
    "__version__",
]
