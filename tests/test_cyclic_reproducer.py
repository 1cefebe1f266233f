"""The crossover solvers on a cyclic network whose flows carry circulations.

`data/cyc.rmcif` has arcs both ways between most vertex pairs.  ec7's
perturb mutation pushes flow around residual cycles, so its members can
carry a circulation that no unit path covers; `decompose` returns only
the flow's path part, and the crossover must still produce a feasible
flow of value F.  Every result must also be scored truthfully and never
beat the enumerator's optimum.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from rmcif import ABSOLUTE, VARIANTS, enumerate_optimum, parse_instance, solve_one, validate_flow
from rmcif.cli import main
from rmcif.objectives import make_criterion, scenario_costs

CYC = Path(__file__).parent / "data" / "cyc.rmcif"


@pytest.fixture(scope="module")
def cyc():
    return parse_instance(CYC.read_text())


@pytest.fixture(scope="module")
def optima(cyc):
    return {variant: enumerate_optimum(cyc, variant)[0] for variant in VARIANTS}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("solver", ["ec7", "ec8", "ec9"])
@pytest.mark.parametrize("seed", range(4))
def test_crossover_result_is_feasible_and_truthful(cyc, optima, variant, solver, seed):
    record = solve_one(cyc, variant, solver, seed)
    assert validate_flow(cyc, record.values) == cyc.flow_value
    fresh = scenario_costs(cyc, record.values)
    assert record.robust_cost == make_criterion(cyc, variant).evaluate(record.values, fresh)
    assert record.robust_cost >= optima[variant]


@pytest.mark.parametrize("seed", range(4))
def test_cli_ec7_reaches_the_absolute_optimum(capsys, optima, seed):
    argv = ["solve", "--instance", str(CYC), "--variant", ABSOLUTE, "--solver", "ec7",
            "--seed", str(seed)]
    assert main(argv) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == f"o {ABSOLUTE} ec7 {optima[ABSOLUTE]} {seed}"
