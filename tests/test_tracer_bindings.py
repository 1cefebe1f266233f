"""The benchmark tracer's bindings must exist and point at one function.

`perfbench/tracing.py` wraps each traced function at every module
attribute its callers look it up through.  A rename or a dropped import
would leave a layer reading 0 or crash a traced run; here it fails the
test suite instead.  The result shapes its outcome hooks read are pinned
too: `cost_reduce(...)[1]` is the optimal flag, and `perturb` returns its
input object when it finds no cycle.  The tracer file is loaded by path
and not modified.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name: str):
    return importlib.import_module(f"rmcif.{name}")


SPANS = _tracing().SPANS


@pytest.mark.parametrize("name", sorted(SPANS))
def test_every_binder_holds_the_home_function(name):
    home, attr, binders = SPANS[name]
    original = getattr(_module(home), attr)
    assert callable(original)
    for binder in binders:
        assert getattr(_module(binder), attr) is original, f"rmcif.{binder}.{attr}"


def test_method_and_counted_hooks_exist():
    assert callable(_module("objectives").Criterion.evaluate)
    assert callable(_module("heuristics").insert_child)


def test_cost_reduce_outcome_reads_the_optimal_flag(diamond):
    # the tracer's cost_reduce hook counts result[1]
    cost_reduce = _module("flow_ops").cost_reduce
    costs = diamond.scenarios.costs[0]
    assert cost_reduce(diamond.network, costs, (1, 0, 1, 0))[1] is True
    assert cost_reduce(diamond.network, costs, (0, 1, 0, 1))[1] is False


def test_perturb_outcome_reads_the_input_object(diamond):
    # the tracer's perturb hook counts `result is args[1]`; at flow value 2
    # every arc is full, so the residual network is acyclic
    full = (1, 1, 1, 1)
    rng = _module("heuristics").make_rng(0)
    assert _module("flow_ops").perturb(diamond.network, full, rng) is full
