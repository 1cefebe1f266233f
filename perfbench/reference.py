"""Write a run's instances and their independent reference values.

    python3 perfbench/reference.py SHAPE_JSON SEED COUNT OUT_DIR EXACT

Writes ``i00.rmcif``, ``i01.rmcif``, ... and ``reference.json`` to
OUT_DIR.  The COUNT instances are a stratified sample over the flow
value F, which sets most of a solve's work: `instances.make` draws
``POOL * COUNT`` candidates with Philox keys ``SEED * 1000 + j``, and
every POOL-th of them in order of F is kept, starting at ``SEED % POOL``.
So each run covers the range of F evenly and its figures vary less from
seed to seed than those of COUNT independent draws.

The reference is built from the instance arrays, never from `export_lp`
or anything else in `rmcif`, so a change to the program cannot move it.  Scenario optima, the max-flow and the robust
model's LP-relaxation bound come from `scipy.optimize.linprog` (HiGHS);
with EXACT set to 1, the exact robust optimum comes from
`scipy.optimize.milp`.  It runs in its own process so the benchmark's
process never loads scipy, and its peak memory is the program's.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

import instances
from check import ABSOLUTE, DEVIATION

POOL = 4


def arc_matrix(vertex_count: int, tails, heads) -> np.ndarray:
    """Node-arc incidence matrix: +1 at an arc's tail, -1 at its head."""
    a = np.zeros((vertex_count, len(tails)))
    for i, (t, h) in enumerate(zip(tails, heads)):
        a[t - 1, i] = 1.0
        a[h - 1, i] = -1.0
    return a


def _integral(value: float, what: str) -> int:
    rounded = round(value)
    if abs(value - rounded) > 1e-6:
        raise RuntimeError(f"{what}: non-integral objective {value!r}")
    return int(rounded)


def max_flow(vertex_count: int, tails, heads, caps) -> int:
    """Maximum source-to-sink flow value: the source's net outflow, maximised."""
    a_eq = arc_matrix(vertex_count, tails, heads)
    res = linprog(
        -a_eq[0], A_eq=a_eq[1:-1], b_eq=np.zeros(vertex_count - 2),
        bounds=list(zip([0] * len(caps), caps)), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"max-flow LP failed: {res.message}")
    return _integral(-res.fun, "max-flow LP")


def _balance(inst) -> np.ndarray:
    b = np.zeros(inst.vertex_count)
    b[0] = inst.flow_value
    b[-1] = -inst.flow_value
    return b


def scenario_optima(inst) -> tuple[int, ...]:
    """Minimum cost of a value-F flow under each scenario (network LPs are integral)."""
    a_eq = arc_matrix(inst.vertex_count, inst.tails, inst.heads)
    bounds = list(zip([0] * len(inst.caps), inst.caps))
    out = []
    for k, row in enumerate(inst.costs, 1):
        res = linprog(row, A_eq=a_eq, b_eq=_balance(inst), bounds=bounds, method="highs")
        if res.status != 0:
            raise RuntimeError(f"scenario {k} LP failed: {res.message}")
        out.append(_integral(res.fun, f"scenario {k} LP"))
    return tuple(out)


def _robust_model(inst, variant: str, optima):
    """min y s.t. c_k x - y <= shift_k, conservation, 0 <= x <= cap."""
    m = len(inst.tails)
    a_eq = np.hstack([arc_matrix(inst.vertex_count, inst.tails, inst.heads),
                      np.zeros((inst.vertex_count, 1))])
    a_ub = np.hstack([np.array(inst.costs, dtype=float), -np.ones((len(inst.costs), 1))])
    shift = np.array(optima if variant == DEVIATION else [0] * len(inst.costs), dtype=float)
    objective = np.zeros(m + 1)
    objective[-1] = 1.0
    upper = np.array(list(inst.caps) + [np.inf], dtype=float)
    return objective, a_ub, shift, a_eq, _balance(inst), upper


def lp_bound(inst, variant: str, optima) -> int:
    """Ceiling of the robust model's LP relaxation: no integral flow does better."""
    c, a_ub, b_ub, a_eq, b_eq, upper = _robust_model(inst, variant, optima)
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=list(zip([0.0] * len(upper), upper)), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"robust LP relaxation failed: {res.message}")
    return math.ceil(res.fun - 1e-6)


def milp_optimum(inst, variant: str, optima) -> int:
    """Exact robust optimum of the integer model."""
    c, a_ub, b_ub, a_eq, b_eq, upper = _robust_model(inst, variant, optima)
    integrality = np.ones(len(c))
    integrality[-1] = 0
    res = milp(
        c,
        constraints=[LinearConstraint(a_ub, -np.inf, b_ub), LinearConstraint(a_eq, b_eq, b_eq)],
        bounds=Bounds(np.zeros(len(c)), upper),
        integrality=integrality,
    )
    if res.status != 0:
        raise RuntimeError(f"robust MILP failed: {res.message}")
    return _integral(res.fun, "robust MILP")


def prepare(shape: instances.Shape, seed: int, count: int, out: Path, exact: bool) -> None:
    pool = [instances.make(shape, seed * 1000 + j, max_flow) for j in range(POOL * count)]
    by_flow = sorted(range(len(pool)), key=lambda j: (pool[j].flow_value, j))
    kept = sorted(by_flow[seed % POOL + POOL * i] for i in range(count))
    records = []
    for i, j in enumerate(kept):
        inst = pool[j]
        (out / f"i{i:02d}.rmcif").write_text(instances.to_text(inst))
        optima = scenario_optima(inst)
        record = {
            "vertex_count": inst.vertex_count, "tails": inst.tails, "heads": inst.heads,
            "caps": inst.caps, "costs": inst.costs, "flow_value": inst.flow_value,
            "optima": optima,
            "bounds": {v: lp_bound(inst, v, optima) for v in (ABSOLUTE, DEVIATION)},
            "exact": (
                {v: milp_optimum(inst, v, optima) for v in (ABSOLUTE, DEVIATION)}
                if exact else None
            ),
        }
        records.append(record)
    (out / "reference.json").write_text(json.dumps(records))


if __name__ == "__main__":
    shape_json, seed, count, out, exact = sys.argv[1:]
    shape = json.loads(shape_json)
    shape = instances.Shape(**{k: tuple(v) if isinstance(v, list) else v for k, v in shape.items()})
    prepare(shape, int(seed), int(count), Path(out), exact == "1")
