"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test announces `[criterion NN] PASS` or `FAIL` on the real stdout
(straight through pytest's capture), so a plain `pytest -v` run shows the
full checklist.  Stated runtime budgets are asserted, not just hoped for.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from conftest import gen, unit_flow, unit_vertices
from oracles import (
    augment_once,
    brute_min_cost,
    eval_absolute,
    eval_deviation,
    robust_path_optimum,
    solve_lp_text,
    sum_flows,
)
from rmcif import (
    ABSOLUTE,
    DEVIATION,
    EC_SOLVERS,
    HEURISTIC_SOLVERS,
    LS_SOLVERS,
    GenerationError,
    GeneratorSpec,
    SearchParams,
    center,
    compose,
    compute_optima,
    cost_reduce,
    decompose,
    enumerate_optimum,
    evolutionary,
    export_lp,
    find_flow,
    flow_value_of,
    format_solution,
    generate,
    harmonize,
    local_search,
    make_rng,
    min_cost_flow,
    perturb,
    round_flow,
    run_bench,
    solve_one,
    validate_flow,
    write_instance,
)

VARIANTS = (ABSOLUTE, DEVIATION)

SMALL = SearchParams(population_size=4, generation_limit=10, no_improvement_limit=5)


@pytest.fixture()
def announce(capsys):
    @contextmanager
    def factory(number):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\n[criterion {number:02d}] FAIL", flush=True)
            raise
        else:
            with capsys.disabled():
                print(f"\n[criterion {number:02d}] PASS", flush=True)

    return factory


def collect_instances(count, start_seed=0, **kwargs):
    """First `count` generator draws that admit the requested flow value."""
    instances = []
    seed = start_seed
    while len(instances) < count:
        try:
            instances.append(gen(seed, **kwargs))
        except GenerationError:
            pass
        seed += 1
    return instances


def run_heuristic(instance, variant, solver, seed=0, params=SMALL):
    runner = local_search if solver in LS_SOLVERS else evolutionary
    return runner(instance, variant, solver, params=params, seed=seed)


def test_criterion_01_scope_of_evidence(announce):
    """Published result tables rest on unpublished random instances, so the
    suite certifies oracle equivalence, invariants, and the qualitative
    trend instead of number-for-number reproduction.  This meta-criterion
    checks that every concrete criterion below is actually present."""
    with announce(1):
        present = {
            int(name.split("_")[2])
            for name in globals()
            if name.startswith("test_criterion_")
        }
        assert present == set(range(1, 13))


def test_criterion_02_diamond_fixture(diamond, announce):
    with announce(2):
        start = time.monotonic()
        expected = {ABSOLUTE: 4, DEVIATION: 2}
        for variant, optimum in expected.items():
            cost, witness = enumerate_optimum(diamond, variant)
            assert cost == optimum
            assert validate_flow(diamond, witness) == 1
        for variant, optimum in expected.items():
            for solver in HEURISTIC_SOLVERS:
                for seed in range(10):
                    record = run_heuristic(diamond, variant, solver, seed)
                    assert record.robust_cost == optimum, (variant, solver, seed)
        assert time.monotonic() - start < 1.0


def test_criterion_03_two_oracle_agreement(announce):
    with announce(3):
        start = time.monotonic()
        checked = 0
        seed = 0
        while checked < 100:
            scenarios = 1 + checked % 4
            try:
                instance = gen(
                    seed,
                    widths=(3, 3),
                    scenarios=scenarios,
                    caps=(0, 3),
                    density=0.6,
                    flow_value=1,
                )
            except GenerationError:
                seed += 1
                continue
            assert instance.network.vertex_count <= 8
            for variant in VARIANTS:
                cost, _ = enumerate_optimum(instance, variant)
                assert cost == robust_path_optimum(instance, variant), (seed, variant)
            checked += 1
            seed += 1
        assert time.monotonic() - start < 30.0


def test_criterion_04_min_cost_oracle_agreement(announce):
    with announce(4):
        start = time.monotonic()
        for instance in collect_instances(
            100, widths=(2, 2), scenarios=3, caps=(0, 3), density=0.8
        ):
            assert instance.network.vertex_count <= 10
            for s, row in enumerate(instance.scenarios.costs):
                flow = min_cost_flow(instance.network, row, instance.flow_value)
                cost = sum(c * v for c, v in zip(row, flow))
                assert cost == brute_min_cost(instance, s)
        assert time.monotonic() - start < 60.0


def test_criterion_05_decomposition_roundtrip(announce):
    with announce(5):
        start = time.monotonic()
        checked = 0
        for instance in collect_instances(
            50, widths=(3, 3), scenarios=1, caps=(1, 3), density=0.8, flow_fraction=1.0
        ):
            network = instance.network
            rng = make_rng(instance.flow_value * 1000 + network.arc_count)
            flow = find_flow(network, instance.flow_value)
            for _ in range(20):
                flow = perturb(network, flow, rng)
                pieces = decompose(network, flow)
                assert len(pieces) == instance.flow_value
                units = [unit_flow(network, piece) for piece in pieces]
                for piece, unit in zip(pieces, units):
                    assert validate_flow(instance, unit) == 1
                    assert flow_value_of(network, unit) == 1
                    vertices = unit_vertices(network, piece)
                    assert all(network.tails[i] == v for i, v in zip(piece, vertices))
                    assert vertices[0] == network.source
                    assert vertices[-1] == network.sink
                    assert len(set(vertices)) == len(vertices)
                if pieces:
                    assert sum_flows(network, units) == flow
                checked += 1
        assert checked >= 1000
        assert time.monotonic() - start < 30.0


def test_criterion_06_feasibility_closure(announce):
    with announce(6):
        applications = 0
        instances = collect_instances(
            12, widths=(2, 2), scenarios=2, caps=(1, 3), density=0.9
        )
        rng = make_rng(99)
        while applications < 10_000:
            for instance in instances:
                network = instance.network
                value = instance.flow_value
                a = find_flow(network, value)
                b = a
                for _ in range(30):
                    roll = applications % 6
                    if roll == 0:
                        grown = augment_once(network, a)
                        if grown is not None:
                            assert validate_flow(instance, grown) > value
                    elif roll == 1:
                        a = perturb(network, a, rng)
                        assert validate_flow(instance, a) == value
                    elif roll == 2:
                        a = harmonize(network, a, b, rng)
                        assert validate_flow(instance, a) == value
                    elif roll == 3:
                        s = applications % instance.scenarios.scenario_count
                        a, _, _ = cost_reduce(network, instance.scenarios.costs[s], a)
                        assert validate_flow(instance, a) == value
                    elif roll == 4:
                        rounded = round_flow(network, *center(network, [a, b]))
                        assert validate_flow(instance, rounded) == value
                        b = rounded
                    else:
                        if value >= 1:
                            composed = compose(
                                network, decompose(network, a), decompose(network, b), rng
                            )
                            assert validate_flow(instance, composed) == value
                            b = composed
                    applications += 1
        assert applications >= 10_000


def test_criterion_07_framework_invariants(announce):
    with announce(7):
        instances = collect_instances(
            50, widths=(3, 3), scenarios=3, caps=(1, 3), density=0.8
        )
        for k, instance in enumerate(instances):
            for variant in VARIANTS:
                descent: list[int] = []
                local_search(
                    instance,
                    variant,
                    ("ls1", "ls2", "ls3")[k % 3],
                    seed=k,
                    trace=lambda flow, cost: descent.append(cost),
                )
                assert all(b < a for a, b in zip(descent, descent[1:])), (k, variant)

                bests: list[int] = []
                evolutionary(
                    instance,
                    variant,
                    EC_SOLVERS[k % 9],
                    params=SearchParams(population_size=5, generation_limit=12),
                    seed=k,
                    trace=lambda gen_, best: bests.append(best),
                )
                assert all(b <= a for a, b in zip(bests, bests[1:])), (k, variant)


def test_criterion_08_lower_bounds(announce):
    with announce(8):
        instances = collect_instances(
            10, widths=(2, 2), scenarios=3, caps=(1, 3), density=0.9
        )
        for k, instance in enumerate(instances):
            optima = compute_optima(instance)
            exact = {v: enumerate_optimum(instance, v)[0] for v in VARIANTS}
            assert exact[ABSOLUTE] >= max(optima.costs)
            assert exact[DEVIATION] >= 0
            for variant in VARIANTS:
                for solver in HEURISTIC_SOLVERS:
                    record = run_heuristic(instance, variant, solver, seed=k)
                    assert record.robust_cost >= exact[variant], (k, variant, solver)
                    flow = record.values
                    assert eval_absolute(instance, flow) >= max(optima.costs)
                    assert eval_deviation(instance, flow, optima) >= 0


def test_criterion_09_accuracy_speed_tradeoff(tmp_path, announce):
    with announce(9):
        start = time.monotonic()
        directory = tmp_path / "trend"
        directory.mkdir()
        count = 0
        seed = 0
        while count < 24:
            try:
                instance = gen(
                    seed, widths=(3, 3), scenarios=3, caps=(1, 3), density=0.8
                )
            except GenerationError:
                seed += 1
                continue
            assert instance.network.vertex_count <= 12
            (directory / f"t{count:02d}.rmcif").write_text(write_instance(instance))
            count += 1
            seed += 1

        report = run_bench(
            directory,
            variants=VARIANTS,
            solvers=("ls1", "ec9"),
            seeds=(0,),
            params=SearchParams(),
        )
        assert not any("exact solve failed" in w for w in report.warnings)
        stats = {(s.variant, s.solver): s for s in report.summaries}
        for variant in VARIANTS:
            ls, ec = stats[(variant, "ls1")], stats[(variant, "ec9")]
            assert ls.runs == ec.runs == 24
            assert ec.mean_error_pct <= ls.mean_error_pct, variant
            assert ls.mean_seconds <= ec.mean_seconds, variant
        assert time.monotonic() - start < 600.0


def test_criterion_10_deterministic_solutions(announce):
    with announce(10):
        instances = collect_instances(
            2, widths=(2, 2), scenarios=2, caps=(1, 3), density=0.9
        )
        for instance in instances:
            for variant in VARIANTS:
                for solver in ("ls1", "ls4", "ec1", "ec9", "exact"):
                    for seed in (0, 7):
                        first = format_solution(
                            solve_one(instance, variant, solver, seed, SMALL), instance
                        )
                        second = format_solution(
                            solve_one(instance, variant, solver, seed, SMALL), instance
                        )
                        assert first.encode() == second.encode(), (variant, solver, seed)


def test_criterion_11_generator_shapes(announce):
    with announce(11):
        start = time.monotonic()
        wide = generate(GeneratorSpec(layer_widths=(8, 8), scenario_count=2, density=1.0))
        assert wide.network.vertex_count == 18
        assert wide.network.arc_count == 80
        deep = generate(GeneratorSpec(layer_widths=(2,) * 8, scenario_count=2, density=1.0))
        assert deep.network.vertex_count == 18
        assert deep.network.arc_count == 32
        assert time.monotonic() - start < 1.0


def test_criterion_12_lp_export_sanity(diamond, announce):
    with announce(12):
        text = export_lp(diamond, ABSOLUTE)
        lines = text.splitlines()
        names = set()
        for line in lines:
            for token in line.split():
                if token.startswith("x_") or token == "y":
                    names.add(token)
        assert len(names) == 5
        assert sum(1 for line in lines if line.lstrip().startswith("rob_")) == 2
        assert sum(1 for line in lines if line.lstrip().startswith("cons_")) == 4

        for k, instance in enumerate(
            collect_instances(10, widths=(2, 2), scenarios=2, caps=(0, 3), density=0.8)
        ):
            for variant in VARIANTS:
                cost, _ = enumerate_optimum(instance, variant)
                assert solve_lp_text(export_lp(instance, variant)) == pytest.approx(
                    cost
                ), (k, variant)


def test_verdict_lines_cover_every_criterion():
    """The announced checklist and the test list must stay in lockstep."""
    numbers = sorted(
        int(name.split("_")[2])
        for name in globals()
        if name.startswith("test_criterion_")
    )
    assert numbers == list(range(1, 13))
