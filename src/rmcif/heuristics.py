"""Local-search and evolutionary solvers for both robust variants.

Four local searches (ls1..ls4) share one strictly-improving best-neighbor
descent and differ only in their starting flows.  Nine evolutionary
solvers (ec1..ec9) share one steady-state loop and differ in the crossover
(flow centering and rounding, harmonization, or decomposition followed by
composition) paired with the mutation (perturbation, single-scenario cost
reduction, or a capped inner local search).

Every flow a solver holds comes with its per-scenario cost vector, and
gets it in one of two ways.  A constructed flow (ls1's arbitrary flow,
ls3's rounded center, and the scenario optima in `compute_optima`) is
costed once by `scenario_costs`, which validates it.  A derived flow's
vector is advanced from the vector of the flow it came from by one
function, `_advance`, over a list of ``(arc index, signed change)``
pairs.  A descent's neighbor (`_neighborhood`) and a cost-reduced mutant
advance over the cycle that `cost_reduce` cancelled and hands back, a
few arcs, without comparing the two flows.  A crossover child (rounded
center, harmonized or composed flow) advances from its first parent, and
a perturbed mutant from its source member, over the arcs where the two
flows differ (`_changes`).  The descent takes its start's vector and
yields each accepted move with its vector, so the members that the fill
takes from it carry theirs too.  The crossovers, mutations and cycle
cancellations build feasible flows of value F by construction, so no
derived flow is validated; before a solver returns, the fresh scenario
costs of its flow must equal the whole vector carried with it, from
which its robust cost was scored.

The carried vector also says when a flow is optimal for a scenario: its
cost there equals the scenario optimum, which holds exactly when no
negative residual cycle is left under that scenario's costs (Ahuja,
Magnanti & Orlin, *Network Flows*, 1993, Thm 9.1).  A neighborhood's
chain for scenario s ends when its carried cost for s reaches the
optimum, and the cost-reduce mutation (ec2, ec5, ec8) returns a member
already optimal for its drawn scenario as it is, so `cost_reduce` is
only called where it finds a cycle.  `local_search` (ls1 included) and
`evolutionary` fetch the optima once per call and pass them down.
`insert_child` writes the child's slot in place.  The loop tracks its
best member, and scans for it again only when a child costs no more.

One `evolutionary` run remembers two results of pure functions, so
neither changes a flow, an RNG draw or an evaluation count.  Each
parent's unit paths (`decompose`) are kept in a dict keyed by its flow;
once the dict holds as many entries as the population, the flows that
have left the population are dropped before another is added, so it
never outgrows the population.  The capped descents that fill the
initial population share one dict from a flow to its `_neighborhood`
list, because they mostly restart from copies of the same scenario
optima.  Each accepted move of such a descent fills a population slot,
so a descent stops once it has as many moves as there are free slots;
each entry then either follows an accepted move or ends a descent, the
dict holds at most 2 × `population_size` neighborhoods, and it is
dropped once the population is full.  The mutations of the generation
loop and `local_search` build every neighborhood afresh.

The loop's frequent draws are cheap ones: a tournament draws its sample
from one ``rng.random(size)`` call (Floyd's algorithm) and maps the
positions past the excluded index without building a candidate list,
and the per-generation mutation coin is one ``rng.random()``.
`insert_child` compares cost gaps with one integer band per call.

Every solver is deterministic for a fixed (instance, variant, parameters,
seed): randomness comes from one counter-based generator created from the
seed, and every tie is broken by position.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, fields
from itertools import compress, islice
from operator import gt, lt, ne
from typing import TYPE_CHECKING

from .core import EC_SOLVERS, LS_SOLVERS, Instance, InvalidParameter, SolutionRecord, check_integer
from .flow_ops import (
    center,
    compose,
    cost_reduce,
    decompose,
    find_flow,
    harmonize,
    perturb,
    round_flow,
)
from .objectives import Criterion, compute_optima, make_criterion, scenario_costs

if TYPE_CHECKING:
    from numpy.random import Generator

# Iteration ceiling for local search used as a mutation operator.
MUTATION_SEARCH_CAP = 50


@dataclass(frozen=True)
class SearchParams:
    """Tunable knobs shared by all heuristic solvers.

    `None` for a limit whose default is None means unbounded.  Thresholds
    are percentages.
    """

    neighborhood_size: int = 30
    iteration_limit: int | None = None
    population_size: int = 30
    generation_limit: int | None = None
    no_improvement_limit: int = 300
    similarity_threshold: int = 5
    mutation_threshold: int = 1
    tournament_size: int = 3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:  # a limit that may be unbounded
                continue
            high = 100 if f.name.endswith("_threshold") else None
            # frozen: write the field the way the generated __init__ does
            object.__setattr__(self, f.name, check_integer(value, f.name, 0 if high else 1, high))


def check_params(params) -> SearchParams:
    """`params` itself, or the defaults for None; any other value that is
    not a `SearchParams` raises `InvalidParameter`."""
    if params is None:
        return SearchParams()
    if not isinstance(params, SearchParams):
        raise InvalidParameter(f"params must be a SearchParams or None, got {params!r}")
    return params


def make_rng(seed: int) -> Generator:
    """Counter-based generator; the same seed reproduces the same stream anywhere.

    numpy is imported here, on the first call, and nowhere else in the
    package: ls1..ls4, `exact`, `export_lp` and the parser never draw, so
    ``import rmcif`` and those paths run without loading it.  The seed is
    judged before the import, and the stream does not depend on when
    numpy was loaded.
    """
    seed = check_integer(seed, "seed")
    from numpy.random import Generator, Philox

    return Generator(Philox(seed))


def _changes(old: tuple[int, ...], new: tuple[int, ...]) -> list[tuple[int, int]]:
    """The ``(arc index, new - old)`` pairs of the arcs where two flows differ."""
    return [(i, new[i] - old[i]) for i in compress(range(len(old)), map(ne, old, new))]


def _advance(rows, costs: tuple[int, ...], changes) -> tuple[int, ...]:
    """Scenario costs of a flow derived from one whose costs are `costs`.

    `changes` lists the ``(arc index, signed change)`` pairs that turn the
    old flow into the new one: the cycle `cost_reduce` cancelled, or
    `_changes` of the two flows.  Each scenario's row is summed over those
    arcs only, so after a cancellation the work is K times the cycle's
    length, and after a crossover K times the arcs where the child leaves
    its parent.  Plain loops, without a generator per scenario, take about
    half the time of ``tuple(c + sum(...) for ...)`` on a descent's cycles.
    """
    advanced = []
    for c, row in zip(costs, rows):
        for i, d in changes:
            c += row[i] * d
        advanced.append(c)
    return tuple(advanced)


def _neighborhood(
    instance: Instance,
    flow: tuple[int, ...],
    costs: tuple[int, ...],
    optimum: tuple[int, ...],
    size: int,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Iterated cost reduction around a flow, spread evenly over scenarios.

    Each scenario owns a chain of successive cost reductions starting at the
    flow; chains advance one step per round, and every intermediate flow is
    a neighbor.  Collection stops at `size` or when all chains hit their
    per-scenario optima.

    Returns ``(flow, costs)`` pairs.  `costs` is the scenario cost vector of
    the input flow, and each chain carries its own vector forward with
    `_advance` over the arc changes `cost_reduce` hands back for the cycle
    it cancelled; the two flows are never compared.  A push around a
    residual cycle keeps a feasible flow feasible, so the neighbors are not
    validated again.

    `optimum` holds the scenario optima (`compute_optima(instance).costs`).
    Scenario s's chain ends when its carried cost for s reaches
    ``optimum[s]``, where `cost_reduce` would find no cycle.
    """
    network = instance.network
    rows = instance.costs
    working = [(flow, costs)] * len(rows)
    done = [False] * len(rows)
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    while len(found) < size and not all(done):
        for s, row in enumerate(rows):
            if done[s]:
                continue
            prev, prev_costs = working[s]
            if prev_costs[s] == optimum[s]:
                done[s] = True
                continue
            nxt, _, changes = cost_reduce(network, row, prev)
            working[s] = (nxt, _advance(rows, prev_costs, changes))
            found.append(working[s])
            if len(found) >= size:
                break
    return found


def _descend(
    instance: Instance,
    criterion: Criterion,
    start: tuple[int, ...],
    start_costs: tuple[int, ...],
    optimum: tuple[int, ...],
    size: int,
    memo: dict | None = None,
):
    """Best-neighbor descent accepting only strict improvements.

    Yields ``(flow, cost, costs)``, where `costs` is the flow's carried
    scenario cost vector: first the start, then each accepted move.  Costs
    are nonnegative integers and each move strictly decreases them, so the
    descent ends on its own; a caller that wants fewer moves stops taking
    them (`itertools.islice`), and no neighborhood is built past the last
    move taken.

    `start_costs` must be the start flow's `scenario_costs`; the start is
    not validated here.  From there each candidate's scenario cost vector
    is carried along the cancelled cycles (see `_neighborhood`, which
    builds at most `size` neighbors and ends each scenario's chain at
    `optimum`), and `criterion` scores the carried vector.  `memo`, when
    given, maps a flow to its `_neighborhood` list and is read before one
    is built and filled after; every neighbor is still scored, so the
    evaluation count does not depend on it.
    """
    current, current_costs = start, start_costs
    current_cost = criterion.evaluate(start, start_costs)
    yield current, current_cost, current_costs
    while True:
        best = None
        best_cost = None
        neighbors = None if memo is None else memo.get(current)
        if neighbors is None:
            neighbors = _neighborhood(instance, current, current_costs, optimum, size)
            if memo is not None:
                memo[current] = neighbors
        for cand in neighbors:
            cost = criterion.evaluate(*cand)
            if best_cost is None or cost < best_cost:
                best, best_cost = cand, cost
        if best is None or best_cost >= current_cost:
            return
        (current, current_costs), current_cost = best, best_cost
        yield current, current_cost, current_costs


def _confirm_costs(instance: Instance, flow: tuple[int, ...], costs: tuple[int, ...]) -> None:
    """Raise unless the returned flow's fresh `scenario_costs` equal its
    carried vector `costs`, from which its robust cost was scored.

    The whole vector is compared, so a wrong entry below the worst one is
    caught too, and the criterion's evaluation counter does not move.
    """
    fresh = scenario_costs(instance, flow)
    if fresh != costs:
        raise AssertionError(f"carried scenario costs {costs} differ from the fresh costs {fresh}")


def local_search(
    instance: Instance,
    variant: str,
    solver: str,
    params: SearchParams | None = None,
    seed: int = 0,
    trace=None,
) -> SolutionRecord:
    """Run one local-search solver (ls1..ls4) and report its best flow.

    ls1 descends from an arbitrary feasible flow, ls2 from the
    best-evaluated scenario optimum, ls3 from the rounded center of all
    scenario optima; ls4 runs a full descent from every scenario optimum
    and keeps the best outcome.

    `trace(flow, cost)` fires on every accepted move, once per descent
    (so ls4 restarts the sequence for each of its starts).
    """
    if solver not in LS_SOLVERS:
        raise InvalidParameter(f"unknown local-search solver {solver!r}")
    seed = check_integer(seed, "seed")
    params = check_params(params)
    t0 = time.perf_counter()
    criterion = make_criterion(instance, variant)
    # every descent ends its scenario chains at the optima, ls1's too
    optima = compute_optima(instance)
    # (start flow, its scenario costs) for each descent
    if solver == "ls1":
        start = find_flow(instance.network, instance.flow_value)
        starts = [(start, scenario_costs(instance, start))]
    else:
        pairs = list(zip(optima.flows, optima.vectors))
        if solver == "ls2":
            starts = [min(pairs, key=lambda pair: criterion.evaluate(*pair))]
        elif solver == "ls3":
            start = round_flow(instance.network, *center(instance.network, optima.flows))
            starts = [(start, scenario_costs(instance, start))]
        else:
            starts = pairs

    best_flow = best_costs = best_cost = None
    for start, start_costs in starts:
        descent = _descend(
            instance, criterion, start, start_costs, optima.costs, params.neighborhood_size
        )
        # the descent's last flow taken: its start, or its last move
        flow, cost, costs = next(descent)
        for flow, cost, costs in islice(descent, params.iteration_limit):
            if trace is not None:
                trace(flow, cost)
        if best_cost is None or cost < best_cost:
            best_flow, best_costs, best_cost = flow, costs, cost
    _confirm_costs(instance, best_flow, best_costs)
    return SolutionRecord(variant, solver, best_cost, best_flow, seed, time.perf_counter() - t0)


def tournament_select(population, mode: str, sample_size: int, rng, exclude: int | None = None):
    """Index of the best (or worst) member of a random distinct sample.

    The sample is uniform over the subsets of its size among the members
    other than `exclude`, a member index or None, drawn by Floyd's
    algorithm from one ``rng.random(size)`` call: step j takes a uniform
    position in 0..j, or j itself when that one is already taken.
    Position p is member p, or p + 1 from the excluded index on.  Ties go
    to the lower member index.  Returns None when `exclude` leaves
    nothing to sample.
    """
    n = len(population) - (exclude is not None)
    if n <= 0:
        return None
    if mode == "best":
        better = lt
    elif mode == "worst":
        better = gt
    else:
        raise InvalidParameter(f"unknown tournament mode {mode!r}")
    size = min(sample_size, n)
    picked: set[int] = set()
    for j, u in zip(range(n - size, n), rng.random(size).tolist()):
        t = int(u * (j + 1))
        picked.add(j if t in picked else t)
    chosen = chosen_cost = None
    for i in sorted(picked):
        if exclude is not None:
            i += i >= exclude
        cost = population[i][1]
        if chosen is None or better(cost, chosen_cost):
            chosen, chosen_cost = i, cost
    return chosen


def insert_child(
    population,
    child,
    child_cost,
    similarity_threshold,
    tournament_size,
    rng,
    best_index,
    child_costs,
):
    """Place a child into the population, preserving size and diversity.

    Members are ``(flow, robust cost, scenario costs)``.  If some member's
    cost lies within the similarity band of the child's, the better of the
    two twins survives (the incumbent on ties; the first such member by
    index is the twin).  The band is `similarity_threshold` percent of the
    population's best cost, rounded down: costs are integers, so a gap
    within that percentage is within its floor, and a zero base leaves
    only equal costs similar.  Otherwise the child replaces a
    worst-of-tournament member, with the population best shielded.
    `best_index` must be the index of the lowest-cost member (the lowest
    index on ties).

    Returns `population` itself, where a slot the child took now reads
    ``(child, child_cost, child_costs)``.
    """
    band = similarity_threshold * population[best_index][1] // 100
    for i, twin in enumerate(population):
        if abs(twin[1] - child_cost) <= band:
            if child_cost < twin[1]:
                population[i] = (child, child_cost, child_costs)
            return population
    victim = tournament_select(population, "worst", tournament_size, rng, exclude=best_index)
    if victim is not None:
        population[victim] = (child, child_cost, child_costs)
    return population


def evolutionary(
    instance: Instance,
    variant: str,
    solver: str,
    params: SearchParams | None = None,
    seed: int = 0,
    trace=None,
) -> SolutionRecord:
    """Run one steady-state evolutionary solver (ec1..ec9).

    Per generation: two tournament-selected parents produce one child via
    the solver's crossover, the child is inserted under the similarity
    rule, and with probability mutation_threshold percent a random
    non-best member is replaced by its mutant.  The run stops at the
    generation limit or after no_improvement_limit stagnant generations.

    `trace(generation, best_cost)` fires after every generation.
    """
    if solver not in EC_SOLVERS:
        raise InvalidParameter(f"unknown evolutionary solver {solver!r}")
    params = check_params(params)
    kind = EC_SOLVERS.index(solver)
    cross_kind, mut_kind = divmod(kind, 3)
    seed = check_integer(seed, "seed")
    rng = make_rng(seed)
    t0 = time.perf_counter()
    criterion = make_criterion(instance, variant)
    network = instance.network
    if instance.flow_value == 0:
        # the zero flow costs 0, the least any can; `compose` rejects its empty unit paths
        zero = (0,) * network.arc_count
        cost = criterion.evaluate(zero, scenario_costs(instance, zero))
        return SolutionRecord(variant, solver, cost, zero, seed, time.perf_counter() - t0)

    cost_rows = instance.costs
    optima = compute_optima(instance)
    # parent flow -> its unit paths; pruned to the live members when full
    unit_paths: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def paths_of(flow: tuple[int, ...]) -> list[tuple[int, ...]]:
        paths = unit_paths.get(flow)
        if paths is None:
            if len(unit_paths) >= len(population):
                for stale in unit_paths.keys() - {member[0] for member in population}:
                    del unit_paths[stale]
            paths = unit_paths[flow] = decompose(network, flow)
        return paths

    def crossover(first: int, second: int):
        """The child of two members, and its scenario costs."""
        (a, _, a_costs), b = population[first], population[second][0]
        if cross_kind == 0:
            child = round_flow(network, *center(network, [a, b]))
        elif cross_kind == 1:
            child = harmonize(network, a, b, rng)
        else:
            child = compose(network, paths_of(a), paths_of(b), rng)
        return child, _advance(cost_rows, a_costs, _changes(a, child))

    cap = MUTATION_SEARCH_CAP
    if params.iteration_limit is not None:
        cap = min(cap, params.iteration_limit)

    def descend(i: int, memo=None):
        """Member i's capped descent: the member, then up to `cap` moves."""
        flow, _, costs = population[i]
        size = params.neighborhood_size
        return islice(_descend(instance, criterion, flow, costs, optima.costs, size, memo), cap + 1)

    def mutate(i: int):
        """Member i's mutant, and its scenario costs."""
        flow, _, costs = population[i]
        if mut_kind == 2:
            *_, (mutant, _, costs) = descend(i)
            return mutant, costs
        if mut_kind == 0:
            mutant = perturb(network, flow, rng)
            changes = _changes(flow, mutant)
        else:
            s = int(rng.integers(0, len(cost_rows)))
            if costs[s] == optima.costs[s]:
                # already optimal for s: cost_reduce would find no cycle
                return flow, costs
            mutant, _, changes = cost_reduce(network, cost_rows[s], flow)
        return mutant, _advance(cost_rows, costs, changes)

    # A member is (flow, robust cost, scenario costs).  The scenario costs
    # are carried from the optima through every descent, crossover and
    # mutation, so no member is validated or summed in full again.
    population = [
        (f, criterion.evaluate(f, costs), costs) for f, costs in zip(optima.flows, optima.vectors)
    ]
    if len(population) > params.population_size:
        order = sorted(range(len(population)), key=lambda i: (population[i][1], i))
        population = [population[i] for i in order[: params.population_size]]
    # The fill's descents mostly start from copies of the same few optima.
    neighborhoods: dict = {}
    while len(population) < params.population_size:
        source = int(rng.integers(0, len(population)))
        if mut_kind == 2:
            # each accepted move fills a slot, and the start one only when
            # the descent made no move
            steps = descend(source, neighborhoods)
            mutant, _, costs = next(steps)
            moves = list(islice(steps, params.population_size - len(population)))
            if moves:
                population += moves
                continue
        else:
            mutant, costs = mutate(source)
        population.append((mutant, criterion.evaluate(mutant, costs), costs))
    del neighborhoods

    # The best member (lowest cost, then lowest index) is never replaced by a
    # worse one, and a generation improves when its cost falls.  A child takes
    # one slot at most, so only one costing no more than the best can move it.
    robust = [member[1] for member in population]
    best_cost = min(robust)
    best = robust.index(best_cost)
    generations = 0
    stagnant = 0
    while (
        params.generation_limit is None or generations < params.generation_limit
    ) and stagnant < params.no_improvement_limit:
        previous = best_cost
        first = tournament_select(population, "best", params.tournament_size, rng)
        second = tournament_select(population, "best", params.tournament_size, rng)
        child, child_costs = crossover(first, second)
        child_cost = criterion.evaluate(child, child_costs)
        population = insert_child(
            population,
            child,
            child_cost,
            params.similarity_threshold,
            params.tournament_size,
            rng,
            best,
            child_costs,
        )
        if child_cost <= best_cost:
            robust = [member[1] for member in population]
            best_cost = min(robust)
            best = robust.index(best_cost)
        if rng.random() * 100 < params.mutation_threshold and len(population) > 1:
            target = int(rng.integers(0, len(population) - 1))
            target += target >= best  # any member but the best
            mutant, costs = mutate(target)
            cost = criterion.evaluate(mutant, costs)
            population[target] = (mutant, cost, costs)
            if (cost, target) < (best_cost, best):
                best, best_cost = target, cost
        generations += 1
        stagnant = 0 if best_cost < previous else stagnant + 1
        if trace is not None:
            trace(generations, best_cost)

    flow, cost, costs = population[best]
    _confirm_costs(instance, flow, costs)
    return SolutionRecord(variant, solver, cost, flow, seed, time.perf_counter() - t0)
