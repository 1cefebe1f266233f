"""Independent reference computations the tests compare the library against.

Everything here is deliberately naive and self-contained: exhaustive
enumeration, bitmask cuts, plain path search.  None of it shares code
with the package, so agreement between the two is meaningful evidence.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import combinations

from rmcif import (
    ABSOLUTE,
    DEVIATION,
    CapacityViolation,
    Instance,
    Network,
    compute_optima,
)
from rmcif.objectives import scenario_costs


def enumerate_feasible_flows(network: Network, flow_value: int) -> list[tuple[int, ...]]:
    """Every integer flow of the given value, as arc-value tuples.

    Arc-by-arc recursion; a branch dies as soon as some endpoint's balance
    can no longer be closed by its still-unassigned incident capacities.
    No cost logic of any kind.
    """
    arcs = list(zip(network.tails, network.heads, network.capacities))
    n = network.vertex_count
    target = [0] * (n + 1)
    target[network.source] = flow_value
    target[network.sink] = -flow_value
    spare_out = [0] * (n + 1)
    spare_in = [0] * (n + 1)
    for tail, head, capacity in arcs:
        spare_out[tail] += capacity
        spare_in[head] += capacity
    out_sum = [0] * (n + 1)
    in_sum = [0] * (n + 1)
    values = [0] * len(arcs)
    found: list[tuple[int, ...]] = []

    def closable(v: int) -> bool:
        need = target[v] - (out_sum[v] - in_sum[v])
        return -spare_in[v] <= need <= spare_out[v]

    def walk(i: int) -> None:
        if i == len(arcs):
            found.append(tuple(values))
            return
        tail, head, capacity = arcs[i]
        spare_out[tail] -= capacity
        spare_in[head] -= capacity
        for x in range(capacity + 1):
            values[i] = x
            out_sum[tail] += x
            in_sum[head] += x
            if closable(tail) and closable(head):
                walk(i + 1)
            out_sum[tail] -= x
            in_sum[head] -= x
        values[i] = 0
        spare_out[tail] += capacity
        spare_in[head] += capacity

    walk(0)
    for flow in found:
        for v in range(1, n + 1):
            net = sum(x for (t, _, _), x in zip(arcs, flow) if t == v) - sum(
                x for (_, h, _), x in zip(arcs, flow) if h == v
            )
            assert net == target[v], "oracle produced an unbalanced flow"
    return found


def sum_flows(network: Network, flows) -> tuple[int, ...]:
    """Arc-wise sum of flows on one network; capacities must absorb the total."""
    if not flows:
        raise ValueError("cannot sum an empty list of flows")
    totals = [0] * network.arc_count
    for f in flows:
        for i, v in enumerate(f):
            totals[i] += v
    for i, (capacity, v) in enumerate(zip(network.capacities, totals)):
        if v > capacity:
            raise CapacityViolation(
                i, f"arc {i + 1}: summed value {v} exceeds capacity {capacity}"
            )
    return tuple(totals)


def scenario_cost(instance: Instance, values, scenario: int) -> int:
    return sum(c * x for c, x in zip(instance.scenarios.costs[scenario], values))


def eval_absolute(instance: Instance, flow) -> int:
    """Worst scenario cost of a feasible flow of the required value.

    The flow is checked by the package's `scenario_costs`, which raises
    like `validate_flow`, or `WrongFlowValue`.
    """
    return max(scenario_costs(instance, flow))


def eval_deviation(instance: Instance, flow, optima) -> int:
    """Worst regret of a feasible flow against the per-scenario optima."""
    return max(c - o for c, o in zip(scenario_costs(instance, flow), optima.costs))


def brute_min_cost(instance: Instance, scenario: int) -> int:
    """Single-scenario optimum by scanning every feasible flow."""
    flows = enumerate_feasible_flows(instance.network, instance.flow_value)
    return min(scenario_cost(instance, f, scenario) for f in flows)


def brute_robust_optimum(instance: Instance, variant: str) -> int:
    """Robust optimum by scanning every feasible flow, shifts included."""
    flows = enumerate_feasible_flows(instance.network, instance.flow_value)
    K = instance.scenarios.scenario_count
    if variant == DEVIATION:
        shift = [min(scenario_cost(instance, f, s) for f in flows) for s in range(K)]
    else:
        assert variant == ABSOLUTE
        shift = [0] * K
    return min(
        max(scenario_cost(instance, f, s) - shift[s] for s in range(K)) for f in flows
    )


def has_negative_cycle_floyd_warshall(network: Network, values, costs) -> bool:
    """Whether the residual network of `values` has a negative-cost cycle.

    Existence only, by all-pairs Floyd-Warshall over the residual arcs,
    which are rebuilt here from the arc list: spare capacity gives a
    forward arc at the arc's cost, carried flow a backward arc at its
    negated cost.
    """
    n = network.vertex_count
    inf = float("inf")
    dist = [[inf] * (n + 1) for _ in range(n + 1)]
    for v in range(1, n + 1):
        dist[v][v] = 0
    arcs = zip(network.tails, network.heads, network.capacities)
    for (tail, head, capacity), x, c in zip(arcs, values, costs):
        if x < capacity and c < dist[tail][head]:
            dist[tail][head] = c
        if x > 0 and -c < dist[head][tail]:
            dist[head][tail] = -c
    for k in range(1, n + 1):
        dk = dist[k]
        for i in range(1, n + 1):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(1, n + 1):
                nd = dik + dk[j]
                if nd < di[j]:
                    di[j] = nd
    return any(dist[v][v] < 0 for v in range(1, n + 1))


def negative_cycle_edge_list(network: Network, values, costs):
    """The residual-edge-list Bellman-Ford kernel `negative_cycle` replaced.

    It first lists one ``(tail, head, signed cost, (arc index, forward,
    room))`` tuple per residual move, in arc declaration order with each
    arc's forward move before its backward one, then relaxes that list
    from all-zero distances.  After every pass that lowers a distance it
    walks the predecessor graph toward the roots from vertices 1..n in
    turn and stops at the first walk that closes a cycle, which comes back
    as ``(arc index, forward, room)`` triples in walk order.  Returns None
    after a pass without updates.
    """
    n = network.vertex_count
    edges = []
    arcs = zip(network.tails, network.heads, network.capacities)
    for i, ((tail, head, capacity), x) in enumerate(zip(arcs, values)):
        if x < capacity:
            edges.append((tail, head, costs[i], (i, True, capacity - x)))
        if x > 0:
            edges.append((head, tail, -costs[i], (i, False, x)))
    dist = [0] * (n + 1)
    pred: list = [None] * (n + 1)
    pred_vertex = [0] * (n + 1)
    while True:
        changed = False
        for t, h, w, move in edges:
            if dist[t] + w < dist[h]:
                dist[h] = dist[t] + w
                pred[h] = move
                pred_vertex[h] = t
                changed = True
        if not changed:
            return None
        mark = [0] * (n + 1)
        on_cycle = 0
        for s in range(1, n + 1):
            v = s
            while v > 0 and mark[v] == 0:
                mark[v] = s
                v = pred_vertex[v]
            if v > 0 and mark[v] == s:
                on_cycle = v
                break
        if on_cycle:
            break
    cycle = [pred[on_cycle]]
    v = pred_vertex[on_cycle]
    while v != on_cycle:
        cycle.append(pred[v])
        v = pred_vertex[v]
    cycle.reverse()
    return cycle


def simple_paths(network: Network) -> list[list[int]]:
    """All simple source-to-sink paths over arcs of positive capacity,
    as lists of arc indices."""
    by_tail: dict[int, list[int]] = {}
    for i, (tail, capacity) in enumerate(zip(network.tails, network.capacities)):
        if capacity >= 1:
            by_tail.setdefault(tail, []).append(i)
    paths: list[list[int]] = []

    def walk(v: int, seen: set[int], trail: list[int]) -> None:
        if v == network.sink:
            paths.append(list(trail))
            return
        for i in by_tail.get(v, ()):
            head = network.heads[i]
            if head in seen:
                continue
            seen.add(head)
            trail.append(i)
            walk(head, seen, trail)
            trail.pop()
            seen.remove(head)

    walk(network.source, {network.source}, [])
    return paths


def robust_path_optimum(instance: Instance, variant: str) -> int:
    """Robust optimum for flow value 1, from the path list alone.

    With nonnegative costs any value-1 flow costs at least as much as the
    best path inside it, so both the per-scenario optima and the robust
    optimum are attained on simple paths.
    """
    assert instance.flow_value == 1
    paths = simple_paths(instance.network)
    assert paths, "no source-sink path despite flow value 1"
    K = instance.scenarios.scenario_count

    def cost(path: list[int], s: int) -> int:
        return sum(instance.scenarios.costs[s][i] for i in path)

    if variant == DEVIATION:
        shift = [min(cost(p, s) for p in paths) for s in range(K)]
    else:
        assert variant == ABSOLUTE
        shift = [0] * K
    return min(max(cost(p, s) - shift[s] for s in range(K)) for p in paths)


def min_cut_value(network: Network) -> int:
    """Smallest source-side-to-sink-side capacity over all bipartitions."""
    middle = [
        v
        for v in range(1, network.vertex_count + 1)
        if v not in (network.source, network.sink)
    ]
    best = None
    for r in range(len(middle) + 1):
        for chosen in combinations(middle, r):
            side = {network.source, *chosen}
            cut = sum(
                capacity
                for tail, head, capacity in zip(network.tails, network.heads, network.capacities)
                if tail in side and head not in side
            )
            if best is None or cut < best:
                best = cut
    return best


def solve_lp_text(text: str) -> float:
    """Optimal objective of an LP-format model, via an off-the-shelf MILP solver.

    Understands the subset of the format the library emits: a Minimize
    section, labelled <= and = rows (with wrapped continuation lines),
    a Bounds section of `lo <= name <= hi` lines, and a Generals section.
    Unbounded variables default to [0, +inf) and stay continuous.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    section = None
    objective_terms: list[str] = []
    rows: list[str] = []
    bounds_lines: list[str] = []
    integral_names: list[str] = []
    for raw in text.splitlines():
        if raw.startswith("\\") or not raw.strip():
            continue
        if not raw.startswith(" "):
            section = raw.strip()
            continue
        body = raw.strip()
        if section == "Minimize":
            objective_terms.append(body.split(":", 1)[1])
        elif section == "Subject To":
            if ":" in body.split(" ", 1)[0]:
                rows.append(body.split(":", 1)[1])
            else:
                rows[-1] += " " + body
        elif section == "Bounds":
            bounds_lines.append(body)
        elif section == "Generals":
            integral_names.extend(body.split())

    def parse_terms(chunk: str) -> dict[str, int]:
        coefficients: dict[str, int] = {}
        sign, magnitude = 1, None
        for token in chunk.split():
            if token == "+":
                sign, magnitude = 1, None
            elif token == "-":
                sign, magnitude = -1, None
            elif token.lstrip("+-").isdigit():
                magnitude = int(token)
            else:
                value = sign * (1 if magnitude is None else magnitude)
                coefficients[token] = coefficients.get(token, 0) + value
                sign, magnitude = 1, None
        return coefficients

    parsed_rows = []
    for row in rows:
        relation = "<=" if "<=" in row else "="
        left, right = row.rsplit(relation, 1)
        parsed_rows.append((parse_terms(left), relation, int(right)))

    names: list[str] = []
    seen = set()
    for coefficients, _, _ in parsed_rows:
        for name in coefficients:
            if name not in seen:
                seen.add(name)
                names.append(name)
    index = {name: j for j, name in enumerate(names)}

    c = np.zeros(len(names))
    for name, coef in parse_terms(" ".join(objective_terms)).items():
        c[index[name]] = coef

    matrix = np.zeros((len(parsed_rows), len(names)))
    lower = np.zeros(len(parsed_rows))
    upper = np.zeros(len(parsed_rows))
    for r, (coefficients, relation, rhs) in enumerate(parsed_rows):
        for name, coef in coefficients.items():
            matrix[r, index[name]] = coef
        upper[r] = rhs
        lower[r] = rhs if relation == "=" else -np.inf

    lo = np.zeros(len(names))
    hi = np.full(len(names), np.inf)
    for line in bounds_lines:
        low, name, high = line.split("<=")
        j = index[name.strip()]
        lo[j] = int(low)
        hi[j] = int(high)

    integrality = np.array([1.0 if n in set(integral_names) else 0.0 for n in names])
    result = milp(
        c,
        constraints=LinearConstraint(matrix, lower, upper),
        bounds=Bounds(lo, hi),
        integrality=integrality,
    )
    assert result.success, result.message
    return float(result.fun)


# Reference implementations of the path, augmentation and cycle walks as
# they stood before the flat-list kernels: one unit path per search over a
# rebuilt support, one rebuilt residual network per augmenting path, and
# cycle search over per-arc move records.  They return plain values (arc
# tuples, vertex tuples, move tuples) so that the comparison does not rest
# on any package code path.  A move is ``(tail, head, capacity, arc
# index, forward)``.


class OracleCirculation(Exception):
    """Flow value remains that no path can drain: non-conserving input.

    `flow_ops.decompose` raises `ConservationViolation` in this case.
    """


class OracleUnreachable(Exception):
    """The oracle's counterpart of `TargetUnreachable`."""



def _flow_value(network: Network, values) -> int:
    total = 0
    for tail, head, v in zip(network.tails, network.heads, values):
        if tail == network.source:
            total += v
        elif head == network.source:
            total -= v
    return total


def _bfs_moves(out, source: int, sink: int):
    """Fewest-arc path over per-vertex move lists, first-reached wins."""
    parent = {source: None}
    queue = [source]
    for v in queue:
        for move in out[v]:
            h = move[1]
            if h in parent:
                continue
            parent[h] = move
            if h == sink:
                path = []
                cur = sink
                while cur != source:
                    path.append(parent[cur])
                    cur = parent[cur][0]
                return path[::-1]
            queue.append(h)
    return None


def _support_moves(network: Network, remaining):
    out = [[] for _ in range(network.vertex_count + 1)]
    for i, (tail, head, v) in enumerate(zip(network.tails, network.heads, remaining)):
        if v > 0:
            out[tail].append((tail, head, v, i, True))
    return out


def residual_moves(network: Network, values):
    """Per-vertex residual moves, arcs in declaration order, forward first."""
    out = [[] for _ in range(network.vertex_count + 1)]
    arcs = zip(network.tails, network.heads, network.capacities)
    for i, ((tail, head, capacity), x) in enumerate(zip(arcs, values)):
        if capacity - x > 0:
            out[tail].append((tail, head, capacity - x, i, True))
        if x > 0:
            out[head].append((head, tail, x, i, False))
    return out


def _triples(path):
    """A move path as the ``(arc index, forward, room)`` triples the package returns."""
    return None if path is None else [(i, forward, room) for _, _, room, i, forward in path]


def fewest_arc_path(network: Network, values):
    """Fewest-arc residual path of `values`, or None.

    A plain breadth-first search over rebuilt move lists that stops only
    when it reaches the sink itself, scanning each vertex's moves in arc
    declaration order.
    """
    return _triples(_bfs_moves(residual_moves(network, values), network.source, network.sink))


def support_path(network: Network, remaining):
    """Fewest-arc path over the arcs with positive `remaining`, or None, by
    the same plain search as `fewest_arc_path`."""
    return _triples(_bfs_moves(_support_moves(network, remaining), network.source, network.sink))


def _push(values: list, path, amount: int) -> None:
    for _, _, _, i, forward in path:
        values[i] += amount if forward else -amount


def unit_paths(network: Network, values):
    """One-unit-at-a-time decomposition into (values, vertices) pairs.

    Only the flow's path part is returned; a circulation left over once
    the value is drained is ignored.
    """
    remaining = list(values)
    pieces = []
    for _ in range(_flow_value(network, remaining)):
        path = _bfs_moves(_support_moves(network, remaining), network.source, network.sink)
        if path is None:
            raise OracleCirculation("no source-to-sink path left in the support")
        unit = [0] * network.arc_count
        for move in path:
            remaining[move[3]] -= 1
            unit[move[3]] = 1
        pieces.append((tuple(unit), (network.source,) + tuple(m[1] for m in path)))
    return pieces


def augment_to_value(network: Network, values, target: int) -> tuple[int, ...]:
    """Raise the value to `target`, one rebuilt residual network per path."""
    vals = list(values)
    current = _flow_value(network, vals)
    while current < target:
        path = _bfs_moves(residual_moves(network, vals), network.source, network.sink)
        if path is None:
            raise OracleUnreachable(f"stuck at {current} (target {target})")
        push = min(min(m[2] for m in path), target - current)
        _push(vals, path, push)
        current += push
    return tuple(vals)


def augment_once(network: Network, values):
    """Values after pushing the bottleneck along one residual path, or None."""
    path = _bfs_moves(residual_moves(network, values), network.source, network.sink)
    if path is None:
        return None
    vals = list(values)
    _push(vals, path, min(m[2] for m in path))
    return tuple(vals)


def max_flow(network: Network) -> int:
    """Maximum flow value by augmenting until no residual path is left."""
    vals = [0] * network.arc_count
    total = 0
    while True:
        path = _bfs_moves(residual_moves(network, vals), network.source, network.sink)
        if path is None:
            return total
        push = min(m[2] for m in path)
        _push(vals, path, push)
        total += push


def _cheapest_moves(network: Network, costs, potential: list, values):
    """Cheapest residual path of `values` under `costs` as moves, or None.

    Dijkstra's search over reduced costs ``cost + potential[tail] -
    potential[head]`` on rebuilt move lists, as `min_cost_flow` first ran
    it: a popped vertex is marked settled, later heap entries for it and
    moves into it are skipped, and the search stops once it settles the
    sink.  Ties go by distance, then vertex number, then arc declaration
    order.  The potentials then grow in place by each vertex's distance
    capped at the sink's.
    """
    out = residual_moves(network, values)
    source, sink = network.source, network.sink
    dist = [math.inf] * (network.vertex_count + 1)
    parent = [None] * (network.vertex_count + 1)
    settled = [False] * (network.vertex_count + 1)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        if v == sink:
            break
        for move in out[v]:
            _, h, _, i, forward = move
            if settled[h]:
                continue
            nd = d + potential[v] + (costs[i] if forward else -costs[i]) - potential[h]
            if nd < dist[h]:
                dist[h] = nd
                parent[h] = move
                heapq.heappush(heap, (nd, h))
    if not settled[sink]:
        return None
    reach = dist[sink]
    potential[:] = [p + min(d, reach) for p, d in zip(potential, dist)]
    path = []
    v = sink
    while v != source:
        path.append(parent[v])
        v = parent[v][0]
    return path[::-1]


def min_cost_flow_settled(network: Network, costs, value: int) -> tuple[int, ...]:
    """Successive shortest paths from the zero flow along `_cheapest_moves`,
    each path's bottleneck capped by the value still missing: the witness
    `flow_ops.min_cost_flow` must keep."""
    vals = [0] * network.arc_count
    potential = [0] * (network.vertex_count + 1)
    current = 0
    while current < value:
        path = _cheapest_moves(network, costs, potential, vals)
        if path is None:
            raise OracleUnreachable(f"stuck at {current} (target {value})")
        push = min(min(m[2] for m in path), value - current)
        _push(vals, path, push)
        current += push
    return tuple(vals)


def round_to_integer(network: Network, values) -> tuple[int, ...]:
    """Half-up rounding, one unit path extracted per search, then augmentation."""
    half = Fraction(1, 2)
    target = math.floor(_flow_value(network, values) + half)
    rounded = [math.floor(v + half) for v in values]
    extracted = [0] * network.arc_count
    got = 0
    while got < target:
        path = _bfs_moves(_support_moves(network, rounded), network.source, network.sink)
        if path is None:
            break
        for move in path:
            rounded[move[3]] -= 1
            extracted[move[3]] += 1
        got += 1
    return augment_to_value(network, extracted, target)


def compose_units(network: Network, first, second, rng) -> tuple[int, ...]:
    """Alternating composition with the capacity check zipped over every arc.

    Each list is walked in one random order drawn per call; an element
    that does not fit is dropped from the list for the rest of the call.
    """
    target = len(first)
    caps = network.capacities
    totals = [0] * network.arc_count
    active = int(rng.integers(0, 2))
    queues = [
        [first[int(j)] for j in rng.permutation(target)],
        [second[int(j)] for j in rng.permutation(target)],
    ]
    picked = stalls = 0
    while picked < target and stalls < 2:
        queue = queues[active]
        while queue and not all(t + v <= c for t, v, c in zip(totals, queue[0], caps)):
            queue.pop(0)
        if not queue:
            stalls += 1
            active = 1 - active
            continue
        for i, v in enumerate(queue.pop(0)):
            totals[i] += v
        picked += 1
        stalls = 0
        active = 1 - active
    return augment_to_value(network, totals, target)


def compose_units_per_pick(network: Network, first, second, rng) -> tuple[int, ...]:
    """Alternating composition drawing a fresh random order for every pick.

    The scheme `compose` used before it drew one order per list and call;
    its output flows must follow the same distribution.
    """
    target = len(first)
    caps = network.capacities
    totals = [0] * network.arc_count
    remaining = [list(range(target)), list(range(target))]
    lists = (first, second)
    active = int(rng.integers(0, 2))
    picked = stalls = 0
    while picked < target and stalls < 2:
        pool = remaining[active]
        chosen = -1
        for j in rng.permutation(len(pool)):
            unit = lists[active][pool[int(j)]]
            if all(t + v <= c for t, v, c in zip(totals, unit, caps)):
                chosen = pool[int(j)]
                break
        if chosen < 0:
            stalls += 1
            active = 1 - active
            continue
        for i, v in enumerate(lists[active][chosen]):
            totals[i] += v
        pool.remove(chosen)
        picked += 1
        stalls = 0
        active = 1 - active
    return augment_to_value(network, totals, target)


def random_cycle(vertex_count: int, out, rng):
    """Randomized depth-first cycle search over move lists, as a move tuple.

    Start vertices and each expansion are shuffled with `rng`; the move
    that immediately reverses the one just taken is skipped.
    """
    color = [0] * (vertex_count + 1)

    def shuffled(v):
        lst = out[v]
        return [lst[int(j)] for j in rng.permutation(len(lst))]

    for s in (int(i) + 1 for i in rng.permutation(vertex_count)):
        if color[s]:
            continue
        color[s] = 1
        depth = {s: 0}
        path = []
        stack = [(s, iter(shuffled(s)), None)]
        while stack:
            v, moves, entry = stack[-1]
            advanced = False
            for move in moves:
                if entry is not None and move[3] == entry[3] and move[4] != entry[4]:
                    continue
                h = move[1]
                if color[h] == 1:
                    return tuple(path[depth[h]:] + [move])
                if color[h] == 0:
                    color[h] = 1
                    depth[h] = len(path) + 1
                    path.append(move)
                    stack.append((h, iter(shuffled(h)), move))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                color[v] = 2
                if path:
                    path.pop()
    return None


def _push_cycle(values, cycle) -> tuple[int, ...]:
    vals = list(values)
    if cycle is not None:
        _push(vals, cycle, min(m[2] for m in cycle))
    return tuple(vals)


def perturb_values(network: Network, values, rng) -> tuple[int, ...]:
    """Push the bottleneck around a random residual cycle, if there is one."""
    return _push_cycle(values, random_cycle(network.vertex_count, residual_moves(network, values), rng))


def harmonize_values(network: Network, values, target, rng) -> tuple[int, ...]:
    """Cycle push restricted to moves toward the support of `target`."""
    out = [[] for _ in range(network.vertex_count + 1)]
    arcs = zip(network.tails, network.heads, network.capacities)
    for i, ((tail, head, capacity), x, t) in enumerate(zip(arcs, values, target)):
        if t > 0 and capacity - x > 0:
            out[tail].append((tail, head, capacity - x, i, True))
        if t == 0 and x > 0:
            out[head].append((head, tail, x, i, False))
    return _push_cycle(values, random_cycle(network.vertex_count, out, rng))


# Reference implementation of the exact enumerator as it stood before the
# reduced-cost completion bound: a branch is pruned on the cost of the arcs
# already fixed and nothing else, and both searches recurse.  It counts the
# arc assignments it explores in `explored`.  It takes its starting
# incumbent from the package's `compute_optima`, so that both enumerators
# begin from the same flow.


class OracleBudget(Exception):
    """The oracle's counterpart of `BudgetExceeded`."""

    def __init__(self, explored: int):
        super().__init__(f"enumeration budget exhausted after {explored} nodes")
        self.explored = explored


class _OracleOptimumHit(Exception):
    pass


def _oracle_topological_order(network: Network):
    indegree = [0] * (network.vertex_count + 1)
    for head in network.heads:
        indegree[head] += 1
    ready = [v for v in range(1, network.vertex_count + 1) if indegree[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for tail, head in zip(network.tails, network.heads):
            if tail == v:
                indegree[head] -= 1
                if indegree[head] == 0:
                    heapq.heappush(ready, head)
    return order if len(order) == network.vertex_count else None


class PrefixCostSearch:
    """Depth-first enumeration pruned on the cost of the fixed arcs."""

    def __init__(self, instance: Instance, shift, lower: int, node_budget: int,
                 best_cost: int, best_values):
        self.network = instance.network
        self.rows = instance.scenarios.costs
        self.shift = shift
        self.lower = lower
        self.node_budget = node_budget
        self.best_cost = best_cost
        self.best_values = tuple(best_values)
        n = self.network.vertex_count
        self.balance = [0] * (n + 1)
        self.balance[self.network.source] = instance.flow_value
        self.balance[self.network.sink] = -instance.flow_value
        self.values = [0] * self.network.arc_count
        self.partial = [0] * len(self.rows)
        self.explored = 0

    def tick(self) -> None:
        self.explored += 1
        if self.explored > self.node_budget:
            raise OracleBudget(self.explored)

    def bound(self) -> int:
        return max(p - z for p, z in zip(self.partial, self.shift))

    def add(self, arc_index: int, amount: int) -> None:
        self.values[arc_index] = amount
        if amount:
            for s, row in enumerate(self.rows):
                self.partial[s] += row[arc_index] * amount

    def remove(self, arc_index: int) -> None:
        amount = self.values[arc_index]
        self.values[arc_index] = 0
        if amount:
            for s, row in enumerate(self.rows):
                self.partial[s] -= row[arc_index] * amount

    def offer_leaf(self) -> None:
        cost = self.bound()
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_values = tuple(self.values)
            if cost <= self.lower:
                raise _OracleOptimumHit


def _prefix_search_dag(search: PrefixCostSearch, topo) -> None:
    network = search.network
    out_indexed = [
        [(i, c) for i, (t, c) in enumerate(zip(network.tails, network.capacities)) if t == v]
        for v in range(network.vertex_count + 1)
    ]
    suffix = []
    for arcs_v in out_indexed:
        tail_sums = [0] * (len(arcs_v) + 1)
        for j in range(len(arcs_v) - 1, -1, -1):
            tail_sums[j] = tail_sums[j + 1] + arcs_v[j][1]
        suffix.append(tail_sums)
    in_indices = [
        [i for i, h in enumerate(network.heads) if h == v]
        for v in range(network.vertex_count + 1)
    ]

    def visit(position: int) -> None:
        if position == len(topo):
            search.offer_leaf()
            return
        v = topo[position]
        required = sum(search.values[i] for i in in_indices[v]) + search.balance[v]
        if required < 0:
            return
        distribute(v, 0, required, position)

    def distribute(v: int, j: int, need: int, position: int) -> None:
        arcs_v = out_indexed[v]
        if j == len(arcs_v):
            if need == 0:
                visit(position + 1)
            return
        index, cap = arcs_v[j]
        rest = suffix[v][j + 1]
        for amount in range(max(0, need - rest), min(cap, need) + 1):
            search.tick()
            search.add(index, amount)
            if search.bound() < search.best_cost:
                distribute(v, j + 1, need - amount, position)
            search.remove(index)

    visit(0)


def _prefix_search_generic(search: PrefixCostSearch) -> None:
    network = search.network
    n = network.vertex_count
    rem_out = [0] * (n + 1)
    rem_in = [0] * (n + 1)
    arcs = list(zip(network.tails, network.heads, network.capacities))
    for tail, head, capacity in arcs:
        rem_out[tail] += capacity
        rem_in[head] += capacity
    cur_out = [0] * (n + 1)
    cur_in = [0] * (n + 1)

    def closable(v: int) -> bool:
        need = search.balance[v] - (cur_out[v] - cur_in[v])
        return -rem_in[v] <= need <= rem_out[v]

    def assign(i: int) -> None:
        if i == network.arc_count:
            if all(
                cur_out[v] - cur_in[v] == search.balance[v] for v in range(1, n + 1)
            ):
                search.offer_leaf()
            return
        tail, head, capacity = arcs[i]
        rem_out[tail] -= capacity
        rem_in[head] -= capacity
        for amount in range(capacity + 1):
            search.tick()
            search.add(i, amount)
            cur_out[tail] += amount
            cur_in[head] += amount
            if (
                closable(tail)
                and closable(head)
                and search.bound() < search.best_cost
            ):
                assign(i + 1)
            cur_out[tail] -= amount
            cur_in[head] -= amount
            search.remove(i)
        rem_out[tail] += capacity
        rem_in[head] += capacity

    assign(0)


def prefix_cost_optimum(instance: Instance, variant: str, node_budget: int):
    """``(cost, witness values, explored)`` from the prefix-cost enumerator.

    The incumbent starts, as in `enumerate_optimum`, at the best-evaluated
    scenario-optimal flow from `compute_optima`, and the search is skipped
    when that flow already meets the variant's lower bound.  Raises
    `OracleBudget` once more than `node_budget` arc assignments have been
    explored.
    """
    optima = compute_optima(instance)
    if variant == DEVIATION:
        shift, lower = optima.costs, 0
    else:
        shift, lower = (0,) * instance.scenarios.scenario_count, max(optima.costs)
    best_cost = best_values = None
    for flow in optima.flows:
        cost = max(
            scenario_cost(instance, flow, s) - z for s, z in enumerate(shift)
        )
        if best_cost is None or cost < best_cost:
            best_cost, best_values = cost, flow
    if best_cost <= lower:
        return best_cost, tuple(best_values), 0
    search = PrefixCostSearch(instance, shift, lower, node_budget, best_cost, best_values)
    topo = _oracle_topological_order(instance.network)
    try:
        if topo is None:
            _prefix_search_generic(search)
        else:
            _prefix_search_dag(search, topo)
    except _OracleOptimumHit:
        pass
    return search.best_cost, search.best_values, search.explored


def tournament_select_by_candidates(population, mode: str, sample_size: int, rng, exclude=None):
    """Tournament selection over an explicit list of the members other than
    `exclude`, a member index or None.

    Floyd's algorithm draws positions into that list from one
    ``rng.random(size)`` call, and a keyed `min` or `max` over the sampled
    members breaks ties toward the lower index.
    """
    candidates = [i for i in range(len(population)) if i != exclude]
    if not candidates:
        return None
    n = len(candidates)
    size = min(sample_size, n)
    picked: set[int] = set()
    for j, u in zip(range(n - size, n), rng.random(size).tolist()):
        t = int(u * (j + 1))
        picked.add(j if t in picked else t)
    sampled = [candidates[p] for p in sorted(picked)]
    if mode == "best":
        return min(sampled, key=lambda i: (population[i][1], i))
    if mode == "worst":
        return max(sampled, key=lambda i: (population[i][1], -i))
    raise ValueError(f"unknown tournament mode {mode!r}")


def similar_costs(cost_a: int, cost_b: int, base: int, threshold: int) -> bool:
    """Costs within `threshold` percent of `base`; a zero base means equality."""
    if base == 0:
        return cost_a == cost_b
    return 100 * abs(cost_a - cost_b) <= threshold * base


def insert_child_by_similarity(
    population, child, child_cost, similarity_threshold, tournament_size, rng, best_index, child_costs
):
    """The first member similar to the child (by `similar_costs` against the
    best member's cost) keeps the better of the two, the incumbent on ties;
    with no such member the child replaces a worst-of-tournament member
    other than the best."""
    base = population[best_index][1]
    member = (child, child_cost, child_costs)
    for i, twin in enumerate(population):
        if similar_costs(twin[1], child_cost, base, similarity_threshold):
            updated = list(population)
            if child_cost < twin[1]:
                updated[i] = member
            return updated
    victim = tournament_select_by_candidates(
        population, "worst", tournament_size, rng, exclude=best_index
    )
    updated = list(population)
    if victim is not None:
        updated[victim] = member
    return updated
