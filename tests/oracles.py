"""Independent reference computations the tests compare the library against.

Everything here is deliberately naive and self-contained: exhaustive
enumeration, bitmask cuts, plain path search.  None of it shares code
with the package, so agreement between the two is meaningful evidence.
"""
from __future__ import annotations

from itertools import combinations

from rmcif import ABSOLUTE, DEVIATION, Instance, Network


def enumerate_feasible_flows(network: Network, flow_value: int) -> list[tuple[int, ...]]:
    """Every integer flow of the given value, as arc-value tuples.

    Arc-by-arc recursion; a branch dies as soon as some endpoint's balance
    can no longer be closed by its still-unassigned incident capacities.
    No cost logic of any kind.
    """
    arcs = network.arcs
    n = network.vertex_count
    target = [0] * (n + 1)
    target[network.source] = flow_value
    target[network.sink] = -flow_value
    spare_out = [0] * (n + 1)
    spare_in = [0] * (n + 1)
    for arc in arcs:
        spare_out[arc.tail] += arc.capacity
        spare_in[arc.head] += arc.capacity
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
        arc = arcs[i]
        spare_out[arc.tail] -= arc.capacity
        spare_in[arc.head] -= arc.capacity
        for x in range(arc.capacity + 1):
            values[i] = x
            out_sum[arc.tail] += x
            in_sum[arc.head] += x
            if closable(arc.tail) and closable(arc.head):
                walk(i + 1)
            out_sum[arc.tail] -= x
            in_sum[arc.head] -= x
        values[i] = 0
        spare_out[arc.tail] += arc.capacity
        spare_in[arc.head] += arc.capacity

    walk(0)
    for flow in found:
        for v in range(1, n + 1):
            net = sum(x for a, x in zip(arcs, flow) if a.tail == v) - sum(
                x for a, x in zip(arcs, flow) if a.head == v
            )
            assert net == target[v], "oracle produced an unbalanced flow"
    return found


def scenario_cost(instance: Instance, values, scenario: int) -> int:
    return sum(c * x for c, x in zip(instance.scenarios.costs[scenario], values))


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
    for arc, x, c in zip(network.arcs, values, costs):
        if x < arc.capacity and c < dist[arc.tail][arc.head]:
            dist[arc.tail][arc.head] = c
        if x > 0 and -c < dist[arc.head][arc.tail]:
            dist[arc.head][arc.tail] = -c
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


def simple_paths(network: Network) -> list[list[int]]:
    """All simple source-to-sink paths over arcs of positive capacity,
    as lists of arc indices."""
    by_tail: dict[int, list[int]] = {}
    for i, arc in enumerate(network.arcs):
        if arc.capacity >= 1:
            by_tail.setdefault(arc.tail, []).append(i)
    paths: list[list[int]] = []

    def walk(v: int, seen: set[int], trail: list[int]) -> None:
        if v == network.sink:
            paths.append(list(trail))
            return
        for i in by_tail.get(v, ()):
            head = network.arcs[i].head
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
                arc.capacity
                for arc in network.arcs
                if arc.tail in side and arc.head not in side
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
