"""Exact optima for small instances, plus LP-format export of the models.

The enumerator plays the role an external MILP solver would otherwise
play: a branch and bound over the integer flows of the required value,
so heuristic output can be scored against true optima.  One function,
`_walk`, holds the whole search: a depth-first walk, on an explicit
stack, that assigns the arcs in a single order: by the tail's
topological position on a DAG (a vertex's out-arcs in the order of its
forward moves in `residual_adjacency`), in declaration order otherwise.
Each arc is tried only at the amounts that leave both of its endpoints
closable by the arcs still unassigned, a branch is pruned once a
reduced-cost completion bound (the cost of the fixed arcs plus the least
the rest of the flow must still cost, per scenario) reaches the
incumbent, and the walk stops at the first leaf that meets the variant's
lower bound.  `export_lp` writes the equivalent linearized model for
anyone who prefers a real solver.
"""
from __future__ import annotations

import heapq
from operator import sub

from .core import Instance, Network, RmcifError, check_integer
from .objectives import compute_optima, make_criterion


# Arc assignments an enumeration may explore before it gives up.
DEFAULT_NODE_BUDGET = 100_000_000


class BudgetExceeded(RmcifError):
    """Enumeration gave up after exploring too many assignment nodes."""

    def __init__(self, explored: int):
        super().__init__(f"enumeration budget exhausted after {explored} nodes")
        self.explored = explored


def _topological_order(network: Network) -> list[int] | None:
    """Vertices in topological order (smallest index first), None on a cycle."""
    adjacency = network.residual_adjacency
    indegree = [sum(not forward for _, forward, _ in moves) for moves in adjacency]
    ready = [v for v in range(1, network.vertex_count + 1) if indegree[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for _, forward, head in adjacency[v]:
            if forward:
                indegree[head] -= 1
                if indegree[head] == 0:
                    heapq.heappush(ready, head)
    return order if len(order) == network.vertex_count else None


def _balances(instance: Instance) -> list[int]:
    b = [0] * (instance.network.vertex_count + 1)
    b[instance.network.source] = instance.flow_value
    b[instance.network.sink] = -instance.flow_value
    return b


def _sink_distances(network: Network, row) -> list[int]:
    """Cheapest cost from every vertex to the sink under one cost row.

    One reverse Dijkstra over the backward moves of `residual_adjacency`.
    Every arc counts, zero-capacity arcs too, and costs are nonnegative.
    A vertex that cannot reach the sink takes the largest finite distance,
    which keeps the reduced cost ``row[i] + d[head] - d[tail]`` of every
    arc nonnegative.  Index 0 is unused.
    """
    adjacency = network.residual_adjacency
    dist: list[int | None] = [None] * (network.vertex_count + 1)
    heap = [(0, network.sink)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None:
            continue
        dist[v] = d
        for i, forward, tail in adjacency[v]:
            if not forward and dist[tail] is None:
                heapq.heappush(heap, (d + row[i], tail))
    far = max(d for d in dist if d is not None)
    return [far if d is None else d for d in dist]


def _walk(
    instance: Instance, order: list[int], keep_costs: bool, shift, lower: int,
    best_cost: int, best_values: tuple[int, ...], node_budget: int,
) -> tuple[int, tuple[int, ...], int]:
    """Branch and bound over the arcs in `order`: ``(cost, witness, explored)``.

    A depth-first walk on an explicit stack, so its depth is not limited
    by Python's recursion limit, with one ``[arc index, next amount, last
    amount]`` frame per arc on the branch.  ``need[v]`` is the net outflow
    vertex v still owes, and ``rem_out[v]`` / ``rem_in[v]`` the capacity
    of its out- and in-arcs not yet on the branch.  An arc is tried only
    at the amounts that leave both of its endpoints closable by those
    arcs, in increasing order.  Each endpoint is closed by the last arc
    that touches it, so every complete assignment is a flow of the
    required value.  Every amount tried counts as one explored node, and
    `BudgetExceeded` is raised once more than `node_budget` are explored.

    Each scenario row holds reduced costs ``c_s(i) + d_s(head) - d_s(tail)``,
    with ``d_s`` from `_sink_distances`, and its partial sum starts at
    ``F * d_s(source)`` less the row's `shift` entry.  Reduced costs are
    nonnegative, so a partial sum never falls as arcs are fixed, and on a
    conserving flow it telescopes to the scenario's shifted cost.  The
    largest partial sum therefore bounds every completion of the fixed
    arcs from below, and is exact at a leaf.  A branch goes on only while
    that bound is below the incumbent, and the walk stops at the first
    leaf that reaches `lower`.

    The reduced sum exceeds the cost of the fixed arcs by ``F * d_s(source)``
    plus ``d_s(v)`` times each vertex's fixed inflow less its fixed
    outflow.  Along a topological order every in-arc of a vertex is fixed
    before its out-arcs, and no vertex sends on more than it received plus
    its supply, so that excess is nonnegative and the reduced sum alone
    bounds the fixed cost too.  Off a topological order a vertex's out-arcs
    may be fixed before its in-arcs, the excess can go negative, and so
    with `keep_costs` the plain cost rows are kept as well, their partial
    sums bounding the fixed cost directly.
    """
    network = instance.network
    rows, partial = [], []
    for row, z in zip(instance.costs, shift):
        d = _sink_distances(network, row)
        rows.append([c + d[h] - d[t] for c, t, h in zip(row, network.tails, network.heads)])
        partial.append(instance.flow_value * d[network.source] - z)
    if keep_costs:
        rows.extend(instance.costs)
        partial.extend(-z for z in shift)
    columns = list(zip(*rows))
    tails, heads, caps = network.tails, network.heads, network.capacities
    values = [0] * network.arc_count
    need = _balances(instance)
    adjacency = network.residual_adjacency
    rem_out = [sum(caps[i] for i, forward, _ in moves if forward) for moves in adjacency]
    rem_in = [sum(caps[i] for i, forward, _ in moves if not forward) for moves in adjacency]
    explored = 0
    stack: list[list[int]] = []
    grow = True
    while True:
        if grow and len(stack) < len(order):
            i = order[len(stack)]
            t, h = tails[i], heads[i]
            rem_out[t] -= caps[i]
            rem_in[h] -= caps[i]
            stack.append([
                i,
                max(0, need[t] - rem_out[t], -rem_in[h] - need[h]),
                min(caps[i], need[t] + rem_in[t], rem_out[h] - need[h]),
            ])
        elif grow:
            cost = max(partial)
            if cost < best_cost:
                best_cost, best_values = cost, tuple(values)
                if cost <= lower:
                    break
        if not stack:
            break
        top = stack[-1]
        i, amount, last = top
        t, h = tails[i], heads[i]
        tried = amount <= last
        if tried:
            top[1] = amount + 1
            explored += 1
            if explored > node_budget:
                raise BudgetExceeded(explored)
        else:
            stack.pop()
            rem_out[t] += caps[i]
            rem_in[h] += caps[i]
            amount = 0
        delta = amount - values[i]
        if delta:
            values[i] = amount
            need[t] -= delta
            need[h] += delta
            partial = [p + c * delta for p, c in zip(partial, columns[i])]
        grow = tried and max(partial) < best_cost
    return best_cost, best_values, explored


def enumerate_optimum(
    instance: Instance, variant: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """True optimum and a witness flow (its arc values), by branch and bound.

    The incumbent starts at the best-evaluated scenario-optimal flow, and
    the search stops early once the incumbent meets the lower bound
    ``max(optimum_s - shift_s)``, with the shift of the variant's criterion
    (the largest scenario optimum for the absolute variant, zero for the
    deviation variant).  A branch is pruned once the reduced-cost
    completion bound of its fixed arcs (see `_walk`) reaches the
    incumbent: what the rest of the flow must still cost is counted before
    its arcs are assigned.  The walk runs on an explicit stack, so large
    networks end in `BudgetExceeded`, not `RecursionError`.  Raises
    `BudgetExceeded` when more than `node_budget` arc assignments get
    explored, and `InvalidParameter` unless it is a nonnegative integer.
    """
    node_budget = check_integer(node_budget, "node budget")
    criterion = make_criterion(instance, variant)
    shift = criterion.shift
    optima = compute_optima(instance)
    lower = max(map(sub, optima.costs, shift))

    best_cost, best_values = min(
        (
            (criterion.evaluate(flow, costs), flow)
            for flow, costs in zip(optima.flows, optima.vectors)
        ),
        key=lambda pair: pair[0],
    )
    if best_cost <= lower:
        return best_cost, best_values

    network = instance.network
    topo = _topological_order(network)
    if topo is None:
        order = list(range(network.arc_count))
    else:
        order = [i for v in topo for i, forward, _ in network.residual_adjacency[v] if forward]
    cost, values, _ = _walk(
        instance, order, topo is None, shift, lower, best_cost, best_values, node_budget
    )
    return cost, values


def _lp_rows(label: str, terms: list[str], relation: str) -> list[str]:
    """One constraint as wrapped LP lines: `` label: t1 + t2 ... relation``.

    The leading plus of the first term is dropped; continuation lines keep
    a one-space indent so every body line of the file starts with a blank.
    """
    if terms[0].startswith("+ "):
        terms = [terms[0][2:], *terms[1:]]
    text = f" {label}: " + " ".join(terms) + f" {relation}"
    lines = []
    while len(text) > 72:
        cut = text.rfind(" ", 1, 72)
        if cut <= 0:
            break
        lines.append(text[:cut])
        text = " " + text[cut + 1 :]
    lines.append(text)
    return lines


def _term(coefficient: int, name: str) -> str:
    sign = "-" if coefficient < 0 else "+"
    magnitude = abs(coefficient)
    body = name if magnitude == 1 else f"{magnitude} {name}"
    return f"{sign} {body}"


def export_lp(instance: Instance, variant: str) -> str:
    """LP-format text of the linearized robust model.

    Minimizes the auxiliary variable y subject to one robust row per
    scenario (cost row minus y, bounded by the criterion's shift: zero for
    the absolute variant, the scenario optimum for the deviation variant),
    one flow conservation equality per vertex, capacity bounds, and
    integrality of every arc variable.
    """
    shift = make_criterion(instance, variant).shift
    network = instance.network
    names = [f"x_{t}_{h}" for t, h in zip(network.tails, network.heads)]
    lines = [f"\\ robust minimum-cost flow model, {variant} variant"]
    lines.append("Minimize")
    lines.append(" obj: y")
    lines.append("Subject To")
    for s, row in enumerate(instance.costs):
        terms = [_term(c, names[i]) for i, c in enumerate(row) if c != 0]
        terms.append("- y")
        lines.extend(_lp_rows(f"rob_{s + 1}", terms, f"<= {shift[s]}"))
    balance, adjacency = _balances(instance), network.residual_adjacency
    for v in range(1, network.vertex_count + 1):
        terms = [_term(1 if forward else -1, names[i]) for i, forward, _ in adjacency[v]]
        if not terms:
            terms = ["0 y"]
        lines.extend(_lp_rows(f"cons_{v}", terms, f"= {balance[v]}"))
    lines.append("Bounds")
    for name, capacity in zip(names, network.capacities):
        lines.append(f" 0 <= {name} <= {capacity}")
    lines.append("Generals")
    text = ""
    for name in names:
        if text and len(text) + 1 + len(name) > 72:
            lines.append(text)
            text = f" {name}"
        else:
            text = f"{text} {name}"
    if text:
        lines.append(text)
    lines.append("End")
    return "\n".join(lines) + "\n"
