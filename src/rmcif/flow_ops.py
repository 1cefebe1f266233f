"""Residual-network machinery and the basic flow procedures.

These are the building blocks the heuristic solvers are assembled from:
summation, path decomposition, averaging, augmentation, rounding,
composition of unit-flow lists, negative-cycle cost reduction, random
perturbation, harmonization toward another flow's support, feasible-flow
construction and single-scenario minimum-cost flow.

A residual network is held as parallel int lists (tail, head, residual
capacity, arc index, direction), built in one pass over the arcs.  The
per-arc `ResidualArc` views that path and cycle searches walk are built
lazily from those lists; the negative-cycle kernel never builds them and
relaxes over plain tuples, creating views only for the cycle it returns.
It stops Bellman-Ford at the first pass whose predecessor graph closes a
cycle (Cherkassky & Goldberg, "Negative-cycle detection algorithms",
Math. Prog. 85, 1999) instead of running all n passes.

All procedures are pure: they return new flows and never mutate their
inputs.  Randomized ones take an explicit numpy Generator.  Deterministic
tie-breaking follows arc declaration order throughout (adjacency lists,
scan orders and breadth-first expansions are all built in that order).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import (
    CapacityViolation,
    FractionalFlow,
    IntegerFlow,
    Network,
    Number,
    PseudoFlow,
    RmcifError,
    UnitFlow,
    flow_value_of,
)


class AlreadyMaximal(RmcifError):
    """No augmenting source-to-sink path exists."""


class TargetUnreachable(RmcifError):
    """Augmentation cannot raise the flow value to the requested target."""


class DegenerateCirculation(RmcifError):
    """Positive arc values remain that no source-to-sink path can drain."""


@dataclass(frozen=True)
class ResidualArc:
    """One displacement move: forward adds flow to an arc, backward removes it."""

    tail: int
    head: int
    capacity: int
    arc_index: int
    forward: bool


@dataclass(frozen=True)
class Cycle:
    """A vertex-simple residual cycle and the amount it can carry."""

    arcs: tuple[ResidualArc, ...]
    bottleneck: int


class ResidualNetwork:
    """Displacement network of an integer flow, as parallel int lists.

    Each original arc contributes a forward residual arc while spare
    capacity remains and a backward residual arc while it carries flow;
    zero-capacity residual arcs are never materialized.  Residual arc `e`
    is ``(tails[e], heads[e], capacities[e], arc_indices[e], forward[e])``,
    and residual arcs follow arc declaration order, each arc's forward
    residual before its backward one.  `arcs` and `out` are `ResidualArc`
    views over these lists, built on first access.
    """

    def __init__(self, network: Network, values: Sequence[int]):
        self.network = network
        self.vertex_count = network.vertex_count
        tails: list[int] = []
        heads: list[int] = []
        capacities: list[int] = []
        arc_indices: list[int] = []
        forward: list[bool] = []
        for i, (arc, x) in enumerate(zip(network.arcs, values)):
            free = arc.capacity - x
            if free > 0:
                tails.append(arc.tail)
                heads.append(arc.head)
                capacities.append(free)
                arc_indices.append(i)
                forward.append(True)
            if x > 0:
                tails.append(arc.head)
                heads.append(arc.tail)
                capacities.append(x)
                arc_indices.append(i)
                forward.append(False)
        self.tails = tails
        self.heads = heads
        self.capacities = capacities
        self.arc_indices = arc_indices
        self.forward = forward

    def arc(self, e: int) -> ResidualArc:
        """View of residual arc `e`."""
        return ResidualArc(
            self.tails[e], self.heads[e], self.capacities[e], self.arc_indices[e], self.forward[e]
        )

    @cached_property
    def arcs(self) -> list[ResidualArc]:
        return [self.arc(e) for e in range(len(self.tails))]

    @cached_property
    def out(self) -> list[list[ResidualArc]]:
        out: list[list[ResidualArc]] = [[] for _ in range(self.vertex_count + 1)]
        for ra in self.arcs:
            out[ra.tail].append(ra)
        return out


def residual_cost(arc: ResidualArc, costs: Sequence[int]) -> int:
    return costs[arc.arc_index] if arc.forward else -costs[arc.arc_index]


def apply_arcs(values: Sequence[int], arcs, amount: int) -> tuple[int, ...]:
    """Push `amount` along residual arcs: add on forward ones, remove on backward."""
    out = list(values)
    for a in arcs:
        if a.forward:
            out[a.arc_index] += amount
        else:
            out[a.arc_index] -= amount
    return tuple(out)


def bfs_path(out: Sequence[Sequence[ResidualArc]], source: int, sink: int):
    """Fewest-arc path from source to sink, or None if the sink is unreachable.

    First-reached wins, with adjacency scanned in declaration order, so the
    result is deterministic.
    """
    parent: dict[int, ResidualArc | None] = {source: None}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for arc in out[v]:
            h = arc.head
            if h in parent:
                continue
            parent[h] = arc
            if h == sink:
                path = []
                cur = sink
                while cur != source:
                    a = parent[cur]
                    path.append(a)
                    cur = a.tail
                path.reverse()
                return path
            queue.append(h)
    return None


def _support_out(network: Network, remaining: Sequence[int]):
    """Adjacency over arcs still carrying positive value."""
    out: list[list[ResidualArc]] = [[] for _ in range(network.vertex_count + 1)]
    for i, (arc, v) in enumerate(zip(network.arcs, remaining)):
        if v > 0:
            out[arc.tail].append(ResidualArc(arc.tail, arc.head, v, i, True))
    return out


def _augment_to_value(network: Network, values: Sequence[int], target: int) -> tuple[int, ...]:
    """Raise the flow value to `target` by augmenting paths, truncating the last push."""
    vals = list(values)
    current = flow_value_of(network, vals)
    while current < target:
        res = ResidualNetwork(network, vals)
        path = bfs_path(res.out, network.source, network.sink)
        if path is None:
            raise TargetUnreachable(
                f"cannot raise the flow value past {current} (target {target})"
            )
        push = min(min(a.capacity for a in path), target - current)
        for a in path:
            if a.forward:
                vals[a.arc_index] += push
            else:
                vals[a.arc_index] -= push
        current += push
    return tuple(vals)


def max_flow_value(network: Network) -> int:
    """Maximum source-to-sink flow value, by breadth-first augmenting paths."""
    vals = [0] * network.arc_count
    total = 0
    while True:
        res = ResidualNetwork(network, vals)
        path = bfs_path(res.out, network.source, network.sink)
        if path is None:
            return total
        push = min(a.capacity for a in path)
        for a in path:
            if a.forward:
                vals[a.arc_index] += push
            else:
                vals[a.arc_index] -= push
        total += push


def find_flow(network: Network, value: int) -> IntegerFlow:
    """An arbitrary feasible flow of the given value, built without cost data."""
    return IntegerFlow(_augment_to_value(network, [0] * network.arc_count, value))


def augment(network: Network, flow: IntegerFlow) -> IntegerFlow:
    """Push the bottleneck along one augmenting path; error if none exists."""
    res = ResidualNetwork(network, flow.values)
    path = bfs_path(res.out, network.source, network.sink)
    if path is None:
        raise AlreadyMaximal("the flow value is already maximal")
    return IntegerFlow(apply_arcs(flow.values, path, min(a.capacity for a in path)))


def sum_flows(network: Network, flows: Sequence) -> PseudoFlow:
    """Arc-wise sum of flows on one network; capacities must absorb the total."""
    if not flows:
        raise ValueError("cannot sum an empty list of flows")
    totals: list[Number] = [0] * network.arc_count
    for f in flows:
        for i, v in enumerate(f.values):
            totals[i] += v
    for i, (arc, v) in enumerate(zip(network.arcs, totals)):
        if v > arc.capacity:
            raise CapacityViolation(
                i, f"arc {i + 1}: summed value {v} exceeds capacity {arc.capacity}"
            )
    return PseudoFlow(tuple(totals))


def decompose(network: Network, flow: IntegerFlow) -> list[UnitFlow]:
    """Split an integer flow of value F into F unit-flow paths.

    Paths are extracted by repeated fewest-arc searches over the positive
    support, one unit at a time.  A flow hiding a circulation cannot be
    reassembled from paths and is rejected.
    """
    remaining = list(flow.values)
    total = flow_value_of(network, remaining)
    pieces: list[UnitFlow] = []
    for _ in range(total):
        path = bfs_path(_support_out(network, remaining), network.source, network.sink)
        if path is None:
            raise DegenerateCirculation(
                "flow value remains but no source-to-sink path is left in the support"
            )
        vals = [0] * network.arc_count
        for a in path:
            remaining[a.arc_index] -= 1
            vals[a.arc_index] = 1
        pieces.append(
            UnitFlow(tuple(vals), (network.source,) + tuple(a.head for a in path))
        )
    if any(remaining):
        raise DegenerateCirculation("leftover circulation after extracting all unit paths")
    return pieces


def center(network: Network, flows: Sequence) -> FractionalFlow:
    """Exact arc-wise mean of equal-value flows."""
    if not flows:
        raise ValueError("cannot center an empty list of flows")
    first = flow_value_of(network, flows[0].values)
    for f in flows[1:]:
        if flow_value_of(network, f.values) != first:
            raise ValueError("flows must share the same value")
    count = len(flows)
    means = tuple(
        Fraction(sum(f.values[i] for f in flows), count) for i in range(network.arc_count)
    )
    return FractionalFlow(means)


def round_flow(network: Network, flow) -> IntegerFlow:
    """Integral flow near a fractional one, of value floor(value + 1/2).

    Arc values are first rounded half-up, then unit paths are extracted from
    the rounded vector until the target is met or its support disconnects,
    and any shortfall is closed by augmentation.
    """
    half = Fraction(1, 2)
    target = math.floor(flow_value_of(network, flow.values) + half)
    rounded = [math.floor(v + half) for v in flow.values]
    extracted = [0] * network.arc_count
    got = 0
    while got < target:
        path = bfs_path(_support_out(network, rounded), network.source, network.sink)
        if path is None:
            break
        for a in path:
            rounded[a.arc_index] -= 1
            extracted[a.arc_index] += 1
        got += 1
    return IntegerFlow(_augment_to_value(network, extracted, target))


def compose(network: Network, first: Sequence[UnitFlow], second: Sequence[UnitFlow], rng) -> IntegerFlow:
    """Feasible flow built from two unit-flow lists of a common length F.

    Picks alternate between the lists (a coin flip chooses the starting
    one); each pick is drawn in seeded random order from the active list's
    unused elements and accepted only if the running sum stays within
    capacity.  A list with no acceptable element left passes its turn to
    the other; once both stall the partial sum is repaired by augmentation
    up to value F.
    """
    target = len(first)
    if target < 1 or len(second) != target:
        raise ValueError("expected two unit-flow lists of equal positive length")
    caps = [arc.capacity for arc in network.arcs]
    totals = [0] * network.arc_count
    remaining = [list(range(target)), list(range(target))]
    lists = (first, second)
    active = int(rng.integers(0, 2))
    picked = 0
    stalls = 0
    while picked < target and stalls < 2:
        pool = remaining[active]
        chosen = -1
        for j in rng.permutation(len(pool)):
            unit = lists[active][pool[int(j)]]
            if all(t + v <= c for t, v, c in zip(totals, unit.values, caps)):
                chosen = pool[int(j)]
                break
        if chosen < 0:
            stalls += 1
            active = 1 - active
            continue
        for i, v in enumerate(lists[active][chosen].values):
            totals[i] += v
        pool.remove(chosen)
        picked += 1
        stalls = 0
        active = 1 - active
    return IntegerFlow(_augment_to_value(network, totals, target))


def _predecessor_cycle(pred_vertex: Sequence[int], n: int) -> int:
    """A vertex on a cycle of the predecessor graph, or -1 if it is a forest.

    Walks toward the roots from vertices 1..n in turn, marking each walk
    with its start vertex; a walk that meets its own mark has closed a
    cycle, one that meets an earlier walk's mark or a root has not.  Every
    vertex is visited once, and the first cycle closed is returned.
    """
    mark = [0] * (n + 1)
    for s in range(1, n + 1):
        v = s
        while v > 0 and mark[v] == 0:
            mark[v] = s
            v = pred_vertex[v]
        if v > 0 and mark[v] == s:
            return v
    return -1


def negative_cycle(res: ResidualNetwork, costs: Sequence[int]):
    """First negative-total-cost residual cycle, or None when costs are optimal.

    Bellman-Ford from an implicit super-source (all distances start at 0),
    relaxing `(tail, head, signed cost)` tuples in residual arc order.  After
    every pass that lowers a distance the predecessor graph is searched for
    a cycle, and the search stops at the first one (Cherkassky & Goldberg,
    "Negative-cycle detection algorithms", Math. Prog. 85, 1999).  Such a
    cycle is always negative, and while the graph has a negative cycle
    distances keep falling until one closes, since an acyclic predecessor
    graph bounds them from below.  A pass without updates certifies that
    no negative cycle exists.
    """
    n = res.vertex_count
    edges = [
        (t, h, costs[i] if f else -costs[i], e)
        for e, (t, h, i, f) in enumerate(zip(res.tails, res.heads, res.arc_indices, res.forward))
    ]
    dist = [0] * (n + 1)
    pred = [-1] * (n + 1)
    pred_vertex = [0] * (n + 1)
    while True:
        changed = False
        for t, h, w, e in edges:
            nd = dist[t] + w
            if nd < dist[h]:
                dist[h] = nd
                pred[h] = e
                pred_vertex[h] = t
                changed = True
        if not changed:
            return None
        on_cycle = _predecessor_cycle(pred_vertex, n)
        if on_cycle > 0:
            break
    walk = [pred[on_cycle]]
    v = pred_vertex[on_cycle]
    while v != on_cycle:
        walk.append(pred[v])
        v = pred_vertex[v]
    cycle = tuple(res.arc(e) for e in reversed(walk))
    if sum(residual_cost(a, costs) for a in cycle) >= 0:
        raise AssertionError("extracted cycle is not negative")
    return Cycle(cycle, min(a.capacity for a in cycle))


def cost_reduce(network: Network, costs: Sequence[int], flow: IntegerFlow):
    """One negative-cycle cancellation under `costs`.

    Returns ``(flow, optimal)``: the input with the cycle's bottleneck pushed
    around it and ``optimal`` False, or the input unchanged and ``optimal``
    True when no negative residual cycle remains.
    """
    res = ResidualNetwork(network, flow.values)
    cyc = negative_cycle(res, costs)
    if cyc is None:
        return flow, True
    return IntegerFlow(apply_arcs(flow.values, cyc.arcs, cyc.bottleneck)), False


def dfs_cycle(vertex_count: int, out, rng):
    """Any vertex-simple cycle, by randomized depth-first search.

    Start vertices and adjacency expansions are shuffled with `rng`.  The
    degenerate two-arc cycle that immediately reverses the arc just
    traversed is skipped: pushing along it would not move any flow.
    """
    white, gray, black = 0, 1, 2
    color = [white] * (vertex_count + 1)

    def shuffled(v):
        lst = out[v]
        return [lst[int(j)] for j in rng.permutation(len(lst))]

    for s in (int(i) + 1 for i in rng.permutation(vertex_count)):
        if color[s] != white:
            continue
        color[s] = gray
        depth = {s: 0}
        path: list[ResidualArc] = []
        stack: list[tuple[int, object, ResidualArc | None]] = [(s, iter(shuffled(s)), None)]
        while stack:
            v, arc_iter, entry = stack[-1]
            advanced = False
            for arc in arc_iter:
                if (
                    entry is not None
                    and arc.arc_index == entry.arc_index
                    and arc.forward != entry.forward
                ):
                    continue
                h = arc.head
                if color[h] == gray:
                    cyc = path[depth[h]:] + [arc]
                    return Cycle(tuple(cyc), min(a.capacity for a in cyc))
                if color[h] == white:
                    color[h] = gray
                    depth[h] = len(path) + 1
                    path.append(arc)
                    stack.append((h, iter(shuffled(h)), arc))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                color[v] = black
                if path:
                    path.pop()
    return None


def perturb(network: Network, flow: IntegerFlow, rng) -> IntegerFlow:
    """Push the bottleneck around an arbitrary residual cycle.

    Returns the input unchanged when the residual network is acyclic.
    """
    res = ResidualNetwork(network, flow.values)
    cyc = dfs_cycle(res.vertex_count, res.out, rng)
    if cyc is None:
        return flow
    return IntegerFlow(apply_arcs(flow.values, cyc.arcs, cyc.bottleneck))


def harmonize(network: Network, flow: IntegerFlow, target, rng) -> IntegerFlow:
    """Perturbation restricted to moves that pull `flow` onto `target`'s support.

    The cycle search runs on a customized displacement network: forward
    residual arcs exist only where `target` carries flow, backward ones only
    where it does not, so a push never reduces support agreement.
    """
    out: list[list[ResidualArc]] = [[] for _ in range(network.vertex_count + 1)]
    for i, (arc, x, t) in enumerate(zip(network.arcs, flow.values, target.values)):
        if t > 0 and arc.capacity - x > 0:
            out[arc.tail].append(ResidualArc(arc.tail, arc.head, arc.capacity - x, i, True))
        if t == 0 and x > 0:
            out[arc.head].append(ResidualArc(arc.head, arc.tail, x, i, False))
    cyc = dfs_cycle(network.vertex_count, out, rng)
    if cyc is None:
        return flow
    return IntegerFlow(apply_arcs(flow.values, cyc.arcs, cyc.bottleneck))


def min_cost_flow(network: Network, costs: Sequence[int], value: int) -> IntegerFlow:
    """Minimum-cost flow of the given value under one cost vector.

    A feasible flow is built by augmentation, then negative residual cycles
    are cancelled to a fixpoint; the absence of such a cycle certifies
    optimality.
    """
    flow = find_flow(network, value)
    while True:
        flow, optimal = cost_reduce(network, costs, flow)
        if optimal:
            return flow
