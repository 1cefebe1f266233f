"""Integer-flow procedures: the building blocks of the heuristic solvers.

They are path decomposition, integer centring and rounding, augmentation
to a target value, composition of unit-path lists, negative-cycle cost
reduction, random perturbation, harmonization toward another flow's
support, feasible-flow construction and single-scenario minimum-cost
flow.

Every path and cycle is a list of ``(arc index, forward, room)`` triples:
a forward move adds flow to its arc, a backward one removes it, and room
is how much the move can carry.  A unit path, as `decompose` returns it
and `compose` takes it, is the tuple of its arc indices in walk order.

- One augmenting loop, `_push_paths`, asks a path search for a path and
  moves its bottleneck, capped by the units still wanted, until no path
  is left.  Through `_augment_to_value` it augments in `find_flow`,
  `min_cost_flow` and the repair step of `round_flow` and `compose`; it
  also sums `max_flow_value` and peels paths out of a flow in `decompose`
  and `round_flow` (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 3).
- Its path searches share one read-back (`_path_to`).  The fewest-arc
  search (`fewest_arc_path`) and `min_cost_flow`'s Dijkstra search over
  reduced costs with node potentials (`_cheapest_path`, Ahuja, Magnanti &
  Orlin 1993, §9.7) walk `Network.residual_adjacency`; the peel's search
  (`_support_path`) walks forward arcs only (`out_arcs` and `heads`).
- `center` sums arc values and `round_flow` rounds the mean half-up in
  integer arithmetic, so no rational number is ever built.
- `compose` checks capacity on a unit path's own arcs only, against a
  count of the room left on each arc, and scans each list once in one
  random order drawn per call.  Once all F unit paths are placed their
  sum is the flow, returned without entering the augmenting loop.
- `perturb` and `harmonize` read `Network.residual_adjacency` too, and
  filter a vertex's moves only when the cycle search expands it.
- The negative-cycle kernel of the descent (`cost_reduce`) builds no
  residual edge list: each Bellman-Ford pass reads one cached ``(arc
  index, tail, head, capacity)`` record per arc (`Network.arc_rows`)
  next to the flow's value and the arc's cost, and relaxes the arc's
  forward and backward moves from them; ``(arc index, forward, room)``
  triples are made only for the cycle it returns.  It stops at the first
  pass whose predecessor graph closes a cycle (Cherkassky & Goldberg,
  "Negative-cycle detection algorithms", Math. Prog. 85, 1999) instead
  of running all n passes.  `cost_reduce` hands back the arc changes of
  the cycle it cancels next to the new flow (Ahuja, Magnanti & Orlin
  1993, §9.6), so a caller that carries a per-scenario cost vector
  advances it over those few arcs instead of comparing whole flows.

A flow is a plain tuple of integer arc values in arc declaration order,
the shape of `Network.capacities`, and every procedure here takes and
returns flows as such tuples.  All procedures are pure: they return new
flows and never mutate their inputs.  Randomized ones take an explicit
numpy Generator.  Deterministic tie-breaking follows arc declaration
order throughout (adjacency lists, scan orders and breadth-first
expansions are all built in that order).
"""
from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from operator import sub
from typing import Sequence

from .core import (
    ConservationViolation,
    InvalidParameter,
    Network,
    RmcifError,
    check_arc_values,
    flow_value_of,
)


class TargetUnreachable(RmcifError):
    """Augmentation cannot raise the flow value to the requested target."""


def _path_to(via, source: int, sink: int) -> list[tuple[int, bool, int]]:
    """The path back from `sink` to `source` along a search's `via` records,
    ``(tail, arc index, forward, room)`` per reached vertex, as ``(arc
    index, forward, room)`` triples in walk order."""
    path = []
    h = sink
    while h != source:
        h, i, forward, room = via[h]
        path.append((i, forward, room))
    path.reverse()
    return path


def fewest_arc_path(network: Network, values: Sequence[int]):
    """Fewest-arc source-to-sink residual path of `values`, or None.

    A forward move on arc ``i`` has room ``capacity[i] - values[i]``, a
    backward one ``values[i]``; moves without room are skipped.  The path
    comes back as ``(arc index, forward, room)`` triples.  First-reached
    wins, with `Network.residual_adjacency` scanned in order, so the result
    is deterministic and depends only on which moves have room.
    """
    adjacency, caps = network.residual_adjacency, network.capacities
    source, sink = network.source, network.sink
    via: list[tuple[int, int, bool, int] | None] = [None] * len(adjacency)
    reached = [False] * len(adjacency)
    reached[source] = True
    queue = [source]
    for v in queue:
        for i, forward, h in adjacency[v]:
            if reached[h]:
                continue
            room = caps[i] - values[i] if forward else values[i]
            if room <= 0:
                continue
            reached[h] = True
            via[h] = (v, i, forward, room)
            if h == sink:
                return _path_to(via, source, sink)
            queue.append(h)
    return None


def _support_path(network: Network, remaining: Sequence[int]):
    """Fewest-arc source-to-sink path over arcs with positive `remaining`, or None.

    Arcs are scanned in `out_arcs` order and the first vertex reached
    wins, so this is `fewest_arc_path` at the zero flow of a network whose
    capacities are `remaining`, where no backward move has room.  Peeling
    calls it again after each bottleneck, and it sees the same support
    until some arc on the path runs out: the path's smallest remaining
    value, capped by the units still wanted, is how many times in a row a
    one-unit-at-a-time extraction would return this path.
    """
    out_arcs, heads = network.out_arcs, network.heads
    source, sink = network.source, network.sink
    via: list[tuple[int, int, bool, int] | None] = [None] * len(out_arcs)
    reached = [False] * len(out_arcs)
    reached[source] = True
    queue = [source]
    for v in queue:
        for i in out_arcs[v]:
            h = heads[i]
            if reached[h] or remaining[i] <= 0:
                continue
            reached[h] = True
            via[h] = (v, i, True, remaining[i])
            if h == sink:
                return _path_to(via, source, sink)
            queue.append(h)
    return None


def _cheapest_path(network: Network, costs: Sequence[int], potential: list, values: Sequence[int]):
    """Cheapest source-to-sink residual path of `values` under `costs`, or None.

    Dijkstra's search over nonnegative reduced costs ``cost +
    potential[tail] - potential[head]``, stopped once it settles the sink,
    with ties broken by vertex number and adjacency order.  Each potential
    then grows in place by its vertex's distance capped at the sink's,
    which keeps every reduced cost nonnegative and those on the path zero.
    """
    adjacency, caps = network.residual_adjacency, network.capacities
    source, sink = network.source, network.sink
    dist = [math.inf] * len(adjacency)
    via: list[tuple[int, int, bool, int] | None] = [None] * len(adjacency)
    settled = [False] * len(adjacency)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        if v == sink:
            break
        base = d + potential[v]
        for i, forward, h in adjacency[v]:
            if settled[h]:
                continue
            if forward:
                room, step = caps[i] - values[i], costs[i]
            else:
                room, step = values[i], -costs[i]
            if room <= 0:
                continue
            nd = base + step - potential[h]
            if nd < dist[h]:
                dist[h] = nd
                via[h] = (v, i, forward, room)
                heappush(heap, (nd, h))
    if not settled[sink]:
        return None
    reach = dist[sink]
    potential[:] = [p + min(d, reach) for p, d in zip(potential, dist)]
    return _path_to(via, source, sink)


def _push(values: list[int], path, amount: int) -> None:
    """Move `amount` along a path or cycle of triples, in place."""
    for i, forward, _ in path:
        values[i] += amount if forward else -amount


def _push_room(values: Sequence[int], path) -> tuple[int, ...]:
    """The flow `values` with the smallest room of `path` pushed along it."""
    vals = list(values)
    _push(vals, path, min(room for _, _, room in path))
    return tuple(vals)


def _push_paths(values: list[int], find_path, units, direction: int):
    """Move path bottlenecks through `values`, in place, up to `units` in all.

    The one augmenting loop.  Each round asks ``find_path(values)`` for a
    path of ``(arc index, forward, room)`` triples, stops when it returns
    None, and moves the path's smallest room, capped by the units still
    wanted, along it: forward with `direction` 1 to augment, backward
    with -1 to peel the path out of a flow.  Yields ``(path, amount)``
    after each move.
    """
    while units > 0:
        path = find_path(values)
        if path is None:
            return
        amount = min(min(room for _, _, room in path), units)
        _push(values, path, direction * amount)
        units -= amount
        yield path, amount


def _augment_to_value(
    network: Network, values: Sequence[int], target: int, find_path
) -> tuple[int, ...]:
    """Raise the flow value to `target` along `find_path`'s paths, truncating the last push."""
    vals = list(values)
    start = flow_value_of(network, vals)
    reached = start + sum(amount for _, amount in _push_paths(vals, find_path, target - start, 1))
    if reached < target:
        raise TargetUnreachable(f"cannot raise the flow value past {reached} (target {target})")
    return tuple(vals)


def max_flow_value(network: Network) -> int:
    """Maximum source-to-sink flow value: augment until no path is left."""
    paths = _push_paths([0] * network.arc_count, partial(fewest_arc_path, network), math.inf, 1)
    return sum(amount for _, amount in paths)


def find_flow(network: Network, value: int) -> tuple[int, ...]:
    """An arbitrary feasible flow of the given value, built without cost data."""
    zeros = [0] * network.arc_count
    return _augment_to_value(network, zeros, value, partial(fewest_arc_path, network))


def decompose(network: Network, flow: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Split an integer flow of value F into F unit paths.

    Each unit path is the tuple of its arc indices in walk order, from the
    source to the sink.  Paths come from repeated fewest-arc searches over
    the positive support (`_support_path`), each peeled off as many times
    as it can carry; the copies of one path share one tuple.  The list is
    the one that extracting a unit at a time would give.  By the flow
    decomposition theorem the rest of a conserving flow is a circulation;
    it is left out, so composing the paths gives the flow's path part.
    Non-conserving input, whose value no path can drain, raises
    `ConservationViolation` at the first inner vertex out of balance in
    what is left: were what is left conserving, its positive value would
    still hold a source-to-sink path.
    """
    remaining = list(flow)
    total = flow_value_of(network, remaining)
    pieces: list[tuple[int, ...]] = []
    for path, copies in _push_paths(remaining, partial(_support_path, network), total, -1):
        pieces.extend([tuple(i for i, _, _ in path)] * copies)
    if len(pieces) < total:
        ends = (network.source, network.sink)
        balance = check_arc_values(network, remaining)
        raise ConservationViolation(
            next(v for v, b in enumerate(balance) if b and v not in ends)
        )
    return pieces


def center(network: Network, flows: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], int]:
    """Arc-wise totals of equal-value flows, and their count.

    The arc-wise mean is ``totals / count``; `round_flow` rounds it.
    """
    if not flows:
        raise InvalidParameter("cannot center an empty list of flows")
    first = flow_value_of(network, flows[0])
    for f in flows[1:]:
        if flow_value_of(network, f) != first:
            raise InvalidParameter("flows must share the same value")
    return tuple(map(sum, zip(*flows))), len(flows)


def round_flow(network: Network, totals: Sequence[int], count: int) -> tuple[int, ...]:
    """Integral flow near the mean ``totals / count``, of value floor(value + 1/2).

    Every arc mean ``t / count``, and the mean's value, is rounded half-up
    as ``(2·t + count) // (2·count)``, which is ``floor(t / count + 1/2)``
    in integer arithmetic.  Unit paths are then peeled from the rounded
    vector, whole bottlenecks at a time (see `_support_path`), until the
    target is met or its support disconnects, and any shortfall is closed
    by augmentation.
    """
    target = (2 * flow_value_of(network, totals) + count) // (2 * count)
    rounded = [(2 * t + count) // (2 * count) for t in totals]
    extracted = [0] * network.arc_count
    for path, copies in _push_paths(rounded, partial(_support_path, network), target, -1):
        _push(extracted, path, copies)
    return _augment_to_value(network, extracted, target, partial(fewest_arc_path, network))


def compose(network: Network, first: Sequence[tuple[int, ...]], second: Sequence[tuple[int, ...]], rng) -> tuple[int, ...]:
    """Feasible flow built from two unit-path lists of a common length F.

    Picks alternate between the lists (a coin flip chooses the starting
    one).  Each list is scanned once, in one seeded random order drawn per
    call, and the next element whose unit path fits is picked; capacity is
    checked on the unit path's own arcs.  The running sum only grows, so
    an element that does not fit never fits later in the call, and the
    scan skips it for good: each pick is uniform over the acceptable
    unused elements, as one fresh order per pick would make it.
    A list with no acceptable element left passes its turn to the other;
    once both stall the partial sum is repaired by augmentation up to
    value F.  The room left on each arc is counted down as paths are
    placed, and a path fits while none of its arcs reads 0.  F placed
    unit paths already make a flow of value F, returned as it is.
    """
    target = len(first)
    if target < 1 or len(second) != target:
        raise InvalidParameter("expected two unit-path lists of equal positive length")
    caps = network.capacities
    room = list(caps)
    active = int(rng.integers(0, 2))
    lists = (first, second)
    orders = (rng.permutation(target).tolist(), rng.permutation(target).tolist())
    cursors = [0, 0]
    picked = 0
    stalls = 0
    while picked < target and stalls < 2:
        units, order = lists[active], orders[active]
        j = cursors[active]
        while j < target and 0 in map(room.__getitem__, units[order[j]]):
            j += 1
        cursors[active] = j + 1
        if j >= target:
            stalls += 1
            active = 1 - active
            continue
        for i in units[order[j]]:
            room[i] -= 1
        picked += 1
        stalls = 0
        active = 1 - active
    totals = tuple(map(sub, caps, room))
    if picked == target:
        return totals
    return _augment_to_value(network, totals, target, partial(fewest_arc_path, network))


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


def negative_cycle(network: Network, values: Sequence[int], costs: Sequence[int]):
    """First negative-total-cost residual cycle of `values`, or None when
    costs are optimal.

    The cycle comes back as ``(arc index, forward, room)`` triples, in the
    order they are walked.  Bellman-Ford runs from an implicit super-source
    (all distances start at 0).  Each pass walks `Network.arc_rows`, one
    ``(arc index, tail, head, capacity)`` record per arc in declaration
    order, alongside `values` and `costs`, and tries an arc's forward move
    when it has spare capacity, then its backward move when it carries
    flow; every relaxation is a strict improvement.  No residual
    edge list is built; a vertex's predecessor is a signed arc code (``i``
    forward, ``~i`` backward), and triples are made only for the returned
    cycle.  After every pass that lowers a distance the predecessor graph
    is searched for a cycle, and the search stops at the first one
    (Cherkassky & Goldberg, "Negative-cycle detection algorithms", Math.
    Prog. 85, 1999).  Such a cycle is always negative, and while the graph
    has a negative cycle distances keep falling until one closes, since an
    acyclic predecessor graph bounds them from below.  A pass without
    updates certifies that no negative cycle exists.
    """
    n = network.vertex_count
    rows, caps = network.arc_rows, network.capacities
    dist = [0] * (n + 1)
    pred = [0] * (n + 1)
    pred_vertex = [0] * (n + 1)
    while True:
        changed = False
        for (i, t, h, cap), x, c in zip(rows, values, costs):
            if x < cap:
                nd = dist[t] + c
                if nd < dist[h]:
                    dist[h] = nd
                    pred[h] = i
                    pred_vertex[h] = t
                    changed = True
            if x > 0:
                nd = dist[h] - c
                if nd < dist[t]:
                    dist[t] = nd
                    pred[t] = ~i
                    pred_vertex[t] = h
                    changed = True
        if not changed:
            return None
        on_cycle = _predecessor_cycle(pred_vertex, n)
        if on_cycle > 0:
            break
    cycle = []
    v = on_cycle
    while True:
        i = pred[v]
        cycle.append((i, True, caps[i] - values[i]) if i >= 0 else (~i, False, values[~i]))
        v = pred_vertex[v]
        if v == on_cycle:
            break
    cycle.reverse()
    if sum(costs[i] if forward else -costs[i] for i, forward, _ in cycle) >= 0:
        raise AssertionError("extracted cycle is not negative")
    return cycle


def cost_reduce(network: Network, costs: Sequence[int], flow: tuple[int, ...]):
    """One negative-cycle cancellation under `costs`.

    Returns ``(flow, optimal, changes)``.  When `negative_cycle` finds a
    cycle, `flow` is the input with the cycle's smallest room pushed around
    it, `optimal` is False, and `changes` lists the ``(arc index, signed
    amount)`` pair of each move in walk order: the room pushed on a forward
    move, its negation on a backward one.  Adding each amount to its arc of
    the input gives the returned flow.  When no negative residual cycle
    remains, it returns the input object itself, True and an empty list.
    """
    cycle = negative_cycle(network, flow, costs)
    if cycle is None:
        return flow, True, []
    amount = min(room for _, _, room in cycle)
    values = list(flow)
    _push(values, cycle, amount)
    return tuple(values), False, [(i, amount if forward else -amount) for i, forward, _ in cycle]


def dfs_cycle(network: Network, values: Sequence[int], rng, target: Sequence[int] | None = None):
    """Any vertex-simple residual cycle of `values`, by randomized depth-first search.

    A vertex's moves are read off `Network.residual_adjacency` when the
    search expands it, keeping those with room.  With `target`, only moves
    toward its support are kept: forward ones where `target` carries flow,
    backward ones where it does not.  Start vertices and each vertex's kept
    moves are shuffled with `rng`.  The degenerate two-arc cycle that
    immediately reverses the arc just traversed is skipped: pushing along
    it would not move any flow.  The cycle comes back as ``(arc index,
    forward, room)`` triples, in the order they are walked, or None if
    there is none.
    """
    white, gray, black = 0, 1, 2
    color = [white] * (network.vertex_count + 1)
    adjacency, caps = network.residual_adjacency, network.capacities

    def shuffled(v):
        moves = []
        for i, forward, h in adjacency[v]:
            room = caps[i] - values[i] if forward else values[i]
            if room > 0 and (target is None or (target[i] > 0) == forward):
                moves.append((i, forward, room, h))
        return [moves[j] for j in rng.permutation(len(moves)).tolist()]

    for s in (i + 1 for i in rng.permutation(network.vertex_count).tolist()):
        if color[s] != white:
            continue
        color[s] = gray
        depth = {s: 0}
        # moves from s to the vertex on top of the stack
        path: list[tuple[int, bool, int, int]] = []
        stack: list[tuple[int, object, int]] = [(s, iter(shuffled(s)), -1)]
        while stack:
            v, move_iter, entry = stack[-1]
            advanced = False
            for move in move_iter:
                i, h = move[0], move[3]
                # a vertex lists each arc at most once, so this is the
                # entry arc taken back
                if i == entry:
                    continue
                if color[h] == gray:
                    return [m[:3] for m in path[depth[h]:] + [move]]
                if color[h] == white:
                    color[h] = gray
                    depth[h] = len(path) + 1
                    path.append(move)
                    stack.append((h, iter(shuffled(h)), i))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                color[v] = black
                if path:
                    path.pop()
    return None


def perturb(network: Network, flow: tuple[int, ...], rng) -> tuple[int, ...]:
    """Push the smallest room around an arbitrary residual cycle.

    Returns the input object itself when the residual network is acyclic.
    """
    cycle = dfs_cycle(network, flow, rng)
    if cycle is None:
        return flow
    return _push_room(flow, cycle)


def harmonize(network: Network, flow: tuple[int, ...], target, rng) -> tuple[int, ...]:
    """Perturbation restricted to moves that pull `flow` onto `target`'s support.

    The cycle search runs on a customized displacement network: forward
    residual arcs exist only where `target` carries flow, backward ones only
    where it does not, so a push never reduces support agreement.  Returns
    the input object itself when no such cycle exists.
    """
    cycle = dfs_cycle(network, flow, rng, target)
    if cycle is None:
        return flow
    return _push_room(flow, cycle)


def min_cost_flow(network: Network, costs: Sequence[int], value: int) -> tuple[int, ...]:
    """Minimum-cost flow of the given value under one nonnegative cost vector.

    Successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*,
    1993, §9.7): from the zero flow, each `_cheapest_path` carries its
    bottleneck, capped by the value still missing.  Costs are nonnegative,
    so zero potentials start every reduced cost nonnegative, cycles in the
    network included.  Each path is a cheapest one, so the flow of every
    value reached is a cheapest one (no negative residual cycle ever
    forms), and the witness is deterministic.  Raises `TargetUnreachable`
    when `value` exceeds the maximum flow value and `InvalidParameter` on a
    negative cost.
    """
    if any(c < 0 for c in costs):
        raise InvalidParameter("min_cost_flow needs nonnegative costs")
    potential = [0] * (network.vertex_count + 1)
    return _augment_to_value(
        network, [0] * network.arc_count, value, partial(_cheapest_path, network, costs, potential)
    )
