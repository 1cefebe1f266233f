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
- A search records, for each vertex it reaches, only the signed code of
  the move that reached it (``i`` forward, ``~i`` backward; Ahuja,
  Magnanti & Orlin 1993, §4.3).  Every residual search reads its walk
  back through one function, `_path_to`, which turns the codes into
  triples: from the sink to the source for a path, and once around for a
  cycle.  The fewest-arc search (`fewest_arc_path`), `min_cost_flow`'s
  Dijkstra search over reduced costs with node potentials
  (`_cheapest_path`, §9.7), the negative-cycle kernel and the random
  cycle search (`dfs_cycle`) walk `Network.residual_adjacency` or its
  arc records; the peel's search (`_support_path`) walks forward arcs
  only (`out_arcs` and `heads`) and reads its path back inline.
- Both fewest-arc searches test for the sink when they reach a vertex,
  not when they expand it (Russell & Norvig, *AIMA*, §3.4.1): they stop
  at the first reached vertex with a move into the sink that has room
  (`Network.into_sink`), the source included.  Breadth-first search
  expands vertices in the order it reaches them, so a search that went
  on would reach the sink from that vertex, by its first such move: the
  path is the same, and the rest of that vertex's level goes unscanned.
- `center` sums arc values and `round_flow` rounds the mean half-up in
  integer arithmetic, so no rational number is ever built.
- `compose` checks capacity on a unit path's own arcs only, against a
  count of the room left on each arc, and scans each list once in one
  random order drawn per call.  Once all F unit paths are placed their
  sum is the flow, returned without entering the augmenting loop.
- `perturb` and `harmonize` push around the cycle of a randomized
  depth-first search that keeps, besides the codes, one mark per vertex
  (on the walk, or finished) and filters a vertex's moves only when it
  expands the vertex.
- The negative-cycle kernel of the descent (`cost_reduce`) builds no
  residual edge list: each Bellman-Ford pass reads one cached ``(arc
  index, tail, head, capacity)`` record per arc (`Network.arc_rows`)
  next to the flow's value and the arc's cost, and relaxes the arc's
  forward and backward moves from them; `_path_to` makes ``(arc index,
  forward, room)`` triples only for the cycle it returns.  It stops at
  the first pass whose predecessor graph closes a cycle (Cherkassky &
  Goldberg, "Negative-cycle detection algorithms", Math. Prog. 85, 1999)
  instead of running all n passes.  `cost_reduce` hands back the arc changes of
  the cycle it cancels next to the new flow (Ahuja, Magnanti & Orlin
  1993, §9.6), so a caller that carries a per-scenario cost vector
  advances it over those few arcs instead of comparing whole flows.

A flow is a plain tuple of integer arc values in arc declaration order,
the shape of `Network.capacities`, and every procedure here takes and
returns flows as such tuples.  An exported procedure raises
`InvalidParameter` on a flow, cost row, totals or target vector whose
length is not the arc count (`check_length`), rather than let a zip cut
it short.  All procedures are pure: they return new flows and never
mutate their inputs.  Randomized ones take an explicit numpy Generator.
Deterministic tie-breaking follows arc declaration order throughout
(adjacency lists, scan orders and breadth-first expansions are all built
in that order).
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
    check_costs,
    check_integer,
    check_length,
    flow_value_of,
)


class TargetUnreachable(RmcifError):
    """Augmentation cannot raise the flow value to the requested target."""


def _path_to(network: Network, via, values: Sequence[int], v: int, start: int) -> list[tuple[int, bool, int]]:
    """The residual walk of `values` that a search's `via` records lead back
    from `v` to `start`, as ``(arc index, forward, room)`` triples in walk
    order.

    A reached vertex's record is the signed code of the move that reached
    it: ``i`` for the forward move on arc ``i``, ``~i`` for the backward
    one.  At least one move is read, and reading stops on reaching `start`:
    with `start` the source it is the path to `v`, with `start` equal to
    `v` the cycle through `v` whose records close on it.  Rooms are read
    off `values`, which the search did not change.
    """
    tails, heads, caps = network.tails, network.heads, network.capacities
    path = []
    while True:
        i = via[v]
        if i >= 0:
            path.append((i, True, caps[i] - values[i]))
            v = tails[i]
        else:
            i = ~i
            path.append((i, False, values[i]))
            v = heads[i]
        if v == start:
            break
    path.reverse()
    return path


def fewest_arc_path(network: Network, values: Sequence[int]):
    """Fewest-arc source-to-sink residual path of `values`, or None.

    A forward move on arc ``i`` has room ``capacity[i] - values[i]``, a
    backward one ``values[i]``; moves without room are skipped.  The path
    comes back as ``(arc index, forward, room)`` triples.  First-reached
    wins, with `Network.residual_adjacency` scanned in order, so the result
    is deterministic and depends only on which moves have room.

    The sink is tested for when a vertex is reached, not when it is
    expanded: the search returns as soon as it reaches a vertex with a
    move into the sink that has room (`Network.into_sink`), and takes the
    first such move.  Vertices are expanded in the order they are reached,
    so a search that went on would reach the sink first from that vertex,
    by that move: the path is the same, and the rest of the vertex's level
    is never scanned (Russell & Norvig, *AIMA*, §3.4.1).
    """
    adjacency, into_sink, caps = network.residual_adjacency, network.into_sink, network.capacities
    source, sink = network.source, network.sink
    via: list[int | None] = [None] * len(adjacency)
    via[source] = -1  # marks the source reached; never read back
    for j, last in into_sink[source]:
        if (caps[j] - values[j] if last else values[j]) > 0:
            via[sink] = j if last else ~j
            return _path_to(network, via, values, sink, source)
    queue = [source]
    for v in queue:
        # v was tested when reached: none of its moves into the sink has room
        for i, forward, h in adjacency[v]:
            if via[h] is not None or (caps[i] - values[i] if forward else values[i]) <= 0:
                continue
            via[h] = i if forward else ~i
            for j, last in into_sink[h]:
                if (caps[j] - values[j] if last else values[j]) > 0:
                    via[sink] = j if last else ~j
                    return _path_to(network, via, values, sink, source)
            queue.append(h)
    return None


def _support_path(network: Network, remaining: Sequence[int]):
    """Fewest-arc source-to-sink path over arcs with positive `remaining`, or None.

    Arcs are scanned in `out_arcs` order and the first vertex reached
    wins, so this is `fewest_arc_path` at the zero flow of a network whose
    capacities are `remaining`, where no backward move has room.  It tests
    for the sink in the same way, when a vertex is reached: the first
    reached vertex whose arc into the sink has positive `remaining` is the
    one a search that went on would reach the sink from, by that arc.
    Peeling calls it again after each bottleneck, and it sees the same
    support until some arc on the path runs out: the path's smallest
    remaining value, capped by the units still wanted, is how many times
    in a row a one-unit-at-a-time extraction would return this path.
    """
    out_arcs, tails, heads, into_sink = network.out_arcs, network.tails, network.heads, network.into_sink
    source = network.source
    for i, forward in into_sink[source]:
        if forward and remaining[i] > 0:
            return [(i, True, remaining[i])]
    via: list[int | None] = [None] * len(out_arcs)  # the arc that reached each vertex
    via[source] = -1  # marks the source reached; never read back
    queue = [source]
    for v in queue:
        for i in out_arcs[v]:
            h = heads[i]
            if via[h] is not None or remaining[i] <= 0:
                continue
            via[h] = i
            for j, forward in into_sink[h]:
                if forward and remaining[j] > 0:
                    path = [(j, True, remaining[j])]
                    while h != source:
                        i = via[h]
                        path.append((i, True, remaining[i]))
                        h = tails[i]
                    path.reverse()
                    return path
            queue.append(h)
    return None


def _cheapest_path(network: Network, costs: Sequence[int], potential: list, values: Sequence[int]):
    """Cheapest source-to-sink residual path of `values` under `costs`, or None.

    Dijkstra's search over nonnegative reduced costs ``cost +
    potential[tail] - potential[head]``, stopped once it settles the sink,
    with ties broken by vertex number and adjacency order.  Every reduced
    cost on a move with room is nonnegative, so no vertex at a distance up
    to the expanded one's can improve: its moves in are skipped, a heap
    entry above its vertex's distance is stale and skipped too, and the
    sink is unreachable exactly when its distance stays infinite.  Each
    potential then grows in place by its vertex's distance capped at the
    sink's, which keeps every reduced cost nonnegative and those on the
    path zero.
    """
    adjacency, caps = network.residual_adjacency, network.capacities
    source, sink = network.source, network.sink
    dist = [math.inf] * len(adjacency)
    via: list[int | None] = [None] * len(adjacency)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        if v == sink:
            break
        base = d + potential[v]
        for i, forward, h in adjacency[v]:
            if dist[h] <= d:
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
                via[h] = i if forward else ~i
                heappush(heap, (nd, h))
    reach = dist[sink]
    if reach == math.inf:
        return None
    potential[:] = [p + min(d, reach) for p, d in zip(potential, dist)]
    return _path_to(network, via, values, sink, source)


def _push(values: list[int], path, amount: int) -> None:
    """Move `amount` along a path or cycle of triples, in place."""
    for i, forward, _ in path:
        values[i] += amount if forward else -amount


def _push_room(values: Sequence[int], path):
    """The flow `values` with the smallest room of `path` pushed along it, as
    a tuple; `values` itself when `path` is None."""
    if path is None:
        return values
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
    """An arbitrary feasible flow of the given value, built without cost data;
    `value` is judged by `check_integer`."""
    value = check_integer(value, "flow value")
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
    check_length(flow, network.arc_count, "flow values")
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
    for f in flows:
        check_length(f, network.arc_count, "flow values")
    if len({flow_value_of(network, f) for f in flows}) > 1:
        raise InvalidParameter("flows must share the same value")
    return tuple(map(sum, zip(*flows))), len(flows)


def round_flow(network: Network, totals: Sequence[int], count: int) -> tuple[int, ...]:
    """Integral flow near the mean ``totals / count``, of value floor(value + 1/2).

    Every arc mean ``t / count``, and the mean's value, is rounded half-up
    as ``(2·t + count) // (2·count)``, which is ``floor(t / count + 1/2)``
    in integer arithmetic.  Unit paths are then peeled from the rounded
    vector, whole bottlenecks at a time (see `_support_path`), until the
    target is met or its support disconnects, and any shortfall is closed
    by augmentation.  `count` must be a positive integer (`check_integer`).
    """
    check_length(totals, network.arc_count, "totals")
    count = check_integer(count, "count", 1)
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
    import numpy as np  # loaded already: `rng` is a numpy Generator

    target = len(first)
    if target < 1 or len(second) != target:
        raise InvalidParameter("expected two unit-path lists of equal positive length")
    caps = network.capacities
    room = list(caps)
    active = int(rng.integers(0, 2))
    lists = (first, second)
    # both scan orders in one call, the stream of two `rng.permutation(target)`
    orders = rng.permuted(np.arange(target)[None].repeat(2, 0), axis=1).tolist()
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
    forward, ``~i`` backward), and `_path_to` makes triples only for the
    returned cycle.  After every pass that lowers a distance the
    predecessor graph is searched for a cycle, and the search stops at the
    first one (Cherkassky & Goldberg, "Negative-cycle detection
    algorithms", Math. Prog. 85, 1999).  Such a cycle is always negative, and while the graph
    has a negative cycle distances keep falling until one closes, since an
    acyclic predecessor graph bounds them from below.  A pass without
    updates certifies that no negative cycle exists.
    """
    n = network.vertex_count
    check_length(costs, network.arc_count, "costs")
    check_length(values, network.arc_count, "flow values")
    rows = network.arc_rows
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
    cycle = _path_to(network, pred, values, on_cycle, on_cycle)
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
    there is none.  A list of fewer than two moves is kept as it is: a
    permutation of it draws nothing from `rng`, so the stream is the same.

    The search keeps one signed move code per reached vertex, as the path
    searches do, and marks each vertex on the walk or finished (Tarjan,
    "Depth-first search and linear graph algorithms", SIAM J. Comput.
    1972).  A move onto a vertex still on the walk closes a cycle: it
    becomes that vertex's code, and `_path_to` reads the cycle back.
    """
    adjacency, caps = network.residual_adjacency, network.capacities
    via = [0] * (network.vertex_count + 1)  # the signed code of the move that reached a vertex
    on_walk: list[bool | None] = [None] * (network.vertex_count + 1)  # False once finished

    def shuffled(v):
        moves = []
        for move in adjacency[v]:
            i, forward, _ = move
            room = caps[i] - values[i] if forward else values[i]
            if room > 0 and (target is None or (target[i] > 0) == forward):
                moves.append(move)
        if len(moves) < 2:
            return iter(moves)
        return iter([moves[j] for j in rng.permutation(len(moves)).tolist()])

    for s in (i + 1 for i in rng.permutation(network.vertex_count).tolist()):
        if on_walk[s] is not None:
            continue
        on_walk[s] = True
        stack = [(s, shuffled(s), -1)]  # a vertex on the walk, its unread moves, its entry arc
        while stack:
            v, moves, entry = stack[-1]
            for i, forward, h in moves:
                # a vertex lists each arc at most once, so arc `entry` is
                # the entry arc taken back
                if i == entry or on_walk[h] is False:
                    continue
                via[h] = i if forward else ~i
                if on_walk[h]:
                    return _path_to(network, via, values, h, h)
                on_walk[h] = True
                stack.append((h, shuffled(h), i))
                break
            else:
                stack.pop()
                on_walk[v] = False
    return None


def perturb(network: Network, flow: tuple[int, ...], rng) -> tuple[int, ...]:
    """Push the smallest room around an arbitrary residual cycle.

    Returns the input object itself when the residual network is acyclic.
    """
    check_length(flow, network.arc_count, "flow values")
    return _push_room(flow, dfs_cycle(network, flow, rng))


def harmonize(network: Network, flow: tuple[int, ...], target, rng) -> tuple[int, ...]:
    """Perturbation restricted to moves that pull `flow` onto `target`'s support.

    The cycle search runs on a customized displacement network: forward
    residual arcs exist only where `target` carries flow, backward ones only
    where it does not, so a push never reduces support agreement.  Returns
    the input object itself when no such cycle exists.
    """
    check_length(target, network.arc_count, "target values")
    return _push_room(flow, dfs_cycle(network, flow, rng, target))


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
    row that `check_costs` rejects (a cost that is negative or not an
    integer, or not one cost per arc) or a `value` that `check_integer` does.
    """
    costs = check_costs(costs, network.arc_count)
    value = check_integer(value, "flow value")
    potential = [0] * (network.vertex_count + 1)
    return _augment_to_value(
        network, [0] * network.arc_count, value, partial(_cheapest_path, network, costs, potential)
    )
