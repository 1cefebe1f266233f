"""Domain model for the robust minimum-cost integer flow problem.

An instance couples a capacitated directed network with a finite set of
arc-cost scenarios and a required flow value.  Vertex 1 is always the
source and vertex n the sink; arcs, capacities and costs are integers.
Two robust objectives are supported downstream: the worst scenario cost
("absolute") and the worst regret against the per-scenario optima
("deviation").

A flow is a plain tuple of integer arc values in arc declaration order.
Instances travel as plain-text ``.rmcif`` files (see `parse_instance`),
solutions as ``.sol`` files (see `format_solution`), which the package
writes and never reads back.  Vertices, arcs and
scenarios are numbered from 1 in files and error messages.
"""
from __future__ import annotations

from functools import cached_property
from operator import index
from typing import NamedTuple, Sequence

ABSOLUTE = "absolute"
DEVIATION = "deviation"
VARIANTS = (ABSOLUTE, DEVIATION)

LS_SOLVERS = ("ls1", "ls2", "ls3", "ls4")
EC_SOLVERS = tuple(f"ec{i}" for i in range(1, 10))
HEURISTIC_SOLVERS = LS_SOLVERS + EC_SOLVERS
ALL_SOLVERS = HEURISTIC_SOLVERS + ("exact",)


class RmcifError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(RmcifError, ValueError):
    """A parameter value outside its documented range."""


class InstanceFormatError(RmcifError):
    """Malformed or inconsistent instance text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class CapacityViolation(RmcifError):
    """An arc value lies outside [0, capacity]."""

    def __init__(self, arc_index: int, message: str | None = None):
        self.arc_index = arc_index
        super().__init__(message or f"capacity violated on arc {arc_index + 1}")


class ConservationViolation(RmcifError):
    """Net flow at a vertex differs from what its role allows."""

    def __init__(self, vertex: int, message: str | None = None):
        self.vertex = vertex
        super().__init__(message or f"flow conservation violated at vertex {vertex}")


class WrongFlowValue(RmcifError):
    """A conserving flow whose value differs from the instance requirement."""


def check_integer(value, what: str, low: int = 0, high: int | None = None) -> int:
    """`value` as a plain int in ``low..high`` (unbounded above if `high` is None).

    Numpy integers pass; a bool, float or string raises `InvalidParameter`,
    as does a value out of range.
    """
    try:
        number = None if isinstance(value, bool) else int(index(value))
    except TypeError:
        number = None
    if number is None:
        raise InvalidParameter(f"{what} must be an integer, got {value!r}")
    if high is not None and not low <= number <= high:
        raise InvalidParameter(f"{what} must lie in {low}..{high}, got {number}")
    if number < low:
        sign = "nonnegative" if low == 0 else "positive"
        raise InvalidParameter(f"{what} must be {sign}, got {number}")
    return number


def check_arc(vertex_count: int, tail, head, capacity, seen: set) -> tuple[int, int, int]:
    """One arc as plain ints, judged as by `check_integer`: distinct ends in
    ``1..vertex_count``, capacity at least 0, a pair not in `seen`, which then gains it."""
    if not type(tail) is type(head) is type(capacity) is int:
        names = ("tail", "head", "capacity")
        tail, head, capacity = map(check_integer, (tail, head, capacity), names)
    if not (1 <= tail <= vertex_count and 1 <= head <= vertex_count):
        raise InvalidParameter("vertex index out of range")
    if tail == head:
        raise InvalidParameter("self-loops are not allowed")
    if (tail, head) in seen:
        raise InvalidParameter(f"duplicate arc {tail}->{head}")
    if capacity < 0:
        check_integer(capacity, "capacity")
    seen.add((tail, head))
    return tail, head, capacity


def check_sequence(value, what: str) -> tuple:
    """`value` as a tuple; a value that is not iterable raises `InvalidParameter`."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidParameter(f"{what} must be a sequence of integers, got {value!r}") from None


def check_length(values, width: int, what: str) -> None:
    """Raise `InvalidParameter` unless `values` holds `width` entries."""
    if len(values) != width:
        raise InvalidParameter(f"length mismatch: expected {width} {what}, found {len(values)}")


def check_costs(row, width: int) -> tuple[int, ...]:
    """A scenario's costs as plain ints in a tuple, `width` of them (one per arc),
    judged as by `check_integer`, which runs only on a bad row."""
    costs = check_sequence(row, "costs")
    for cost in costs:
        if type(cost) is not int or cost < 0:  # judge them all: raise, or make numpy ints plain
            costs = tuple(check_integer(c, "cost") for c in costs)
            break
    check_length(costs, width, "costs")
    return costs


class FrozenRecord:
    """Equality, hash and repr over the attributes that `_fields` names, in
    order; assignment and deletion are refused.

    Records of one class are equal when their fields are; a record never
    equals an object of another class.  The subclasses write their own
    ``__init__``, which sets each field once through `_set`, so importing
    the package generates no code at run time; `cached_property` writes
    the instance ``__dict__`` directly, so caches still work.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, **fields) -> None:
        vars(self).update(fields)


class Network(FrozenRecord):
    """Directed graph with integer arc capacities, source 1 and sink n.

    Arc i runs from ``tails[i]`` to ``heads[i]`` with capacity
    ``capacities[i]``; the three tuples share one length, the arc count.
    At most one arc may join an ordered vertex pair and self-loops are
    rejected, so arcs are identified by their declaration index.  Each
    column must be iterable (`check_sequence`), each arc is judged by
    `check_arc`, and the arcs are stored as plain ints in tuples, so a
    caller's later change to its own list cannot reach the network or its
    cached adjacency, and the network hashes.
    """

    _fields = ("vertex_count", "tails", "heads", "capacities")

    def __init__(
        self,
        vertex_count: int,
        tails: Sequence[int],
        heads: Sequence[int],
        capacities: Sequence[int],
    ):
        n = check_integer(vertex_count, "vertex count")
        if n < 2:
            raise InvalidParameter("a network needs at least a source and a sink")
        columns = tuple(map(check_sequence, (tails, heads, capacities), self._fields[1:]))
        if not len(columns[0]) == len(columns[1]) == len(columns[2]):
            raise InvalidParameter("tails, heads and capacities must have the same length")
        seen: set[tuple[int, int]] = set()
        try:
            judged = [check_arc(n, t, h, c, seen) for t, h, c in zip(*columns)]
        except InvalidParameter as exc:
            raise InvalidParameter(f"arc {len(seen) + 1}: {exc}") from None  # seen: arcs before it
        tails, heads, capacities = zip(*judged) if judged else columns
        self._set(vertex_count=n, tails=tails, heads=heads, capacities=capacities)

    @property
    def source(self) -> int:
        return 1

    @property
    def sink(self) -> int:
        return self.vertex_count

    @property
    def arc_count(self) -> int:
        return len(self.tails)

    @cached_property
    def arc_rows(self) -> tuple[tuple[int, int, int, int], ...]:
        """One ``(arc index, tail, head, capacity)`` record per arc, in declaration
        order: what each pass of the negative-cycle kernel reads of an arc."""
        return tuple(zip(range(self.arc_count), self.tails, self.heads, self.capacities))

    @cached_property
    def out_arcs(self) -> tuple[tuple[int, ...], ...]:
        """Arc indices grouped by tail vertex, for the unit-path peel; slot 0 is unused."""
        out: list[list[int]] = [[] for _ in range(self.vertex_count + 1)]
        for i, tail in enumerate(self.tails):
            out[tail].append(i)
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def residual_adjacency(self) -> tuple[tuple[tuple[int, bool, int], ...], ...]:
        """Per-vertex ``(arc index, forward, other end)`` for both arc directions.

        Each vertex lists its incident arcs by arc index, an arc leaving it
        as a forward move and an arc entering it as a backward one: the
        residual moves in arc declaration order, grouped by tail.  Slot 0 is
        unused.
        """
        adjacency: list[list[tuple[int, bool, int]]] = [[] for _ in range(self.vertex_count + 1)]
        for i, (tail, head) in enumerate(zip(self.tails, self.heads)):
            adjacency[tail].append((i, True, head))
            adjacency[head].append((i, False, tail))
        return tuple(tuple(lst) for lst in adjacency)

    @cached_property
    def into_sink(self) -> tuple[tuple[tuple[int, bool], ...], ...]:
        """Per-vertex ``(arc index, forward)`` moves into the sink, in
        `residual_adjacency` order: for vertex v, the forward move on an arc
        v -> sink and the backward move on an arc sink -> v, each if
        present.  The fewest-arc searches test a vertex against it when they
        reach it.  Slot 0 is unused.
        """
        sink = self.sink
        return tuple(
            tuple((i, forward) for i, forward, h in moves if h == sink)
            for moves in self.residual_adjacency
        )


class Instance(FrozenRecord):
    """A network, its cost scenarios, and the required flow value.

    `costs` holds one row of arc unit costs per scenario, in arc
    declaration order.  Each row is judged by `check_costs` against the
    network's arc count, and the rows are stored as plain ints in a tuple
    of tuples, so a caller's later edit to its own list cannot reach the
    instance.  The flow value, judged by `check_integer`, is checked at
    construction time too: `find_flow` must reach it, and it augments up to
    F only, not on to the maximum flow.
    """

    _fields = ("network", "costs", "flow_value")

    def __init__(self, network: Network, costs: Sequence[Sequence[int]], flow_value: int):
        if not isinstance(network, Network):
            raise InvalidParameter(f"network must be a Network, got {network!r}")
        rows: list[tuple[int, ...]] = []
        try:
            for row in costs:
                rows.append(check_costs(row, network.arc_count))
        except TypeError:
            raise InvalidParameter(f"costs must be rows of integers, got {costs!r}") from None
        except InvalidParameter as exc:
            raise InvalidParameter(f"scenario {len(rows) + 1}: {exc}") from None
        self._finish(network, tuple(rows), flow_value)

    def _finish(self, network: Network, rows: tuple[tuple[int, ...], ...], flow_value) -> None:
        """Judge the flow value and set the fields; `rows` are judged already.

        `parse_instance` comes here directly, having judged each row on its
        own ``s`` line."""
        if not rows:
            raise InvalidParameter("at least one scenario is required")
        flow_value = check_integer(flow_value, "flow value")
        # deferred import: flow_ops depends on the types defined above
        from .flow_ops import TargetUnreachable, find_flow

        try:
            find_flow(network, flow_value)
        except TargetUnreachable:
            raise InvalidParameter("F exceeds maximum flow") from None
        self._set(network=network, costs=rows, flow_value=flow_value)


def flow_value_of(network: Network, values: Sequence[int]) -> int:
    """Net outflow at the source: its forward residual moves less its backward ones."""
    moves = network.residual_adjacency[network.source]
    return sum(values[i] if forward else -values[i] for i, forward, _ in moves)


def check_arc_values(network: Network, values: Sequence[int]) -> list[int]:
    """Check capacity bounds and return the per-vertex balance vector."""
    if len(values) != network.arc_count:
        raise InvalidParameter("value vector length differs from the arc count")
    balance: list[int] = [0] * (network.vertex_count + 1)
    arcs = zip(network.tails, network.heads, network.capacities, values)
    for i, (tail, head, capacity, v) in enumerate(arcs):
        if v < 0 or v > capacity:
            raise CapacityViolation(
                i, f"arc {i + 1} ({tail}->{head}): value {v} outside [0, {capacity}]"
            )
        balance[tail] += v
        balance[head] -= v
    return balance


def validate_flow(instance: Instance, values: Sequence[int]) -> int:
    """Return the value of the flow `values` after checking capacities and conservation.

    Raises `CapacityViolation` or `ConservationViolation`.
    """
    network = instance.network
    balance = check_arc_values(network, values)
    for v in range(1, network.vertex_count + 1):
        if v in (network.source, network.sink):
            continue
        if balance[v] != 0:
            raise ConservationViolation(v)
    value = balance[network.source]
    if value < 0:
        raise ConservationViolation(network.source, "net source outflow is negative")
    return value


def require_feasible(instance: Instance, values: Sequence[int]) -> None:
    """Check that `values` is a flow of the instance's required value F.

    Raises like `validate_flow`, or `WrongFlowValue`.
    """
    value = validate_flow(instance, values)
    if value != instance.flow_value:
        raise WrongFlowValue(f"flow value {value} differs from required value {instance.flow_value}")


def _int_token(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceFormatError(f"{what} is not an integer: {token!r}", line) from None


def _int_tokens(tokens: list[str], what: str, line: int) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        return [_int_token(token, what, line) for token in tokens]


def _ascii(text: str | bytes) -> str:
    """Instance text as a str; bytes that are not ASCII raise
    `InstanceFormatError` on the line that holds the first such byte."""
    if not isinstance(text, (bytes, bytearray)):
        return text
    try:
        return text.decode("ascii")
    except UnicodeDecodeError as exc:
        line = text.count(b"\n", 0, exc.start) + 1
        raise InstanceFormatError(f"byte 0x{text[exc.start]:02x} is not ASCII", line) from None


def parse_instance(text: str | bytes) -> Instance:
    """Parse ``.rmcif`` instance text.

    Grammar (ASCII, LF line endings, 1-based indices)::

        c <comment>                    anywhere
        p rmcif <n> <m> <K> <F>        exactly once, first non-comment line
        a <tail> <head> <capacity>     exactly m lines, declaration order
        s <k> <c_1> ... <c_m>          exactly K lines, k ascending from 1

    Only the grammar is checked here, and ``n <= 2m + 2``, what m arcs plus
    source and sink can touch, before any per-vertex list is built.  The
    model is judged by `check_arc` and `check_costs` on each arc and
    scenario line and by the constructors; errors carry the line number.
    """
    text = _ascii(text)
    header_line = lineno = 0  # header_line 0: no problem line yet
    arcs: list[tuple[int, int, int]] = []
    pairs: set[tuple[int, int]] = set()
    rows: list[tuple[int, ...]] = []

    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split()
            if not parts or parts[0] == "c":
                continue
            tag = parts[0]
            if tag == "p":
                if header_line:
                    raise InstanceFormatError("duplicate problem line", lineno)
                if len(parts) != 6 or parts[1] != "rmcif":
                    raise InstanceFormatError("malformed problem line", lineno)
                n, m, k, f = _int_tokens(parts[2:], "problem field", lineno)
                m, k = check_integer(m, "arc count"), check_integer(k, "scenario count")
                if n > 2 * m + 2:
                    raise InstanceFormatError(
                        f"more vertices than {m} arcs can touch"
                        f" (n must be at most 2m + 2 = {2 * m + 2})",
                        lineno,
                    )
                header_line = lineno
            elif tag == "a":
                if not header_line:
                    raise InstanceFormatError("arc line before problem line", lineno)
                if rows:
                    raise InstanceFormatError("arc line after scenario lines", lineno)
                if len(arcs) >= m:
                    raise InstanceFormatError(f"more than {m} arc lines", lineno)
                if len(parts) != 4:
                    raise InstanceFormatError("malformed arc line", lineno)
                arcs.append(check_arc(n, *_int_tokens(parts[1:], "arc field", lineno), pairs))
            elif tag == "s":
                if not header_line:
                    raise InstanceFormatError("scenario line before problem line", lineno)
                if len(arcs) != m:
                    raise InstanceFormatError("scenario line before all arcs are declared", lineno)
                if len(rows) >= k:
                    raise InstanceFormatError(f"more than {k} scenario lines", lineno)
                if len(parts) < 2:
                    raise InstanceFormatError("malformed scenario line", lineno)
                index = _int_token(parts[1], "scenario index", lineno)
                if index != len(rows) + 1:
                    raise InstanceFormatError(
                        f"scenario index {index} out of order (expected {len(rows) + 1})", lineno
                    )
                rows.append(check_costs(_int_tokens(parts[2:], "cost", lineno), m))
            else:
                raise InstanceFormatError(f"unknown line tag {tag!r}", lineno)

        if not header_line:
            raise InstanceFormatError("missing problem line")
        lineno = header_line
        if len(arcs) != m:
            raise InstanceFormatError(f"expected {m} arc lines, found {len(arcs)}", lineno)
        if len(rows) != k:
            raise InstanceFormatError(f"expected {k} scenario lines, found {len(rows)}", lineno)
        instance = Instance.__new__(Instance)
        instance._finish(Network(n, *(zip(*arcs) if arcs else ((), (), ()))), tuple(rows), f)
        return instance
    except InvalidParameter as exc:  # a judge's verdict on line `lineno`
        raise InstanceFormatError(str(exc), lineno) from None


def write_instance(instance: Instance) -> str:
    """Canonical ``.rmcif`` text; `parse_instance` inverts it exactly."""
    network = instance.network
    lines = [
        f"p rmcif {network.vertex_count} {network.arc_count}"
        f" {len(instance.costs)} {instance.flow_value}"
    ]
    for tail, head, capacity in zip(network.tails, network.heads, network.capacities):
        lines.append(f"a {tail} {head} {capacity}")
    for k, row in enumerate(instance.costs, start=1):
        lines.append(f"s {k} " + " ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


class SolutionRecord(NamedTuple):
    """One solver run: what was solved, by what, and the flow it returned.

    Elapsed time is measurement metadata: it is reported in benchmark output
    but kept out of the solution file so repeated runs write identical bytes.
    """

    variant: str
    solver: str
    robust_cost: int
    values: tuple[int, ...]
    seed: int
    elapsed_seconds: float = 0.0


def format_solution(record: SolutionRecord, instance: Instance) -> str:
    """``.sol`` text: one ``o`` header line, then nonzero arcs in arc order.

    The header is ``o <variant> <solver> <robust_cost> <seed>``.  Output
    depends only on the record's solver-determined fields, so a repeated
    (instance, variant, solver, seed) run reproduces the file exactly.
    """
    if record.variant not in VARIANTS:
        raise InvalidParameter(f"unknown variant tag {record.variant!r}")
    if record.solver not in ALL_SOLVERS:
        raise InvalidParameter(f"unknown solver tag {record.solver!r}")
    require_feasible(instance, record.values)
    lines = [f"o {record.variant} {record.solver} {record.robust_cost} {record.seed}"]
    network = instance.network
    for tail, head, v in zip(network.tails, network.heads, record.values):
        if v != 0:
            lines.append(f"x {tail} {head} {v}")
    return "\n".join(lines) + "\n"

