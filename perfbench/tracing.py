"""Spans around the program's public functions, recorded from outside it.

Each traced function is replaced at every module attribute its callers
look it up through (modules that did ``from .x import f`` hold their own
binding), and `Tracer.restore` puts the originals back.  A span is
``(name, start, end, parent span, run id)``; spans stay in memory until
the run ends.  Self time is a span's duration minus the time covered by
its direct children, which nest because the program is single-threaded.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

# span name -> (module that defines it, attribute name, modules that bind it)
SPANS = {
    "flow_ops.cost_reduce": ("flow_ops", "cost_reduce", ("flow_ops", "heuristics")),
    "flow_ops.min_cost_flow": ("flow_ops", "min_cost_flow", ("flow_ops", "objectives")),
    "objectives.compute_optima": (
        "objectives", "compute_optima", ("objectives", "heuristics", "bench", "exact"),
    ),
    "flow_ops.decompose": ("flow_ops", "decompose", ("heuristics",)),
    "flow_ops.compose": ("flow_ops", "compose", ("heuristics",)),
    "flow_ops.center": ("flow_ops", "center", ("heuristics",)),
    "flow_ops.round_flow": ("flow_ops", "round_flow", ("heuristics",)),
    "flow_ops.harmonize": ("flow_ops", "harmonize", ("heuristics",)),
    "flow_ops.perturb": ("flow_ops", "perturb", ("heuristics",)),
    "flow_ops.find_flow": ("flow_ops", "find_flow", ("flow_ops", "heuristics")),
    "core.validate_flow": ("core", "validate_flow", ("core", "objectives")),
    "heuristics.local_search": ("heuristics", "local_search", ("heuristics", "bench")),
    "heuristics.evolutionary": ("heuristics", "evolutionary", ("heuristics", "bench")),
    "exact.enumerate_optimum": ("exact", "enumerate_optimum", ("exact", "bench")),
    "core.parse_instance": ("core", "parse_instance", ("core", "bench", "cli")),
    "core.format_solution": ("core", "format_solution", ("core", "bench", "cli")),
    "bench.run_bench": ("bench", "run_bench", ("bench", "cli")),
    "cli.main": ("cli", "main", ("cli",)),
}
# Criterion.evaluate is a method, wrapped on the class.
EVALUATE = "objectives.evaluate"
NAMES = tuple(SPANS) + (EVALUATE,)
# The benchmark's own speed marks, when they fall inside a traced call.
SPEED_MARK = "perfbench.speed_mark"


class Tracer:
    def __init__(self, rmcif):
        self.rmcif = rmcif
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.open: list[int] = []
        self.run_id = 0
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.saved: list[tuple[object, str, object]] = []

    def _module(self, name: str):
        return getattr(self.rmcif, name)

    def span(self, name: str, fn, outcome=None):
        """`fn` wrapped to record a span named `name` per call."""
        spans, open_ = self.spans, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if outcome is not None:
                    outcome(args, None, exc)
                raise
            finally:
                spans[index] = (name, start, clock(), parent, self.run_id)
                open_.pop()
            if outcome is not None:
                outcome(args, result, None)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        counts = self.counts

        def cost_reduce(args, result, exc):
            counts["cost_reduce.optimal"] += bool(result and result[1])

        def perturb(args, result, exc):
            counts["perturb.noop"] += result is args[1]

        def enumerate_optimum(args, result, exc):
            counts["exact.proven"] += exc is None

        outcomes = {
            "flow_ops.cost_reduce": cost_reduce,
            "flow_ops.perturb": perturb,
            "exact.enumerate_optimum": enumerate_optimum,
        }
        for name, (home, attr, binders) in SPANS.items():
            fn = getattr(self._module(home), attr)
            if name in ("heuristics.local_search", "heuristics.evolutionary"):
                fn = self._counting_trace(fn, "moves" if "local" in name else "generations")
            wrapped = self.span(name, fn, outcomes.get(name))
            for binder in binders:
                self._patch(self._module(binder), attr, wrapped)

        criterion = self.rmcif.objectives.Criterion
        self._patch(criterion, "evaluate", self.span(EVALUATE, criterion.evaluate))

        # The search calls it through its own module; it is counted, not spanned.
        heuristics = self.rmcif.heuristics
        insert_child = heuristics.insert_child

        def counted_insert(population, child, *args, **kwargs):
            updated = insert_child(population, child, *args, **kwargs)
            counts["insert_child.calls"] += 1
            counts["insert_child.accepted"] += any(member[0] is child for member in updated)
            return updated

        self._patch(heuristics, "insert_child", counted_insert)

    def _counting_trace(self, fn, key: str):
        """Count the solver's own trace callbacks, chaining any caller callback."""
        counts = self.counts

        def with_trace(*args, trace=None, **kwargs):
            def counter(*event):
                counts[key] += 1
                if trace is not None:
                    trace(*event)

            return fn(*args, trace=counter, **kwargs)

        return with_trace

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
