"""Span tracer that wraps the library's public functions from outside.

The library is not instrumented.  :class:`Tracer` replaces each traced
function in every ``mvnabs`` module namespace that binds it (so both
``mvnabs.semantics.build_state_graph`` and the copy that
``mvnabs.checker`` imported are wrapped) and restores the originals on
:meth:`Tracer.uninstall`.  A wrapper records one span
``[id, parent_id, name, start_ns, end_ns]`` in memory; per-call counts
are taken after the span has closed, so their cost lands in the caller's
span or in the benchmark's own overhead, never in the callee's time.
``AbstractionMapping.apply`` runs millions of times per pass, so it gets
a counter and no span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter

CLI_COMMANDS = (
    "validate", "graph", "attractors", "traces", "abstract",
    "candidates", "check", "oracle_check",
)

SPAN_METRICS = (
    "model.validate",
    "semantics.build_async",
    "semantics.build_sync",
    "semantics.attractors",
    "semantics.scc",
    "semantics.reachable",
    "traces.finite_check",
    "traces.enumerate",
    "abstraction.trace_set",
    "abstraction.candidates",
    "checker.check",
    "oracle.oracle_check",
    "modelio.parse",
    "modelio.serialize",
    "modelio.export",
    "cli.main",
) + tuple(f"cli.{c}" for c in CLI_COMMANDS)

# Span names whose self time is a metric of its own.
SELF_METRICS = {"checker.check": "checker.self_s"}

# Exact per-pass counts and their units.
COUNT_METRICS = {
    "semantics.build_calls": "count",
    "semantics.states_built": "count",
    "semantics.edges_built": "count",
    "traces.enumerated": "count",
    "abstraction.apply_calls": "count",
    "abstraction.candidates": "count",
    "checker.subsets_considered": "count",
    "checker.initial_terms": "count",
    "checker.removed_terms": "count",
    "checker.sweeps": "count",
    "checker.max_class": "count",
    "checker.holds": "count",
    "modelio.parse_bytes": "bytes",
    "modelio.export_bytes": "bytes",
}


def _subsets_considered(mv1, phi) -> int:
    """Sum over abstract states S of 2^|class(S)| - 1, from the mapping alone."""
    sizes = []
    for i, slot in enumerate(phi.slots):
        if slot is None:
            sizes.append([1] * (mv1.entities[i].max_level + 1))
        else:
            sizes.append([slot.table.count(a) for a in range(slot.target_max + 1)])
    total = 0
    for combo in itertools.product(*sizes):
        size = 1
        for k in combo:
            size *= k
        total += 2 ** size - 1
    return total


class Tracer:
    """Spans and counts for one traced pass; install once, reset per pass."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack[:] = [0]

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn, after=None):
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            spans = tracer.spans
            record = [len(spans) + 1, stack[-1], span_name, 0, 0]
            spans.append(record)
            stack.append(record[0])
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- count hooks --------------------------------------------------

    def _after_build(self, args, kwargs, graph):
        c = self.counts
        c["semantics.build_calls"] += 1
        c["semantics.states_built"] += len(graph.nodes)
        c["semantics.edges_built"] += graph.edge_count

    def _after_check(self, args, kwargs, result):
        mv1, _mv2, phi = args[:3]
        c = self.counts
        stats = result.stats
        c["checker.subsets_considered"] += _subsets_considered(mv1, phi)
        c["checker.initial_terms"] += stats.initial_terms
        c["checker.removed_terms"] += stats.removed_terms
        c["checker.sweeps"] += stats.iterations
        c["checker.max_class"] = max(c["checker.max_class"], stats.max_class_size)
        c["checker.holds"] += int(result.holds)

    def _after_enumerate(self, args, kwargs, traces):
        self.counts["traces.enumerated"] += len(traces)

    def _after_candidates(self, args, kwargs, candidates):
        self.counts["abstraction.candidates"] += len(candidates)

    def _after_parse(self, args, kwargs, result):
        self.counts["modelio.parse_bytes"] += len(args[0].encode("utf-8"))

    def _after_export(self, args, kwargs, text):
        self.counts["modelio.export_bytes"] += len(text.encode("utf-8"))

    # -- patching -----------------------------------------------------

    def _targets(self):
        lib = self.lib

        def build_name(args, kwargs):
            semantics = args[1] if len(args) > 1 else kwargs["semantics"]
            return f"semantics.build_{semantics}"

        targets = [
            (lib.model.validate, "model.validate", None),
            (lib.semantics.build_state_graph, build_name, self._after_build),
            (lib.semantics.attractors, "semantics.attractors", None),
            (lib.semantics.strongly_connected_components, "semantics.scc", None),
            (lib.semantics.reachable, "semantics.reachable", None),
            (lib.traces.trace_set_is_finite, "traces.finite_check", None),
            (lib.traces.async_traces, "traces.enumerate", self._after_enumerate),
            (lib.abstraction.abstract_trace_set, "abstraction.trace_set", None),
            (lib.abstraction.enumerate_candidates, "abstraction.candidates",
             self._after_candidates),
            (lib.checker.check_asyn_abs, "checker.check", self._after_check),
            (lib.oracle.oracle_check, "oracle.oracle_check", None),
            (lib.modelio.parse_model, "modelio.parse", self._after_parse),
            (lib.modelio.parse_mapping, "modelio.parse", self._after_parse),
            (lib.modelio.serialize_model, "modelio.serialize", None),
            (lib.modelio.serialize_mapping, "modelio.serialize", None),
            (lib.modelio.export_dot, "modelio.export", self._after_export),
            (lib.modelio.export_report, "modelio.export", self._after_export),
            (lib.cli.main, "cli.main", None),
        ]
        for command in CLI_COMMANDS:
            targets.append((getattr(lib.cli, f"cmd_{command}"), f"cli.{command}", None))
        return targets

    def install(self) -> None:
        """Wrap every traced function in every mvnabs module that binds it."""
        wrappers = {
            id(fn): self._span(name, fn, after) for fn, name, after in self._targets()
        }
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "mvnabs" or k.startswith("mvnabs."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        mapping_cls = self.lib.abstraction.AbstractionMapping
        self._patches.append((mapping_cls, "apply", mapping_cls.apply))
        mapping_cls.apply = self._counter("abstraction.apply_calls", mapping_cls.apply)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------

    def pass_summary(self) -> tuple[dict, dict, float]:
        """Per-layer times (s), exact counts, and the summed top-level span time."""
        by_id = {s[0]: s for s in self.spans}
        child_ns: Counter = Counter()
        for s in self.spans:
            if s[1]:
                child_ns[s[1]] += s[4] - s[3]
        inclusive: Counter = Counter()
        self_ns: Counter = Counter()
        top_ns = 0
        for s in self.spans:
            duration = s[4] - s[3]
            self_ns[s[2]] += duration - child_ns[s[0]]
            if not s[1]:
                top_ns += duration
            # Count a nested call of the same name only once.
            parent = by_id.get(s[1])
            while parent is not None and parent[2] != s[2]:
                parent = by_id.get(parent[1])
            if parent is None:
                inclusive[s[2]] += duration
        times = {f"{name}_s": inclusive[name] / 1e9 for name in SPAN_METRICS}
        for name, metric in SELF_METRICS.items():
            times[metric] = self_ns[name] / 1e9
        counts = {name: int(self.counts[name]) for name in COUNT_METRICS}
        return times, counts, top_ns / 1e9
