"""Trace semantics: lasso representation and exhaustive enumeration.

A trace is a maximal run of a model: finite only if it ends at a state
with no successors, otherwise infinite.  Over a finite state space every
infinite trace we enumerate is eventually periodic, so traces are stored
as lassos: a finite ``prefix`` followed by a ``loop`` repeated forever
(empty loop = finite trace).

Lassos are kept in a canonical form that makes sequence equality decide
as plain value equality: the loop is primitive (not a repetition of a
shorter word) and the prefix is minimal (its last state never equals the
loop's last state, else the boundary could be rotated into the loop).
Two canonical lassos are equal exactly when they denote the same finite
or infinite state sequence.

Asynchronous trace sets can be infinite.  The enumerable case is pinned
down by :func:`trace_set_is_finite`: every state inside a nontrivial
strongly connected component must have out-degree exactly one.  If some
cycle state had a second successor, running the cycle n times before
branching away would produce infinitely many distinct traces; with the
criterion satisfied, every cycle is deterministic, so all branching
happens on loop-free prefixes.  The lassos are then found by one pass
over the components, sinks first (:func:`_lassos`), and counted by the
same recursion (:func:`trace_count`) before they are built: a trace set
above :data:`MAX_TRACES` is refused, under either discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import InfiniteTraceSetError, TooManyTracesError
from .model import GlobalState, Mvn
from .semantics import ASYNC, SYNC, StateGraph, build_state_graph

# The budget of trace enumeration under either discipline, in lassos.
# Asynchronous: the fold keeps about 233 bytes per lasso and peaks at
# 258 (tracemalloc, 9 Boolean entities that each rise to 1: 986,410
# lassos of up to 10 states, 3.9 s on a 2-vCPU Xeon), and longer
# lassos cost 8 bytes more per state.  `mvnabs traces` peaks at about
# 1.1 KB per lasso with or without `--json`, in the labelled record
# that both forms read (the same model on 8 entities: 118 MB for
# 23.7 MB of JSON, which is streamed), so a trace set at the budget
# takes near 0.3 GB there and about 70 MB in the fold.  Synchronous:
# one lasso per state, and `sync_traces` peaks at 0.54-0.65 KB per
# lasso, graph build included (tracemalloc, seeded random ternary
# networks of 9 and 10 entities, lassos of 9-29 states on average), so
# a set at the budget takes near 0.17 GB, where the 2^20 states of
# `MAX_STATES` would take near 0.65 GB.
MAX_TRACES = 1 << 18


@dataclass(frozen=True)
class LassoTrace:
    """A finite or eventually periodic state sequence.

    ``prefix`` then ``loop`` forever; an empty loop denotes the finite
    sequence ``prefix``.  Instances produced by this module are always
    canonical (see :func:`canonicalize`).
    """

    prefix: tuple[GlobalState, ...]
    loop: tuple[GlobalState, ...]

    @property
    def is_finite(self) -> bool:
        return not self.loop

    def unfold(self, n: int) -> tuple[GlobalState, ...]:
        """The first ``n`` states of the denoted sequence (fewer if finite)."""
        if self.is_finite:
            return self.prefix[:n]
        out = list(self.prefix[:n])
        while len(out) < n:
            out.extend(self.loop[: n - len(out)])
        return tuple(out)

    def start(self) -> GlobalState:
        return self.prefix[0] if self.prefix else self.loop[0]


TraceSet = frozenset[LassoTrace]


def _primitive_root(loop: tuple[GlobalState, ...]) -> tuple[GlobalState, ...]:
    n = len(loop)
    for d in range(1, n + 1):
        if n % d == 0 and loop == loop[:d] * (n // d):
            return loop[:d]


def canonicalize(trace: LassoTrace) -> LassoTrace:
    """Rewrite a lasso into the unique normal form for its sequence.

    The loop is reduced to its primitive root, then trailing prefix
    states equal to the loop's last state are absorbed by rotating the
    loop right.  Finite traces are already canonical.
    """
    if trace.is_finite:
        return trace
    loop = _primitive_root(trace.loop)
    prefix = list(trace.prefix)
    while prefix and prefix[-1] == loop[-1]:
        prefix.pop()
        loop = loop[-1:] + loop[:-1]
    return LassoTrace(tuple(prefix), loop)


def sync_traces(model: Mvn) -> TraceSet:
    """One deterministic trace per initial state.

    Every state of the synchronous graph has exactly one successor, so
    each state starts one lasso: its run up to the cycle it falls into,
    then that cycle (:func:`_lassos`).  A model with more than
    :data:`MAX_TRACES` states is refused before any lasso is built
    (:class:`TooManyTracesError`).
    """
    return _lassos(_within_budget(build_state_graph(model, SYNC)))


def trace_set_is_finite(graph: StateGraph) -> bool:
    """True iff the asynchronous trace set is finite (enumerable).

    Criterion: every state inside a nontrivial SCC has out-degree
    exactly one.
    """
    if graph.semantics != ASYNC:
        raise ValueError("finiteness criterion applies to asynchronous graphs")
    out = graph.out
    return all(len(out[k]) == 1 for comp in graph.components if len(comp) > 1 for k in comp)


def async_traces(model: Mvn, graph: StateGraph | None = None) -> TraceSet:
    """Every maximal asynchronous run, as canonical lassos.

    Requires a finite trace set (:class:`InfiniteTraceSetError`
    otherwise) of at most :data:`MAX_TRACES` lassos, counted by
    :func:`trace_count` before any is built (:class:`TooManyTracesError`
    otherwise).  Then :func:`_lassos` builds them.
    """
    if graph is None:
        graph = build_state_graph(model, ASYNC)
    if not trace_set_is_finite(graph):
        raise InfiniteTraceSetError(
            f"model {graph.name}: asynchronous trace set is infinite"
        )
    return _lassos(_within_budget(graph))


def _within_budget(graph: StateGraph) -> StateGraph:
    """``graph``, unless its :func:`trace_count` exceeds :data:`MAX_TRACES`."""
    count = trace_count(graph)
    if count > MAX_TRACES:
        discipline = "asynchronous" if graph.semantics == ASYNC else "synchronous"
        raise TooManyTracesError(
            f"model {graph.name}: {count} {discipline} traces exceed "
            f"the budget of {MAX_TRACES}"
        )
    return graph


def trace_count(graph: StateGraph) -> int:
    """How many lassos :func:`_lassos` builds, without building them.

    Needs a finite trace set: a synchronous graph, where the count is
    the number of states, or an asynchronous one that passes
    :func:`trace_set_is_finite`.  The recursion of :func:`_lassos`, on
    counts: a state with no successors, or inside a nontrivial
    component (where the finiteness criterion makes the run
    deterministic), starts one lasso; any other state starts as many as
    its successors together.  Runs from distinct states or along
    distinct paths are distinct lassos, so the total is the sum over
    all states.
    """
    out = graph.out
    counts = [1] * len(out)
    for comp in graph.components:
        if len(comp) == 1 and out[comp[0]]:
            counts[comp[0]] = sum(map(counts.__getitem__, out[comp[0]]))
    return sum(counts)


def _lassos(graph: StateGraph) -> TraceSet:
    """Every lasso of ``graph``: the maximal runs from each of its states.

    Needs every cycle state to have exactly one successor: true of every
    synchronous graph and of every asynchronous one that passes
    :func:`trace_set_is_finite`.  One pass over the strongly connected
    components, sinks first.  A cycle (a nontrivial component, or a
    synchronous self-loop) gives each of its states one lasso: an empty
    prefix and the cycle read from that state.  A state with no
    successors is the finite trace of itself.  Any other state goes in
    front of every lasso of every successor.  Each lasso is built
    canonical: its loop lists distinct states, so it is primitive, and
    a prepended state lies off the loop, so the prefix is minimal.
    """
    nodes, out = list(graph.nodes), graph.out  # every state is in a lasso
    runs: list[list[LassoTrace]] = [[]] * len(out)  # each entry set once
    for comp in graph.components:
        u = comp[0]
        if len(comp) > 1 or u in out[u]:
            cycle = [u]
            while (v := out[cycle[-1]][0]) != u:
                cycle.append(v)
            loop = tuple(map(nodes.__getitem__, cycle))
            for i, k in enumerate(cycle):
                runs[k] = [LassoTrace((), loop[i:] + loop[:i])]
        elif out[u]:
            head = (nodes[u],)
            runs[u] = [LassoTrace(head + t.prefix, t.loop) for v in out[u] for t in runs[v]]
        else:
            runs[u] = [LassoTrace((nodes[u],), ())]
    return frozenset(chain.from_iterable(runs))


def is_trace_of(graph: StateGraph, trace: LassoTrace) -> bool:
    """Check that a lasso is a maximal run of the given graph.

    A lasso with a state outside the graph's state space is not.
    """
    try:
        seq = list(map(graph.index, trace.prefix + trace.loop))
    except ValueError:
        return False
    out = graph.out
    for a, b in zip(seq, seq[1:]):
        if b not in out[a]:
            return False
    if trace.is_finite:
        return bool(seq) and not out[seq[-1]]
    return seq[len(trace.prefix)] in out[seq[-1]]
