"""Update semantics, state-graph construction, and attractor analysis.

Both update disciplines come from one rule, :func:`_next_levels`: each
entity's next-state table applied to the current state, with input
entities keeping their level.  It works column-wise, one column of next
levels per entity over a whole batch of states, so a graph build applies
it once to the full state space.  Under the synchronous discipline every
entity updates simultaneously, so a state's one successor is its row of
next levels (self-loops allowed).  Under the asynchronous discipline one
entity updates at a time and only updates that actually change the
state count, so successors are the single-entity changes towards that
row and a state may have zero, one, or many of them.

Attractors are the long-run behaviours: under synchronous updates the
unique cycles that iteration eventually enters; under asynchronous
updates the states with no successors (point attractors) plus the
nontrivial strongly connected components of the state graph.  Both
kinds come from one Tarjan pass (:func:`strongly_connected_components`).

State graphs are materialised explicitly (dict of sorted successor
tuples), which keeps every downstream analysis auditable.  Time and
memory grow with the number of states, which is exponential in the
number of entities.  Every search over them (reachability here, and
the closures and witness bridges of the checker) is one breadth-first
search, :func:`bfs`, with :func:`path_to` reading paths back from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .model import GlobalState, Mvn, iter_states, require_valid

SYNC = "sync"
ASYNC = "async"


def _next_levels(model: Mvn, states: Sequence[GlobalState]) -> list[Sequence[int]]:
    """The one update rule: each entity's table output in every state.

    Returns one column per entity, aligned with ``states``.  A table's
    keys are read off by zipping its input columns, and input entities
    keep their level.  Row ``k`` of the result (``zip(*columns)``) is
    the synchronous successor of ``states[k]``.
    """
    current = list(zip(*states))
    out: list[Sequence[int]] = []
    for column, nb, table in zip(current, model.neighbourhoods, model.tables):
        if nb.inputs:
            keys = zip(*(current[j] for j in nb.inputs))
            out.append(list(map(table.rows.__getitem__, keys)))
        else:
            out.append(column)
    return out


def _moves(state: GlobalState, target: GlobalState) -> list[GlobalState]:
    """The single-entity changes of ``state`` towards ``target``."""
    return [
        state[:i] + (level,) + state[i + 1 :]
        for i, level in enumerate(target)
        if level != state[i]
    ]


def sync_step(model: Mvn, state: GlobalState) -> GlobalState:
    """Simultaneously update every entity via its table.

    Input entities keep their current level.
    """
    return next(zip(*_next_levels(model, (state,))))


def async_next(model: Mvn, state: GlobalState) -> frozenset[GlobalState]:
    """All single-entity updates of ``state`` that change it.

    Input entities never propose a change, and an update that leaves the
    entity's level unchanged is not a step.  An empty result means the
    state is a point attractor.
    """
    return frozenset(_moves(state, sync_step(model, state)))


@dataclass(frozen=True)
class StateGraph:
    """Explicit state graph of a model under one update discipline.

    ``nodes`` is the full state space in lexicographic order and
    ``succ`` maps every node to its sorted successor tuple, so all
    iteration over the graph is deterministic.
    """

    name: str
    semantics: str
    nodes: tuple[GlobalState, ...]
    succ: dict[GlobalState, tuple[GlobalState, ...]]

    def edges(self) -> Iterator[tuple[GlobalState, GlobalState]]:
        for u in self.nodes:
            for v in self.succ[u]:
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(self.succ[u]) for u in self.nodes)

    def edge_set(self) -> set[tuple[GlobalState, GlobalState]]:
        return set(self.edges())


def build_state_graph(model: Mvn, semantics: str) -> StateGraph:
    """Materialise the full state graph under the given discipline."""
    require_valid(model)
    if semantics not in (SYNC, ASYNC):
        raise ValueError(f"unknown semantics {semantics!r} (use {SYNC!r} or {ASYNC!r})")
    nodes = tuple(iter_states(model))
    rows = zip(nodes, zip(*_next_levels(model, nodes)))
    if semantics == SYNC:
        succ = {s: (t,) for s, t in rows}
    else:
        succ = {s: tuple(sorted(_moves(s, t))) for s, t in rows}
    return StateGraph(name=model.name, semantics=semantics, nodes=nodes, succ=succ)


@dataclass(frozen=True)
class Attractor:
    """One attractor: a state set, its kind, and whether it is exit-free.

    ``kind`` is ``"point"`` for a single state with no (effective)
    successors, ``"cycle"`` for a synchronous attractor cycle, and
    ``"scc"`` for a nontrivial strongly connected component of an
    asynchronous graph.  Nontrivial SCCs are reported even when they
    have outgoing edges; ``terminal`` distinguishes the exit-free ones.
    """

    kind: str
    states: frozenset[GlobalState]
    terminal: bool


@dataclass(frozen=True)
class AttractorSet:
    """All attractors of one state graph, sorted by smallest member."""

    semantics: str
    attractors: tuple[Attractor, ...]

    def state_sets(self) -> set[frozenset[GlobalState]]:
        return {a.states for a in self.attractors}

    def points(self) -> set[frozenset[GlobalState]]:
        return {a.states for a in self.attractors if a.kind == "point"}

    def all_states(self) -> frozenset[GlobalState]:
        out: set[GlobalState] = set()
        for a in self.attractors:
            out |= a.states
        return frozenset(out)


def strongly_connected_components(graph: StateGraph) -> list[list[GlobalState]]:
    """Tarjan's algorithm over the explicit graph.

    Iterative (explicit recursion stack) so deep graphs cannot hit the
    interpreter recursion limit.  Components come out in reverse
    topological order of the condensation; callers that need a stable
    order should sort the result.
    """
    index: dict[GlobalState, int] = {}
    lowlink: dict[GlobalState, int] = {}
    on_stack: set[GlobalState] = set()
    stack: list[GlobalState] = []
    sccs: list[list[GlobalState]] = []
    # One frame per node on the depth-first path: the node and an
    # iterator over its successors not yet examined.
    work: list[tuple[GlobalState, Iterator[GlobalState]]] = []

    def enter(node: GlobalState) -> None:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(graph.succ[node])))

    for root in graph.nodes:
        if root in index:
            continue
        enter(root)
        while work:
            node, successors = work[-1]
            for child in successors:
                if child not in index:
                    enter(child)
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    scc = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        scc.append(top)
                        if top == node:
                            break
                    sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def attractors(graph: StateGraph) -> AttractorSet:
    """Find the attractors of a state graph.

    Asynchronous graphs: point attractors are exactly the states with no
    successors; every nontrivial SCC is reported as an ``"scc"``
    attractor with a ``terminal`` flag saying whether it has no exits.
    Synchronous graphs: every state has one successor, so the
    nontrivial SCCs are exactly the cycles that iteration enters: a
    single state with a self-loop is a ``"point"``, a larger SCC a
    ``"cycle"``.
    """
    found: list[Attractor] = []
    if graph.semantics == ASYNC:
        for s in graph.nodes:
            if not graph.succ[s]:
                found.append(Attractor("point", frozenset({s}), True))
    for scc in strongly_connected_components(graph):
        if graph.semantics == ASYNC:
            if len(scc) > 1:  # async graphs have no self-loops
                members = frozenset(scc)
                terminal = all(set(graph.succ[u]) <= members for u in members)
                found.append(Attractor("scc", members, terminal))
        elif len(scc) > 1:
            found.append(Attractor("cycle", frozenset(scc), True))
        elif scc[0] in graph.succ[scc[0]]:
            found.append(Attractor("point", frozenset(scc), True))
    found.sort(key=lambda a: min(a.states))
    return AttractorSet(graph.semantics, tuple(found))


def bfs(
    parents: dict[GlobalState, GlobalState | None],
    step: Callable[[GlobalState], Iterable[GlobalState]],
) -> Iterator[GlobalState]:
    """Breadth-first search from the keys of ``parents``.

    ``parents`` belongs to the caller and starts with every source
    mapped to ``None``.  Each newly reached node is recorded with the
    node it was reached from and then yielded, in breadth-first order;
    a caller stops the search by leaving its loop, and afterwards
    ``parents`` holds every node reached so far.
    """
    queue = list(parents)
    for u in queue:  # the queue grows while it is read
        for v in step(u):
            if v not in parents:
                parents[v] = u
                queue.append(v)
                yield v


def path_to(
    parents: dict[GlobalState, GlobalState | None], node: GlobalState
) -> tuple[GlobalState, ...]:
    """The search path from a source to ``node``, both included."""
    path = [node]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return tuple(reversed(path))


def reachable(
    graph: StateGraph, source: GlobalState, target: GlobalState
) -> tuple[bool, tuple[GlobalState, ...] | None]:
    """Decide whether ``target`` is reachable from ``source``.

    Paths of length zero count, so every state reaches itself (witness:
    the empty path).  For a positive answer the witness is the full
    state sequence of a shortest path, endpoints included.
    """
    if source not in graph.succ or target not in graph.succ:
        raise ValueError("both states must belong to the graph")
    if source == target:
        return True, ()
    parents: dict[GlobalState, GlobalState | None] = {source: None}
    for v in bfs(parents, graph.succ.__getitem__):
        if v == target:
            return True, path_to(parents, v)
    return False, None


def reachable_set(graph: StateGraph, source: GlobalState) -> frozenset[GlobalState]:
    """All states reachable from ``source`` (including itself)."""
    parents: dict[GlobalState, GlobalState | None] = {source: None}
    for _ in bfs(parents, graph.succ.__getitem__):
        pass
    return frozenset(parents)
