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

Inside a graph every state is a node index: its mixed-radix number,
with entity 0 the most significant digit, so ``nodes[k]`` is the state
with index ``k`` and ascending index order is lexicographic order.  A
graph holds, for every node, the sorted tuple of its successor indices
(``StateGraph.out``).  An asynchronous step of entity ``i`` from level
``a`` to ``b`` goes from node ``k`` to ``k + (b - a) * place[i]``, where
``place[i]`` is the product of the range sizes of the entities after
``i``; a synchronous step goes to the index of the row of next levels.
States become tuples again only where they leave the module: ``nodes``,
the ``succ`` view, attractors, components, reachable sets and paths.
:meth:`StateGraph.index` is the one encoder, and it rejects states
outside the space.

Attractors are the long-run behaviours: under synchronous updates the
unique cycles that iteration eventually enters; under asynchronous
updates the states with no successors (point attractors) plus the
nontrivial strongly connected components of the state graph.  Both
kinds come from one Tarjan pass per graph, kept on the graph
(:attr:`StateGraph.components`) and shared by every analysis of it.

State graphs are materialised explicitly, which keeps every downstream
analysis auditable.  Time and memory grow with the number of states,
which is exponential in the number of entities, so a build refuses a
state space above :data:`MAX_STATES`.  Every search over a graph
(reachability here, and the witness lifts and forward search of the
checker) is one breadth-first search, :func:`bfs`, with
:func:`path_to` reading paths back from it.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import StateSpaceTooLargeError
from .model import GlobalState, Mvn, iter_states, require_valid, state_space_size

SYNC = "sync"
ASYNC = "async"

# The state budget of graph construction.  An asynchronous build peaks
# at about 630 bytes per state and keeps about 290 (tracemalloc, 12
# ternary entities of fan-in 2, 7.9 successors per state), so a graph at
# the budget peaks near 0.7 GB.  3**12 = 531,441 states fit.
MAX_STATES = 1 << 20


def _next_levels(model: Mvn, current: list[Sequence[int]]) -> list[Sequence[int]]:
    """The one update rule: each entity's table output in every state.

    ``current`` holds one column of levels per entity over a batch of
    states, and so does the result.  A table's keys are read off by
    zipping its input columns, and input entities keep their level.
    Row ``k`` of the result (``zip(*columns)``) is the synchronous
    successor of the ``k``-th state.
    """
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
    return tuple(column[0] for column in _next_levels(model, list(zip(state))))


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

    ``nodes`` is the full state space in lexicographic order, so
    ``nodes[k]`` is the state whose index is ``k``, and ``out[k]`` is
    the sorted tuple of node ``k``'s successor indices; all iteration
    over the graph is deterministic.  ``succ`` is the same relation on
    states, decoded on each lookup.
    """

    name: str
    semantics: str
    nodes: tuple[GlobalState, ...]
    out: tuple[tuple[int, ...], ...]

    def index(self, state: GlobalState) -> int:
        """The node index of ``state``: its mixed-radix number.

        Raises :class:`ValueError` unless ``state`` has one level per
        entity, each within the entity's range.
        """
        top = self.nodes[-1]  # the last state of the space: every max level
        if len(state) != len(top):
            raise ValueError(f"state {state} does not have {len(top)} levels")
        k = 0
        for level, max_level in zip(state, top):
            if not 0 <= level <= max_level:
                raise ValueError(f"state {state} is outside the state space")
            k = k * (max_level + 1) + level
        return k

    @property
    def succ(self) -> Mapping[GlobalState, tuple[GlobalState, ...]]:
        # A fresh view per read: a cached one would make every graph a
        # reference cycle, freed only by the cyclic collector.
        return _Successors(self)

    @cached_property
    def components(self) -> list[list[int]]:
        """The strongly connected components as node index lists.

        Computed by one Tarjan pass (:func:`_tarjan`) on first use and
        kept, so every analysis of the graph shares it.
        """
        return _tarjan(self.out)

    def edges(self) -> Iterator[tuple[GlobalState, GlobalState]]:
        nodes = self.nodes
        for u, vs in enumerate(self.out):
            for v in vs:
                yield (nodes[u], nodes[v])

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.out))

    def edge_set(self) -> set[tuple[GlobalState, GlobalState]]:
        return set(self.edges())


class _Successors(Mapping):
    """``graph.succ``: each state mapped to its sorted successor states."""

    def __init__(self, graph: StateGraph):
        self._graph = graph

    def __getitem__(self, state: GlobalState) -> tuple[GlobalState, ...]:
        graph = self._graph
        try:
            k = graph.index(state)
        except (TypeError, ValueError):
            raise KeyError(state) from None
        return tuple(map(graph.nodes.__getitem__, graph.out[k]))

    def __len__(self) -> int:
        return len(self._graph.nodes)

    def __iter__(self) -> Iterator[GlobalState]:
        return iter(self._graph.nodes)


def place_values(max_levels: Sequence[int]) -> list[int]:
    """How far a node index moves when each entity goes up one level."""
    places = [1] * len(max_levels)
    for i in range(len(places) - 1, 0, -1):
        places[i - 1] = places[i] * (max_levels[i] + 1)
    return places


def build_state_graph(model: Mvn, semantics: str) -> StateGraph:
    """Materialise the full state graph under the given discipline.

    Raises :class:`StateSpaceTooLargeError` before allocating anything
    when the model has more than :data:`MAX_STATES` states.
    """
    require_valid(model)
    if semantics not in (SYNC, ASYNC):
        raise ValueError(f"unknown semantics {semantics!r} (use {SYNC!r} or {ASYNC!r})")
    size = state_space_size(model)
    if size > MAX_STATES:
        raise StateSpaceTooLargeError(
            f"model {model.name}: {size} states exceed the budget of {MAX_STATES}"
        )
    nodes = tuple(iter_states(model))
    current = list(zip(*nodes))
    columns = _next_levels(model, current)
    places = place_values(model.max_levels)
    if semantics == SYNC:
        row = [0] * size
        for column, place in zip(columns, places):
            row = list(map(add, row, map(mul, column, repeat(place))))
        out = tuple(zip(row))
    else:
        moves = [
            list(map(mul, map(sub, nxt, cur), repeat(place)))
            for cur, nxt, place, nb in zip(current, columns, places, model.neighbourhoods)
            if nb.inputs
        ]
        del current, columns  # freed before the successor lists are built
        ids = list(range(size))  # one shared int per node index
        rows = zip(ids, zip(*moves)) if moves else zip(ids, repeat(()))
        # Node k steps by each of its nonzero moves.
        out = tuple(
            tuple(sorted(map(ids.__getitem__, map(k.__add__, filter(None, ds)))))
            for k, ds in rows
        )
    return StateGraph(name=model.name, semantics=semantics, nodes=nodes, out=out)


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


def _tarjan(out: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm over index successor lists.

    Iterative (explicit recursion stack) so deep graphs cannot hit the
    interpreter recursion limit.  Roots are tried in index order and
    successors in list order; components come out in reverse
    topological order of the condensation.
    """
    n = len(out)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    order = count()
    # One frame per node on the depth-first path: the node and an
    # iterator over its successors not yet examined.
    work: list[tuple[int, Iterator[int]]] = []

    def enter(node: int) -> None:
        index[node] = lowlink[node] = next(order)
        stack.append(node)
        on_stack[node] = True
        work.append((node, iter(out[node])))

    for root in range(n):
        if index[root] >= 0:
            continue
        enter(root)
        while work:
            node, successors = work[-1]
            for child in successors:
                if index[child] < 0:
                    enter(child)
                    break
                if on_stack[child] and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    scc = []
                    while True:
                        top = stack.pop()
                        on_stack[top] = False
                        scc.append(top)
                        if top == node:
                            break
                    sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
    return sccs


def strongly_connected_components(graph: StateGraph) -> list[list[GlobalState]]:
    """The graph's strongly connected components, as lists of states.

    Decoded from :attr:`StateGraph.components`, in its order: reverse
    topological order of the condensation.  Callers that need a stable
    order should sort the result.
    """
    nodes = graph.nodes
    return [[nodes[k] for k in comp] for comp in graph.components]


def _states(graph: StateGraph, nodes: Iterable[int]) -> frozenset[GlobalState]:
    return frozenset(map(graph.nodes.__getitem__, nodes))


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
    out = graph.out
    found: list[tuple[int, Attractor]] = []  # keyed by the smallest member
    if graph.semantics == ASYNC:
        for k, vs in enumerate(out):
            if not vs:
                found.append((k, Attractor("point", frozenset({graph.nodes[k]}), True)))
    for comp in graph.components:
        if graph.semantics == ASYNC:
            if len(comp) > 1:  # async graphs have no self-loops
                members = set(comp)
                terminal = all(v in members for u in comp for v in out[u])
                found.append((min(comp), Attractor("scc", _states(graph, comp), terminal)))
        elif len(comp) > 1:
            found.append((min(comp), Attractor("cycle", _states(graph, comp), True)))
        elif comp[0] in out[comp[0]]:
            found.append((comp[0], Attractor("point", _states(graph, comp), True)))
    found.sort(key=itemgetter(0))
    return AttractorSet(graph.semantics, tuple(a for _, a in found))


Node = TypeVar("Node", bound=Hashable)


def bfs(
    parents: dict[Node, Node | None],
    step: Callable[[Node], Iterable[Node]],
) -> Iterator[Node]:
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


def path_to(parents: dict[Node, Node | None], node: Node) -> tuple[Node, ...]:
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
    state sequence of a shortest path, endpoints included.  Raises
    :class:`ValueError` for a state outside the graph.
    """
    s, t = graph.index(source), graph.index(target)
    if s == t:
        return True, ()
    parents: dict[int, int | None] = {s: None}
    for v in bfs(parents, graph.out.__getitem__):
        if v == t:
            return True, tuple(map(graph.nodes.__getitem__, path_to(parents, v)))
    return False, None


def reachable_set(graph: StateGraph, source: GlobalState) -> frozenset[GlobalState]:
    """All states reachable from ``source`` (including itself).

    Raises :class:`ValueError` for a state outside the graph.
    """
    parents: dict[int, int | None] = {graph.index(source): None}
    for _ in bfs(parents, graph.out.__getitem__):
        pass
    return _states(graph, parents)
