"""Update semantics, state-graph construction, and attractor analysis.

Both update disciplines come from one rule, :func:`_next_levels`: each
entity's next-state table applied to the current state, with input
entities keeping their level.  It works column-wise, one column of next
levels per entity.  Under the synchronous discipline every entity
updates simultaneously, so a state's one successor is its row of next
levels (self-loops allowed).  Under the asynchronous discipline one
entity updates at a time and only updates that actually change the
state count, so successors are the single-entity changes towards that
row and a state may have zero, one, or many of them.

A graph build does not apply the rule state by state.  In the
lexicographic order of the state space entity ``j`` holds each level for
``place[j]`` states (see below), so its levels repeat with a period of
``place[j]`` times its range size, and these periods divide one another.
An entity's next level depends only on its inputs' levels, so its
column repeats with the longest period among its inputs.  The build
hands the rule one period of each entity's levels (its *block*), so
every table is read once per state of that period, and then tiles the
asynchronous moves and the synchronous successor indices to the full
state space.

Inside a graph every state is a node index: its mixed-radix number,
with entity 0 the most significant digit, so ``nodes[k]`` is the state
with index ``k`` and ascending index order is lexicographic order.  A
graph holds, for every node, the sorted tuple of its successor indices
(``StateGraph.out``).  An asynchronous step of entity ``i`` from level
``a`` to ``b`` goes from node ``k`` to ``k + (b - a) * place[i]``, where
``place[i]`` is the product of the range sizes of the entities after
``i``; a synchronous step goes to the index of the row of next levels,
and the nodes with one successor share its 1-tuple.  ``nodes`` is not
a tuple of states but a :class:`StateSpace`, which decodes an index on
demand from two tables of half states, so a graph holds no tuple per
state.  States become tuples only where they leave the module: the
``succ`` view, attractors, components, reachable sets and paths, each
decoded in bulk by :meth:`StateSpace.decode`.  :meth:`StateSpace.index`
is the one encoder, and it rejects states outside the space.

Attractors are the long-run behaviours: under synchronous updates the
unique cycles that iteration eventually enters, read off the successor
map by one walk from each node, with no SCC pass; under asynchronous
updates the states with no successors (point attractors) plus the
nontrivial strongly connected components of the state graph, from one
Tarjan pass per graph, kept on the graph
(:attr:`StateGraph.components`) and shared by every analysis of it.

State graphs are materialised explicitly, which keeps every downstream
analysis auditable.  Time and memory grow with the number of states,
which is exponential in the number of entities, so a build first calls
:func:`require_state_budget`, which refuses a state space above
:data:`MAX_STATES`.  Every search over a graph (reachability here, and
the witness lifts and forward search of the checker) is one
breadth-first search, :func:`bfs`, which yields its sources first, with
:func:`path_to` reading paths back from it.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import count, product, repeat
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import StateSpaceTooLargeError
from .model import GlobalState, Mvn, is_level, require_valid, state_space_size

SYNC = "sync"
ASYNC = "async"

# The state budget of graph construction.  An asynchronous build peaks
# at about 310 bytes per state and keeps about 145; a synchronous one
# peaks at about 90 and keeps about 10, one pointer per state plus the
# shared 1-tuples (tracemalloc, 12 ternary entities of fan-in 2, 8.0
# asynchronous successors per state).  ``nodes`` keeps no tuple per
# state.  So a graph at the budget peaks near 0.33 GB.  3**12 = 531,441
# states fit.
MAX_STATES = 1 << 20


def _next_levels(model: Mvn, blocks: list[Sequence[int]]) -> list[Sequence[int]]:
    """The one update rule: each entity's table output over one period.

    ``blocks[j]`` is entity ``j``'s levels over one period of the batch
    of states, and the lengths of the blocks divide one another.  Entity
    ``i``'s next level depends only on its inputs' levels, so its output
    column repeats with the longest period among its inputs: the table
    is read once per state of that period, with every shorter input
    block tiled to it.  An input entity keeps its level, so its column
    is its own block.  Over a single state (blocks of length 1) row 0 of
    the result is the synchronous successor.
    """
    out: list[Sequence[int]] = []
    for block, nb, table in zip(blocks, model.neighbourhoods, model.tables):
        if nb.inputs:
            inputs = [blocks[j] for j in nb.inputs]
            period = max(map(len, inputs))
            keys = zip(*[_tile(column, period) for column in inputs])
            out.append(list(map(table.rows.__getitem__, keys)))
        else:
            out.append(block)
    return out


def _tile(column: Sequence[int], length: int) -> Sequence[int]:
    """``column`` repeated to ``length``, a multiple of its length."""
    return column if len(column) == length else column * (length // len(column))


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
    target = sync_step(model, state)
    return frozenset(
        state[:i] + (level,) + state[i + 1 :]
        for i, level in enumerate(target)
        if level != state[i]
    )


def _levels(max_level: int) -> range:
    return range(max_level + 1)


class StateSpace(Sequence):
    """Every state of one state space, in index order, decoded on demand.

    The first half of the entities and the rest each have their states
    listed once, so ``space[k]`` is ``high[k // len(low)] + low[k %
    len(low)]``: a space of ``n`` states keeps about ``2 * sqrt(n)``
    tuples.  Iteration is :func:`itertools.product`, the fastest way to
    list every state, and :meth:`decode` lists the states of many
    indices at once.  Two spaces are equal when their max levels are.
    """

    __slots__ = ("max_levels", "_high", "_low", "_size")

    def __init__(self, max_levels: Sequence[int]):
        self.max_levels = tuple(max_levels)
        half = len(self.max_levels) // 2
        self._high = list(product(*map(_levels, self.max_levels[:half])))
        self._low = list(product(*map(_levels, self.max_levels[half:])))
        self._size = len(self._high) * len(self._low)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self.decode(range(self._size)[k]))
        i = k + self._size if k < 0 else k
        if not 0 <= i < self._size:
            raise IndexError(f"state index {k} out of range")
        high, low = divmod(i, len(self._low))
        return self._high[high] + self._low[low]

    def __iter__(self) -> Iterator[GlobalState]:
        return product(*map(_levels, self.max_levels))

    def __contains__(self, state: object) -> bool:
        try:
            self.index(state)  # type: ignore[arg-type]
        except ValueError:
            return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSpace):
            return NotImplemented
        return self.max_levels == other.max_levels

    def __hash__(self) -> int:
        return hash(self.max_levels)

    def __repr__(self) -> str:
        return f"StateSpace({self.max_levels})"

    def decode(self, indices: Iterable[int]) -> list[GlobalState]:
        """The states of ``indices``, which must lie in ``range(len(self))``."""
        high, low, width = self._high, self._low, len(self._low)
        return [high[k // width] + low[k % width] for k in indices]

    def index(self, state: GlobalState) -> int:  # type: ignore[override]
        """The index of ``state``: its mixed-radix number.

        Raises :class:`ValueError` unless ``state`` is a sequence with one
        level (:func:`~mvnabs.model.is_level`) of each entity's range, so
        also for ``None``, a number or any other non-sequence.
        """
        if not isinstance(state, Sequence) or len(state) != len(self.max_levels):
            raise ValueError(f"state {state} does not have {len(self.max_levels)} levels")
        k = 0
        for level, max_level in zip(state, self.max_levels):
            if not is_level(level, max_level):
                raise ValueError(f"state {state} is outside the state space")
            k = k * (max_level + 1) + level
        return k


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
    nodes: StateSpace
    out: tuple[tuple[int, ...], ...]

    def index(self, state: GlobalState) -> int:
        """The node index of ``state`` (:meth:`StateSpace.index`)."""
        return self.nodes.index(state)

    @property
    def succ(self) -> Mapping[GlobalState, tuple[GlobalState, ...]]:
        # A fresh view per read: a cached one would make every graph a
        # reference cycle, freed only by the cyclic collector.
        return _Successors(self)

    @cached_property
    def components(self) -> list[tuple[int, ...]]:
        """The strongly connected components as tuples of node indices.

        Computed by one Tarjan pass (:func:`tarjan`) on first use and
        kept, so every analysis of the graph shares it.
        """
        return tarjan(self.out)

    def edges(self) -> Iterator[tuple[GlobalState, GlobalState]]:
        nodes = list(self.nodes)
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
        except ValueError:
            raise KeyError(state) from None
        return tuple(graph.nodes.decode(graph.out[k]))

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


def require_state_budget(model: Mvn) -> int:
    """The model's number of states, checked against :data:`MAX_STATES`.

    Raises :class:`StateSpaceTooLargeError` above the budget.  A graph
    build and ``mvnabs abstract --states`` call this before they list a
    single state.
    """
    size = state_space_size(model)
    if size > MAX_STATES:
        raise StateSpaceTooLargeError(
            f"model {model.name}: {size} states exceed the budget of {MAX_STATES}"
        )
    return size


def build_state_graph(model: Mvn, semantics: str) -> StateGraph:
    """Materialise the full state graph under the given discipline.

    Raises :class:`StateSpaceTooLargeError` before allocating anything
    when the model has more than :data:`MAX_STATES` states.
    """
    require_valid(model)
    if semantics not in (SYNC, ASYNC):
        raise ValueError(f"unknown semantics {semantics!r} (use {SYNC!r} or {ASYNC!r})")
    size = require_state_budget(model)
    nodes = StateSpace(model.max_levels)
    places = place_values(model.max_levels)
    # Entity j's levels over one period: each held for place[j] states.
    blocks = [
        [v for level in range(max_level + 1) for v in repeat(level, place)]
        for max_level, place in zip(model.max_levels, places)
    ]
    columns = _next_levels(model, blocks)
    if semantics == SYNC:
        # The successor index sums next * place over the entities.  The
        # sum is formed shortest period first, tiled as the period grows.
        row = [0]
        for nxt, place in sorted(zip(columns, places), key=lambda c: len(c[0])):
            row = list(map(add, _tile(row, len(nxt)), map(mul, nxt, repeat(place))))
        # One 1-tuple per distinct successor, shared by its predecessors.
        single = {k: (k,) for k in row}
        out = tuple(_tile(list(map(single.__getitem__, row)), size))
    else:
        moves = []
        for block, nxt, place, nb in zip(blocks, columns, places, model.neighbourhoods):
            if nb.inputs:
                period = max(len(nxt), len(block))
                step = map(sub, _tile(nxt, period), _tile(block, period))
                moves.append(_tile(list(map(mul, step, repeat(place))), size))
        del blocks, columns  # freed before the successor lists are built
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


def tarjan(out: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Tarjan's algorithm over index successor lists.

    Iterative (explicit recursion stack) so deep graphs cannot hit the
    interpreter recursion limit.  Roots are tried in index order and
    successors in list order; components come out in reverse
    topological order of the condensation, each a tuple of its members
    in the order they leave the stack.  An emitted node is renumbered
    ``n``, so it never lowers a lowlink: no on-stack flags are kept.
    """
    n = len(out)
    index = [-1] * n
    lowlink = [0] * n
    stack: list[int] = []
    sccs: list[tuple[int, ...]] = []
    order = count()
    # One frame per node on the depth-first path: the node and an
    # iterator over its successors not yet examined.
    work: list[tuple[int, Iterator[int]]] = []

    def enter(node: int) -> None:
        index[node] = lowlink[node] = next(order)
        stack.append(node)
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
                if index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    scc = []
                    while True:
                        top = stack.pop()
                        index[top] = n
                        scc.append(top)
                        if top == node:
                            break
                    sccs.append(tuple(scc))
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
    return [graph.nodes.decode(comp) for comp in graph.components]


def _states(graph: StateGraph, nodes: Iterable[int]) -> frozenset[GlobalState]:
    return frozenset(graph.nodes.decode(nodes))


def attractors(graph: StateGraph) -> AttractorSet:
    """Find the attractors of a state graph.

    A synchronous graph's attractors are the cycles of its successor
    map (:func:`_sync_cycles`), each a ``"point"`` (a self-loop) or a
    ``"cycle"``, all terminal; no SCC pass runs.  An asynchronous
    graph's come from one loop over its SCCs: a point is a one-state
    SCC with no successors, and any larger SCC is an ``"scc"`` whose
    ``terminal`` flag says whether it has no exits.
    """
    if graph.semantics == SYNC:
        return AttractorSet(SYNC, tuple(
            Attractor("point" if len(cycle) == 1 else "cycle", _states(graph, cycle), True)
            for cycle in _sync_cycles(graph.out)
        ))
    out = graph.out
    found: list[tuple[int, Attractor]] = []  # keyed by the smallest member
    for comp in graph.components:
        u = comp[0]
        if len(comp) > 1 or not out[u]:
            members = set(comp)
            terminal = all(v in members for w in comp for v in out[w])
            kind = "point" if len(comp) == 1 else "scc"
            found.append((min(comp), Attractor(kind, _states(graph, comp), terminal)))
    found.sort(key=itemgetter(0))
    return AttractorSet(graph.semantics, tuple(a for _, a in found))


def _sync_cycles(out: Sequence[Sequence[int]]) -> list[list[int]]:
    """The cycles of a successor map, ordered by smallest node, each
    walked from its smallest node.

    Precondition: every node has exactly one successor, as in every
    synchronous graph that :func:`build_state_graph` makes.  One walk
    starts from each node in index order and follows the map, marking
    every node it reaches with the walk's number, until it reaches a
    marked node.  A walk that stops on its own mark has closed a new
    cycle.  The marks are one 4-byte C int per node, 0 for unmarked.
    """
    mark = memoryview(bytearray(4 * len(out))).cast("i")
    cycles = []
    for walk in range(1, len(out) + 1):  # walk k starts at node k - 1
        v = walk - 1
        while not mark[v]:
            mark[v] = walk
            (v,) = out[v]
        if mark[v] == walk:
            cycle = [v]
            (u,) = out[v]
            while u != v:
                cycle.append(u)
                (u,) = out[u]
            low = cycle.index(min(cycle))
            cycles.append(cycle[low:] + cycle[:low])
    cycles.sort(key=itemgetter(0))
    return cycles


Node = TypeVar("Node", bound=Hashable)


def bfs(
    parents: dict[Node, Node | None],
    step: Callable[[Node], Iterable[Node]],
) -> Iterator[Node]:
    """Breadth-first search from the keys of ``parents``.

    ``parents`` belongs to the caller and starts with every source
    mapped to ``None``.  The sources are yielded first, in key order.
    Then each newly reached node is recorded with the node it was
    reached from and yielded, in breadth-first order.  A caller stops
    the search by leaving its loop, and afterwards ``parents`` holds
    every node reached so far.
    """
    queue = list(parents)
    yield from queue
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
            return True, tuple(graph.nodes.decode(path_to(parents, v)))
    return False, None


def reachable_set(graph: StateGraph, source: GlobalState) -> frozenset[GlobalState]:
    """All states reachable from ``source`` (including itself).

    Raises :class:`ValueError` for a state outside the graph.
    """
    parents: dict[int, int | None] = {graph.index(source): None}
    for _ in bfs(parents, graph.out.__getitem__):
        pass
    return _states(graph, parents)
