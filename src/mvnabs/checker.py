"""Step-term decision procedure for asynchronous abstraction checking.

Asynchronous trace sets can be infinite, so trace inclusion cannot be
tested directly.  This module decides it on the finite state graphs
instead.  The ingredients, for an abstract model ``mv1``, a concrete
model ``mv2`` and a mapping ``phi``:

* the concrete class of an abstract state S: every concrete state that
  maps to S;
* the consecutive closure E[S'] of a concrete state: the least set
  containing S' and closed under successors with the same abstract
  image (these are exactly the steps that vanish when abstracted traces
  merge duplicate states);
* a step term st(Gamma, S): one proposed way to realise S by a nonempty
  set Gamma of its concrete class, together with, for each abstract
  successor S_i of S, the derived set of concrete states reachable from
  the closures of Gamma in one visible step landing on S_i.  A term is
  valid when every derived successor set is nonempty and, if S has no
  abstract successors, every member of Gamma can *settle*: reach, while
  staying inside its own image class, a state with no successors at all
  or a cycle of same-image states.  A settled run is a maximal run whose
  merged image is just S, which is exactly what a trace ending at the
  abstract point attractor needs.  (Requiring the whole closure to be
  escape-free would be stronger and wrongly rejects members whose class
  has both an escape route and a settling one.)

The check starts from all valid step terms for every abstract state and
repeatedly removes terms that have, for some abstract successor S_i, no
surviving term of S_i drawn from inside the derived set T(S_i).  (The
subset test matters: T(S_i) collects *every* concrete state that can
realise the step, and a realisation through some of them is enough.
Requiring T(S_i) itself to survive would wrongly refute models where
T(S_i) also picks up states that cannot continue, because validity is
not monotone in Gamma.)  If any abstract state runs out of terms the
abstraction is refuted; if a sweep removes nothing, what remains is a
family that is nonempty everywhere and closed under step terms, which
certifies trace inclusion.  The surviving family at the fixpoint is the
greatest closed subfamily, so the verdict does not depend on sweep
order; the sweeps have one, abstract states in index order and each
state's gammas in the order of their ascending member lists.
Successor sets are a pure function of (S, Gamma), so terms are keyed by
that pair and the closure test scans one family.
:meth:`StepTermFamily.check_closed` rebuilds every term it tests from
(S, Gamma) by the one rule of :func:`make_step_term`, so the successor
sets and validity a term carries are never trusted.

Each check computes its tables once, on node indices, as flat arrays:
the abstract index of every concrete node
(:func:`~mvnabs.abstraction.image_index`, summed column-wise from
per-entity tables of ``phi.level_image``, with no ``phi.apply`` call),
every class as the ascending list of its members' indices, each
node's position in its class and, per concrete node g, the derived
sets of {g} alone as bitmasks over the successor classes, packed into
one integer.  A subset Gamma of a class is a bitmask too, and its
derived sets are the OR of its members' entries.  The subsets are
listed in the order of their ascending member lists, the preorder of
the subset tree, by doubling from the top member down: the subsets
whose least member is j are {j}, then {j} joined to each subset above
j, then the subsets above j.  The derived sets double alongside, so a
class of k states costs 2^k ORs and two lists of 2^k integers, and
the sweeps visit each state's terms in that order with no sort.
Validity is a bit test on the packed value.  The sweeps run on these
integers too: a term is its gamma's bitmask and packed derived sets,
and the derived set T(S_i) is one slot of the packed value, so the
subset test is ``g & ~t == 0``; it looks the submasks of T(S_i) up
when they are fewer than the surviving terms.  A removal is recorded
as four ints, the two nodes and two masks.  States become tuples only
at the edge: the removals of a refutation, ``CheckStats`` and, when the
abstraction holds, the ``StepTerm`` objects of the surviving family,
which are built the first time the family's terms are read, with one
shared frozenset per bitmask, each built from the set of the mask
without its lowest bit.  The 2^|class| walk itself remains.

Same-image ("stutter") steps are the concrete asynchronous graph's
steps whose target has the image of their source, read off that graph
in place: no second graph is built.  They stay inside a class, so a
node's packed derived sets are its own visible steps ORed with those
of its stutter successors, and it can settle when it is a dead end,
lies on a same-image cycle or has a stutter successor that can settle.
One pass over the stutter SCCs in Tarjan's order (sinks first)
computes both for every node, with no closure built.
:func:`witness_path` reads only the graphs and image index of the
context that its :meth:`~StepTermFamily.check_closed` built; it lifts a
path by one breadth-first search on the concrete graph.

:func:`forward_holds` reaches the same verdict by forward subset
construction on the same tables, as antichain-style inclusion checks do
(De Wulf, Doyen, Henzinger and Raskin, CAV 2006; Abdulla et al., TACAS
2010).  A breadth-first search over pairs (S, Gamma) starts from
(S, class(S)) for every abstract state S and steps to (S_i, T(S_i)) for
each abstract successor S_i.  The abstraction holds iff no reachable
pair has an empty Gamma or sits at an abstract point attractor with no
member that can settle.  This is exact because T, and validity away
from the points, are monotone in Gamma, while at a point a singleton of
one settling member is valid.  No subset of a class is enumerated, so
no class size is refused.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from .abstraction import (
    AbstractionMapping,
    image_index,
    require_mapping_fits,
    require_source_fits,
)
from .errors import ClassTooLargeError, GammaOutOfClassError, NotClosedError
from .model import GlobalState, Mvn
from .semantics import ASYNC, StateSpace, bfs, build_state_graph, path_to, tarjan

# Step terms are enumerated over all nonempty subsets of a concrete
# class, as two lists of 2^|class| ints (gamma masks and packed derived
# sets).  Only the survivors become ``StepTerm`` objects, and only when
# the family is first read, but every valid subset is kept as a pair of
# ints until the sweeps end, so time and memory still grow as
# 2^|class|; past this size a check would not finish in useful time.
MAX_CLASS_SIZE = 20

StateSet = frozenset[GlobalState]


def concrete_class(phi: AbstractionMapping, state: GlobalState) -> StateSet:
    """All concrete states whose image is ``state``: those whose
    :func:`~mvnabs.abstraction.image_index` entry is its abstract index.

    Nonempty for every abstract state because each slot of the mapping
    is surjective.  Raises :class:`ValueError` for a state outside the
    abstract state space (:meth:`~mvnabs.semantics.StateSpace.index`).
    """
    a = StateSpace(phi.target_max_levels).index(state)
    members = (k for k, b in enumerate(image_index(phi)) if b == a)
    return frozenset(StateSpace(phi.source_max_levels).decode(members))


def consec_closure(mv2: Mvn, phi: AbstractionMapping, state: GlobalState) -> StateSet:
    """Least set containing ``state`` and closed under same-image steps,
    by one breadth-first search of ``mv2``'s asynchronous graph.

    Raises :class:`ValueError` for a state outside ``mv2``'s state space.
    """
    require_source_fits(phi, mv2)
    graph = build_state_graph(mv2, ASYNC)
    images = image_index(phi)
    parents: dict[int, int | None] = {graph.index(state): None}
    for _ in bfs(parents, lambda u: (v for v in graph.out[u] if images[v] == images[u])):
        pass
    return frozenset(graph.nodes.decode(parents))


@dataclass(frozen=True)
class StepTerm:
    """One candidate realisation of an abstract state.

    ``successors`` pairs every abstract successor S_i with its derived
    concrete set T(S_i); it is fully determined by ``(state, gamma)``.
    Invalid terms are kept around for diagnostics but never enter the
    surviving families.
    """

    state: GlobalState
    gamma: StateSet
    successors: tuple[tuple[GlobalState, StateSet], ...]
    valid: bool
    invalid_reason: str | None = None


@dataclass(frozen=True)
class _Layout:
    """The derived sets of one abstract state S, packed into one int.

    A subset of a class is a bitmask over the class in ascending index
    order.  ``slots`` gives, for each abstract successor S_i, its node
    index, the bit offset and the all-ones mask of its slot; the slot
    is a bitmask over class(S_i), with one guard bit above it that
    stays 0.  ``post[j]`` packs the derived sets of class member j
    alone, so the derived sets of a subset are the OR of its members'
    entries.  Adding ``fill`` (every slot all ones) carries into a
    slot's guard bit exactly when the slot is nonzero, so a packed value
    ``t`` has no empty derived set iff ``(t + fill) & guards == guards``.
    ``unsettleable`` marks the members that cannot settle; it is used
    only when S has no abstract successors.
    """

    slots: tuple[tuple[int, int, int], ...]
    post: tuple[int, ...]
    fill: int
    guards: int
    unsettleable: int


class _Subsets(dict):
    """Bitmask -> the members of one class it selects, built on first use.

    One frozenset per mask, shared by every term that refers to it.  A
    mask's set is the set of the mask without its lowest bit unioned
    with that member's singleton, so each union reuses stored hashes.
    """

    def __init__(self, klass: list[int], nodes: tuple[GlobalState, ...]):
        super().__init__({0: frozenset()})
        self.klass = klass
        self.nodes = nodes

    def __missing__(self, mask: int) -> StateSet:
        rest = mask & (mask - 1)
        if rest:
            found = self[rest] | self[mask ^ rest]
        else:
            found = frozenset((self.nodes[self.klass[mask.bit_length() - 1]],))
        self[mask] = found
        return found


class _Context:
    """Shared per-check data on node indices, each piece computed once
    per check, with the check's inputs ``mv1``, ``mv2`` and ``phi``.

    ``image_index[k]`` is the abstract node index of concrete node k,
    ``members[a]`` the concrete nodes of abstract node a's class in
    ascending order and ``pos[k]`` node k's position in its class.
    :meth:`_sweep` sets ``layouts[a]``, the packed derived sets of
    abstract node a (:class:`_Layout`), and ``settles[k]``, whether a
    run from node k can settle; the same-image successor lists it hands
    Tarjan are dropped when Tarjan returns, so no context keeps them.
    The state set of each bitmask (``_subsets``) is built on first use.
    """

    def __init__(self, mv1: Mvn, mv2: Mvn, phi: AbstractionMapping):
        require_mapping_fits(phi, mv1, mv2)
        self.mv1, self.mv2, self.phi = mv1, mv2, phi
        self.g1 = build_state_graph(mv1, ASYNC)
        self.g2 = build_state_graph(mv2, ASYNC)
        self.image_index = image_index(phi)
        self.members: list[list[int]] = [[] for _ in range(len(self.g1.nodes))]
        self.pos: list[int] = []
        for k, a in enumerate(self.image_index):  # ascending, so every class is sorted
            klass = self.members[a]
            self.pos.append(len(klass))
            klass.append(k)
        self._subsets = [_Subsets(klass, self.g2.nodes) for klass in self.members]
        self._sweep()

    def _sweep(self) -> None:
        """Set ``layouts`` and ``settles`` in one pass over the SCCs of
        ``g2``'s same-image steps, sinks first (see the module docstring).

        Every node of an SCC shares both.  Asynchronous graphs have no
        self-loops, so a same-image cycle is an SCC of two or more nodes.
        """
        offset_of: list[dict[int, int]] = []
        shapes = []
        for succs in self.g1.out:
            slots, offsets, offset, fill, guards = [], {}, 0, 0, 0
            for s_i in succs:
                width = len(self.members[s_i])
                ones = (1 << width) - 1
                slots.append((s_i, offset, ones))
                offsets[s_i] = offset
                fill |= ones << offset
                guards |= 1 << (offset + width)
                offset += width + 1
            offset_of.append(offsets)
            shapes.append((tuple(slots), fill, guards))
        out, images, pos = self.g2.out, self.image_index, self.pos
        # Each node's same-image successors, dropped once Tarjan returns.
        components = tarjan(
            [tuple(v for v in vs if images[v] == a) for vs, a in zip(out, images)]
        )
        post = [0] * len(out)
        settles = [False] * len(out)
        for comp in components:
            packed, settle = 0, len(comp) > 1
            for u in comp:
                a = images[u]
                offsets = offset_of[a]
                settle = settle or not out[u]
                for v in out[u]:
                    b = images[v]
                    if b == a:  # a stutter step; inside comp both are still unset
                        packed |= post[v]
                        settle = settle or settles[v]
                    elif b in offsets:
                        packed |= 1 << (offsets[b] + pos[v])
            for u in comp:
                post[u], settles[u] = packed, settle
        self.settles = settles
        self.layouts: list[_Layout] = []
        for (slots, fill, guards), klass in zip(shapes, self.members):
            stuck = 0 if slots else sum(1 << j for j, g in enumerate(klass) if not settles[g])
            self.layouts.append(
                _Layout(slots, tuple(map(post.__getitem__, klass)), fill, guards, stuck)
            )

    def _term(self, a: int, layout: _Layout, mask: int, packed: int) -> StepTerm:
        nodes = self.g1.nodes
        state = nodes[a]
        successors = []
        reason = None
        for s_i, offset, ones in layout.slots:
            t = packed >> offset & ones
            successors.append((nodes[s_i], self._subsets[s_i][t]))
            if not t and reason is None:
                reason = f"no concrete step realises {state} -> {nodes[s_i]}"
        stuck = mask & layout.unsettleable
        if stuck and reason is None:
            # The lowest bit is the first unsettleable member in order.
            g = self.g2.nodes[self.members[a][(stuck & -stuck).bit_length() - 1]]
            reason = (
                f"{state} is a point attractor but every maximal run "
                f"from {g} leaves its image class"
            )
        return StepTerm(
            state=state,
            gamma=self._subsets[a][mask],
            successors=tuple(successors),
            valid=reason is None,
            invalid_reason=reason,
        )

    def step_terms(self, state: GlobalState, gammas: Iterable) -> Iterator[StepTerm]:
        """The step term of ``(state, gamma)`` for each of ``gammas``, in
        turn: the one rule that makes a ``StepTerm`` of a given pair.

        Raises :class:`GammaOutOfClassError` for a gamma that is not a
        nonempty subset of the class of ``state``.
        """
        a = self.g1.index(state)
        klass = {self.g2.nodes[k]: self.pos[k] for k in self.members[a]}
        layout = self.layouts[a]
        for gamma in gammas:
            try:  # one bit per distinct member, so the sum is their OR
                mask = sum({1 << klass[g] for g in gamma})
            except (KeyError, TypeError):  # a member outside the class or unhashable
                mask = 0
            if not mask:
                try:
                    shown = sorted(gamma)
                except TypeError:  # a member that is not a state need not compare
                    shown = sorted(gamma, key=repr)
                raise GammaOutOfClassError(
                    f"{shown} is not a nonempty subset of the class of {state}"
                )
            yield self._term(a, layout, mask, _derived(layout, mask))

    def valid_subsets(self, a: int) -> dict[int, int]:
        """``{gamma mask: packed derived sets}`` of the valid terms of
        abstract node ``a``, in the order of the gammas' ascending
        member lists, built by doubling (see the module docstring).
        """
        size = len(self.members[a])
        if size > MAX_CLASS_SIZE:
            raise ClassTooLargeError(
                f"abstract state {self.g1.nodes[a]} has {size} concrete states; "
                f"subset enumeration is capped at {MAX_CLASS_SIZE}"
            )
        layout = self.layouts[a]
        fill, guards, unsettleable = layout.fill, layout.guards, layout.unsettleable
        masks: list[int] = []
        packs: list[int] = []
        for j in reversed(range(size)):
            bit, post = 1 << j, layout.post[j]
            masks = [bit, *map(bit.__or__, masks), *masks]
            packs = [post, *map(post.__or__, packs), *packs]
        return {
            mask: packed
            for mask, packed in zip(masks, packs)
            if (packed + fill) & guards == guards and not mask & unsettleable
        }

    def build_terms(self, a: int, terms: dict[int, int]) -> list[StepTerm]:
        """``StepTerm`` objects for ``{gamma mask: packed derived sets}``,
        listed by size and then lexicographically: a stable sort by size
        of the sweep order, the order of the gammas' ascending member
        lists, as each size is already lexicographic in it.
        """
        layout = self.layouts[a]
        return [
            self._term(a, layout, mask, packed)
            for mask, packed in sorted(terms.items(), key=lambda item: item[0].bit_count())
        ]

    def refuting_pair(self) -> tuple[GlobalState, int] | None:
        """The first bad pair of the forward search, or ``None``.

        A pair is an abstract node and a bitmask over its class.  It is
        bad when no member can go on: the mask is empty (the step into
        the state had no concrete realisation), or the state has no
        abstract successors and no member can settle.  Every node is a
        source.
        """
        parents = {(a, (1 << len(k)) - 1): None for a, k in enumerate(self.members)}

        def successors(pair):
            layout = self.layouts[pair[0]]
            packed = _derived(layout, pair[1])
            return [(s_i, packed >> offset & ones) for s_i, offset, ones in layout.slots]

        for a, mask in bfs(parents, successors):
            # Only members of point states are ever unsettleable.
            if not mask & ~self.layouts[a].unsettleable:
                return self.g1.nodes[a], mask
        return None


def _derived(layout: _Layout, mask: int) -> int:
    """The packed derived sets of a subset: its members' ``post`` ORed."""
    packed = 0
    while mask:
        low = mask & -mask
        packed |= layout.post[low.bit_length() - 1]
        mask ^= low
    return packed


def forward_holds(mv1: Mvn, mv2: Mvn, phi: AbstractionMapping) -> bool:
    """Decide asynchronous abstraction by forward subset construction.

    The same verdict as :func:`check_asyn_abs`, for classes of any size
    (see the module docstring).
    """
    return _Context(mv1, mv2, phi).refuting_pair() is None


def make_step_term(
    mv1: Mvn, mv2: Mvn, phi: AbstractionMapping, state: GlobalState, gamma
) -> StepTerm:
    """Build the step term for ``(state, gamma)``; check ``term.valid``."""
    return next(_Context(mv1, mv2, phi).step_terms(state, [gamma]))


def all_step_terms(
    mv1: Mvn, mv2: Mvn, phi: AbstractionMapping, state: GlobalState
) -> list[StepTerm]:
    """All valid step terms for one abstract state, by size and then
    lexicographically (:meth:`_Context.build_terms`), not in the sweep
    order of ascending member lists."""
    ctx = _Context(mv1, mv2, phi)
    a = ctx.g1.index(state)
    return ctx.build_terms(a, ctx.valid_subsets(a))


class _LazyTerms(Mapping):
    """The terms of a holding check's family, built on first read.

    Until then it holds the check's context and the surviving
    ``{gamma mask: packed derived sets}`` of every abstract node.  The
    first read builds the whole ``{state: {gamma: StepTerm}}`` dict, in
    abstract node order, and drops both.
    """

    def __init__(self, ctx: _Context, alive: list[dict[int, int]]):
        self._pending: tuple[_Context, list[dict[int, int]]] | None = (ctx, alive)
        self._terms: dict[GlobalState, dict[StateSet, StepTerm]] = {}

    def _built(self) -> dict[GlobalState, dict[StateSet, StepTerm]]:
        if self._pending is not None:
            ctx, alive = self._pending
            nodes = ctx.g1.nodes
            self._terms = {
                nodes[a]: {term.gamma: term for term in ctx.build_terms(a, survivors)}
                for a, survivors in enumerate(alive)
            }
            self._pending = None
        return self._terms

    def __getitem__(self, state: GlobalState) -> dict[StateSet, StepTerm]:
        return self._built()[state]

    def __iter__(self) -> Iterator[GlobalState]:
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())

    def __repr__(self) -> str:
        return repr(self._built())


@dataclass(frozen=True)
class StepTermFamily:
    """Surviving step terms per abstract state, plus the check inputs
    (kept so witnesses can be reconstructed).

    The family :func:`check_asyn_abs` returns builds its ``StepTerm``
    objects the first time ``terms`` is read.
    """

    mv1: Mvn
    mv2: Mvn
    phi: AbstractionMapping
    terms: Mapping[GlobalState, dict[StateSet, StepTerm]]

    def check_closed(self) -> None:
        """Raise unless every set is nonempty and closed under step terms.

        The terms are rebuilt from the models, one per gamma key of the
        family, by the rule of :func:`make_step_term`; the ``successors``
        and ``valid`` stored in them are never read.  A gamma outside its
        class raises :class:`GammaOutOfClassError`.  Every abstract state
        is walked in index order, and :class:`NotClosedError` names the
        first state with no gamma (a state the family has no key for
        counts as empty), the first invalid term (with its
        ``invalid_reason``) or the first rebuilt successor set that holds
        no gamma of its state.
        """
        _closed_context(self)


def _closed_context(family: StepTermFamily) -> _Context:
    """:meth:`StepTermFamily.check_closed` on a context built for it,
    returned when the family is closed."""
    ctx = _Context(family.mv1, family.mv2, family.phi)
    stored = dict(family.terms)  # one read of a lazily built family
    rebuilt: dict[GlobalState, list[StepTerm]] = {}

    def terms_of(state: GlobalState) -> list[StepTerm]:
        if state not in rebuilt:
            rebuilt[state] = list(ctx.step_terms(state, stored.get(state, ())))
        return rebuilt[state]

    for state in ctx.g1.nodes:
        terms = terms_of(state)
        if not terms:
            raise NotClosedError(f"no step terms left for abstract state {state}")
        for term in terms:
            if not term.valid:
                raise NotClosedError(term.invalid_reason)
            for s_i, t in term.successors:
                # realisable: some gamma of S_i lies inside t
                if not any(u.gamma <= t for u in terms_of(s_i)):
                    raise NotClosedError(
                        f"term for {state} needs a realisation of {s_i} "
                        f"inside {sorted(t)}, and the family has none"
                    )
    return ctx


@dataclass(frozen=True)
class Removal:
    """One pruning event: the term removed and the successor that failed."""

    state: GlobalState
    gamma: StateSet
    failed_successor: GlobalState
    missing_gamma: StateSet


@dataclass(frozen=True)
class FailureWitness:
    """Why the check refuted the abstraction."""

    state: GlobalState
    reason: str
    removals: tuple[Removal, ...]


@dataclass(frozen=True)
class CheckStats:
    """Counters of one :func:`check_asyn_abs` run.

    ``abstract_states`` is the number of abstract states and
    ``max_class_size`` the size of the largest concrete class.
    ``initial_terms`` counts the valid step terms before the first
    sweep, ``removed_terms`` the terms the sweeps pruned, and
    ``iterations`` the sweeps run, the last one removing nothing when
    the abstraction holds (0 when a state had no valid term at all).
    ``surviving_terms`` maps each abstract state to the number of its
    terms left when the check ended.  ``mvnabs check --json`` reports
    all six under the same keys, with the states of ``surviving_terms``
    written as labels.
    """

    abstract_states: int
    max_class_size: int
    initial_terms: int
    removed_terms: int
    iterations: int
    surviving_terms: dict[GlobalState, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of the asynchronous abstraction check.

    ``family`` is the surviving closed family when the abstraction
    holds; ``witness`` explains the refutation otherwise.
    """

    holds: bool
    family: StepTermFamily | None
    witness: FailureWitness | None
    stats: CheckStats


def check_asyn_abs(mv1: Mvn, mv2: Mvn, phi: AbstractionMapping) -> CheckResult:
    """Decide whether ``mv1`` abstracts ``mv2`` asynchronously under ``phi``.

    Initialises every abstract state's family with all its valid step
    terms, then sweeps: a term is removed when, for some abstract
    successor S_i, no surviving term of S_i has its gamma inside the
    derived set T(S_i).  Refuted the moment any family empties
    (including at initialisation); proved at the first sweep with no
    removals.  The verdict and the surviving family are independent of
    sweep order; the sweeps visit the abstract states in index order and
    each state's gammas in the order of their ascending member lists.
    They run on bitmasks (see the module docstring), and the check itself
    builds no ``StepTerm``: the family returned when the abstraction
    holds builds its terms the first time they are read.
    """
    return _check(_Context(mv1, mv2, phi))


def _check(ctx: _Context) -> CheckResult:
    """The sweeps of :func:`check_asyn_abs` on a built context.

    They change nothing that :meth:`_Context.refuting_pair` reads, so
    one context can give both the checker's and the forward verdict.
    """
    nodes = ctx.g1.nodes
    # alive[a]: gamma mask -> packed derived sets, one per surviving term
    alive = [ctx.valid_subsets(a) for a in range(len(nodes))]

    initial = sum(map(len, alive))
    max_class = max(map(len, ctx.members))
    # (a, gamma mask, s_i, t) per removed term: objects only on a refutation
    removals: list[tuple[int, int, int, int]] = []

    def stats(iterations: int) -> CheckStats:
        return CheckStats(
            abstract_states=len(nodes),
            max_class_size=max_class,
            initial_terms=initial,
            removed_terms=len(removals),
            iterations=iterations,
            surviving_terms=dict(zip(nodes, map(len, alive))),
        )

    def failure(a: int, reason: str, iterations: int) -> CheckResult:
        subsets = ctx._subsets
        witness = FailureWitness(nodes[a], reason, tuple(
            Removal(nodes[b], subsets[b][mask], nodes[s_i], subsets[s_i][t])
            for b, mask, s_i, t in removals
        ))
        return CheckResult(False, None, witness, stats(iterations))

    for a, survivors in enumerate(alive):
        if not survivors:
            return failure(a, "no valid step term realises this state", 0)

    iterations = 0
    while True:
        iterations += 1
        removed_this_sweep = False
        for a, survivors in enumerate(alive):
            slots = ctx.layouts[a].slots
            # In the order of the gammas' sorted member lists: deleting
            # from a dict keeps the order of what is left.
            for mask in list(survivors):
                packed = survivors[mask]
                for s_i, offset, ones in slots:
                    t = packed >> offset & ones
                    # realisable: some surviving gamma of S_i lies inside t
                    if t not in alive[s_i] and not _has_submask(alive[s_i], t):
                        del survivors[mask]
                        removals.append((a, mask, s_i, t))
                        removed_this_sweep = True
                        break
            if not survivors:
                return failure(a, "all step terms for this state were pruned", iterations)
        if not removed_this_sweep:
            break

    family = StepTermFamily(ctx.mv1, ctx.mv2, ctx.phi, _LazyTerms(ctx, alive))
    return CheckResult(True, family, None, stats(iterations))


def _has_submask(family: dict[int, int], t: int) -> bool:
    """Does some mask of ``family`` lie inside ``t``?

    Walks the submasks of ``t`` when there are fewer of them than masks
    in the family, and scans the family otherwise.
    """
    if 1 << t.bit_count() < len(family):
        sub = t
        while sub:
            if sub in family:
                return True
            sub = (sub - 1) & t
        return False
    return not all(g & ~t for g in family)


def witness_path(
    family: StepTermFamily, gamma_path: tuple[GlobalState, ...]
) -> tuple[GlobalState, ...]:
    """Lift an abstract path to a concrete one through a closed family.

    ``gamma_path`` must be a path of the abstract model's asynchronous
    state graph.  The result is a shortest concrete path from a member
    of a gamma of the first state whose abstracted, duplicate-merged
    image is exactly ``gamma_path``: one breadth-first search over
    pairs (concrete node, position on ``gamma_path``), where a step onto
    the current state's class keeps the position and a step onto the
    next state's class advances it.

    The family must be closed (:meth:`StepTermFamily.check_closed`, which
    checks the mapping against both models first and raises
    :class:`NotClosedError` also for a family that lacks an abstract
    state); the search reads the graphs and images of the context that
    check built.
    """
    if not gamma_path:
        raise ValueError("the abstract path must contain at least one state")
    ctx = _closed_context(family)
    g1, g2, images = ctx.g1, ctx.g2, ctx.image_index
    steps = list(map(g1.index, gamma_path))
    for u, v, a, b in zip(gamma_path, gamma_path[1:], steps, steps[1:]):
        if b not in g1.out[a]:
            raise ValueError(f"{u} -> {v} is not an abstract asynchronous step")
    last = len(steps) - 1
    starts = sorted(map(g2.index, set().union(*family.terms[gamma_path[0]])))
    parents: dict[tuple[int, int], tuple[int, int] | None] = {(k, 0): None for k in starts}

    def successors(pair):
        k, i = pair
        for v in g2.out[k]:
            if images[v] == steps[i]:
                yield v, i
            elif i < last and images[v] == steps[i + 1]:
                yield v, i + 1

    for pair in bfs(parents, successors):
        if pair[1] == last:
            return tuple(g2.nodes[k] for k, _ in path_to(parents, pair))
    # Only guards an invariant: a family that passes check_closed lifts
    # every abstract path.
    raise NotClosedError(f"no concrete path from the family's gammas lifts {gamma_path}")
