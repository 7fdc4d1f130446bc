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
order; there is one order, abstract states by index and each state's
gammas by ascending member list, and every listing of terms follows it.
A sweep tests a state's terms only when one of its successors has lost
a term since the state was last tested, as AC-3 revisits an arc only
when a neighbouring domain shrank (Mackworth, Artificial Intelligence
8(1), 1977); before the first sweep a state counts as tested when every
successor's family is complete, holding every nonempty subset of its
class.  The skip is exact: families only shrink, a term reads only its
successors' families, asynchronous graphs have no self-loops, and a
valid term's derived sets are nonempty, so a complete family holds one
of them.  So the sweeps remove the same terms in the same order as a
sweep that tests every term, and count the same iterations.
Successor sets are a pure function of (S, Gamma), so terms are keyed by
that pair.  :meth:`StepTermFamily.check_closed` reads only a family's
keys and gammas, derives their sets as the check does and tests closure
by the sweeps' own test, so the successor sets and validity a term
carries are never trusted.

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
Validity is a bit test on the packed value of every subset.  The
sweeps run on these integers too: a term is its gamma's bitmask and
packed derived sets, and the derived set T(S_i) is one slot of the
packed value, so the subset test is ``g & ~t == 0``; it looks the
submasks of T(S_i) up when they are fewer than the surviving terms.
One call tests all of a state's terms, and ``check_closed`` runs the
same test.  A removal is recorded as four ints, the two nodes and two
masks.  States become tuples only at the edge: the removals of a
refutation, ``CheckStats``, an error message and, when the abstraction
holds, the ``StepTerm`` objects of the surviving family, built the
first time the result's ``family`` is read, with one shared frozenset
per bitmask, each from the set of the mask without its lowest bit.
The 2^|class| walk itself remains.

Each per-check cache has one owner and is built the first time it is
read.  The context (``_Context``) owns the gamma masks of each class
size, listed when a class of that size is first enumerated, and the
frozenset of each bitmask, built when a term, a removal or a message
first needs states; a holding check whose family is never read builds
none.  A holding :class:`CheckResult` keeps the context and the
surviving masks until ``result.family`` is first read; that read builds
the family, a plain dict of ``StepTerm`` objects, and drops both.  Its
``repr`` and ``==`` cover the verdict, witness and statistics only, so
neither builds the family; test ``holds``, not ``family is not None``.

Same-image ("stutter") steps are the concrete asynchronous graph's
steps whose target has the image of their source, read off that graph
in place: no second graph is built.  They stay inside a class, so a
node's packed derived sets are its own visible steps ORed with those
of its stutter successors, and it can settle when it is a dead end,
lies on a same-image cycle or has a stutter successor that can settle.
One pass over the stutter SCCs in Tarjan's order (sinks first)
computes both for every node, with no closure built.
:func:`witness_path` reads only the graphs, image index and gamma masks
of the context that its :meth:`~StepTermFamily.check_closed` built; it
lifts a path by one breadth-first search on the concrete graph.

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

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

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
# class, as two lists of 2^|class| ints (gamma masks, listed once per
# class size by the check's context, and packed derived sets).  Only
# the survivors become ``StepTerm`` objects, and only when the family
# is first read, and the sweeps test a state's terms only after a
# successor lost one, but every valid subset is kept as a pair of ints
# until the sweeps end, so time and memory still grow as 2^|class|;
# past this size a check would not finish in useful time.
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

    def valid(self, terms: Iterable[tuple[int, int]]) -> dict[int, int]:
        """The valid pairs (gamma mask, packed derived sets) of ``terms``."""
        fill, guards, unsettleable = self.fill, self.guards, self.unsettleable
        return {
            mask: packed
            for mask, packed in terms
            if (packed + fill) & guards == guards and not mask & unsettleable
        }


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

    The context owns two caches, each filled the first time it is read:
    ``_gammas`` maps a class size to its gamma masks in sweep order, so
    :meth:`valid_subsets` lists each size once per context, and
    ``_subsets[a]`` (a :class:`_Subsets` per abstract node) gives the
    state set of a bitmask over class(a), built only when a term, a
    removal or a message needs states.
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
        self._gammas: dict[int, list[int]] = {}
        self._sweep()

    @cached_property
    def _subsets(self) -> list[_Subsets]:
        return [_Subsets(klass, self.g2.nodes) for klass in self.members]

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
        components = tarjan([[v for v in vs if images[v] == a] for vs, a in zip(out, images)])
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

    def _term(self, a: int, mask: int, packed: int) -> StepTerm:
        """The ``StepTerm`` of node ``a``'s gamma ``mask``: the one rule that makes one."""
        layout = self.layouts[a]
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

    def masks(self, a: int, gammas: Iterable) -> dict[int, int]:
        """``{gamma mask: packed derived sets}`` of ``gammas``, in order: the
        one rule that turns a gamma of abstract node ``a`` into a term.

        Raises :class:`GammaOutOfClassError` for a gamma that is not a
        nonempty subset of the class of ``a``.
        """
        klass = {self.g2.nodes[k]: self.pos[k] for k in self.members[a]}
        found = {}
        for gamma in gammas:
            gamma = list(gamma)  # read once: a gamma may be an iterator
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
                    f"{shown} is not a nonempty subset of the class of {self.g1.nodes[a]}"
                )
            found[mask] = _derived(self.layouts[a], mask)
        return found

    def valid_subsets(self, a: int) -> dict[int, int]:
        """``{gamma mask: packed derived sets}`` of the valid terms of
        abstract node ``a``, in the order of the gammas' ascending
        member lists, built by doubling (see the module docstring).

        The gamma masks of a class size come from the context's
        ``_gammas``, listed the first time a class of that size is read.
        """
        size = len(self.members[a])
        if size > MAX_CLASS_SIZE:
            raise ClassTooLargeError(
                f"abstract state {self.g1.nodes[a]} has {size} concrete states; "
                f"subset enumeration is capped at {MAX_CLASS_SIZE}"
            )
        if size not in self._gammas:
            self._gammas[size] = _doubled([1 << j for j in range(size)])
        layout = self.layouts[a]
        return layout.valid(zip(self._gammas[size], _doubled(layout.post)))

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


def _doubled(values: Sequence[int]) -> list[int]:
    """The OR of every nonempty subset of ``values``, in the order of the
    subsets' ascending index lists, by doubling from the last value down."""
    ors: list[int] = []
    for value in reversed(values):
        ors = [value, *map(value.__or__, ors), *ors]
    return ors


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
    ctx = _Context(mv1, mv2, phi)
    a = ctx.g1.index(state)
    return ctx._term(a, *ctx.masks(a, [gamma]).popitem())


def all_step_terms(
    mv1: Mvn, mv2: Mvn, phi: AbstractionMapping, state: GlobalState
) -> list[StepTerm]:
    """All valid step terms for one abstract state, in the sweep order:
    the gammas' ascending member lists."""
    ctx = _Context(mv1, mv2, phi)
    a = ctx.g1.index(state)
    return [ctx._term(a, mask, packed) for mask, packed in ctx.valid_subsets(a).items()]


@dataclass(frozen=True)
class StepTermFamily:
    """Surviving step terms per abstract state, plus the check inputs
    (kept so witnesses can be reconstructed).

    ``terms`` of the family a holding check returns is a plain dict in
    the sweep order; :attr:`CheckResult.family` builds it on first read.
    """

    mv1: Mvn
    mv2: Mvn
    phi: AbstractionMapping
    terms: Mapping[GlobalState, dict[StateSet, StepTerm]]

    def check_closed(self) -> None:
        """Raise unless every set is nonempty and closed under step terms.

        Only keys and gammas are read, never a term's ``successors`` or
        ``valid``.  All are converted first, by :func:`make_step_term`'s
        rule: a key that is not an abstract state, or a second key that
        names the same state (such as ``range(0, 2)`` besides ``(0, 1)``),
        raises :class:`ValueError`, a gamma outside its class
        :class:`GammaOutOfClassError`.  Then, walking the abstract states
        in index order, :class:`NotClosedError` names the first state
        with no gamma (no key counts as empty), the first invalid term
        (its ``invalid_reason``) or the first derived set that holds no
        gamma of its state.  A closed family builds no ``StepTerm``.
        """
        _closed_context(self)


def _closed_context(family: StepTermFamily) -> tuple[_Context, list[dict[int, int]]]:
    """:meth:`StepTermFamily.check_closed` on a context built for it.

    Returns the context and the ``{gamma mask: packed derived sets}`` it
    tested for every abstract node when the family is closed.
    """
    ctx = _Context(family.mv1, family.mv2, family.phi)
    nodes = ctx.g1.nodes
    keyed: dict[int, dict[int, int]] = {}
    for state, gammas in family.terms.items():
        a = ctx.g1.index(state)
        if a in keyed:
            raise ValueError(f"two keys of the family name abstract state {nodes[a]}")
        keyed[a] = ctx.masks(a, gammas)
    given = [keyed.get(a, {}) for a in range(len(nodes))]
    for a, terms in enumerate(given):
        if not terms:
            raise NotClosedError(f"no step terms left for abstract state {nodes[a]}")
        layout = ctx.layouts[a]
        valid = layout.valid(terms.items())
        failed = _unrealised(layout.slots, terms, given)
        for mask, packed in terms.items():
            if mask not in valid:
                raise NotClosedError(ctx._term(a, mask, packed).invalid_reason)
            if mask in failed:
                s_i, t = failed[mask]
                raise NotClosedError(
                    f"term for {nodes[a]} needs a realisation of {nodes[s_i]} "
                    f"inside {sorted(ctx._subsets[s_i][t])}, and the family has none"
                )
    return ctx, given


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

    ``witness`` explains a refutation.  When the abstraction holds,
    ``family`` is the surviving closed family, built the first time it
    is read; a refuted result's ``family`` is ``None``.  Test ``holds``,
    not ``family is not None``, for the verdict: reading ``family``
    builds every ``StepTerm``.  ``==`` and ``repr`` cover ``holds``,
    ``witness`` and ``stats`` only, so neither builds the family.
    """

    holds: bool
    witness: FailureWitness | None
    stats: CheckStats
    # [context, surviving {gamma mask: packed} per abstract node] of a
    # holding check, dropped when ``family`` is built.
    _pending: list = field(default_factory=list, repr=False, compare=False)

    @cached_property
    def family(self) -> StepTermFamily | None:
        """The surviving family as a plain ``{state: {gamma: StepTerm}}``
        dict in the sweep order, built on the first read, which lets go
        of the check's context; ``None`` when the abstraction fails."""
        if not self._pending:
            return None
        ctx, alive = self._pending
        # Rebound, not emptied: a copy of this result keeps its own list.
        object.__setattr__(self, "_pending", [])
        nodes = ctx.g1.nodes
        terms = {
            nodes[a]: {ctx._subsets[a][m]: ctx._term(a, m, p) for m, p in survivors.items()}
            for a, survivors in enumerate(alive)
        }
        return StepTermFamily(ctx.mv1, ctx.mv2, ctx.phi, terms)


def check_asyn_abs(mv1: Mvn, mv2: Mvn, phi: AbstractionMapping) -> CheckResult:
    """Decide whether ``mv1`` abstracts ``mv2`` asynchronously under ``phi``.

    Initialises every abstract state's family with all its valid step
    terms, then sweeps: a term is removed when, for some abstract
    successor S_i, no surviving term of S_i has its gamma inside the
    derived set T(S_i).  Refuted the moment any family empties
    (including at initialisation); proved at the first sweep with no
    removals.  The verdict and the surviving family are independent of
    sweep order; the sweeps visit the abstract states in index order and
    each state's gammas in the order of their ascending member lists,
    skipping a state none of whose successors has lost a term since its
    last test, which changes no removal.  They run on bitmasks (see the
    module docstring), and the check itself builds no ``StepTerm``: a
    holding result builds its family the first time ``result.family`` is
    read.  Test ``result.holds`` for the verdict.
    """
    return _check(_Context(mv1, mv2, phi))


def _check(ctx: _Context) -> CheckResult:
    """The sweeps of :func:`check_asyn_abs` on a built context.

    The context lists each class size's gamma masks once
    (:meth:`_Context.valid_subsets`), and builds its bitmask-to-states
    tables here only for a refutation's removals.  A holding result
    keeps the context and the surviving masks, and builds its family from
    them on the first ``result.family`` read.  A sweep tests a
    state's terms, in one :func:`_unrealised` call, only when a
    successor lost a term after the state's last test, counting an
    incomplete family as lost before the first sweep.  The sweeps
    change nothing that :meth:`_Context.refuting_pair` reads, so one
    context can give both the checker's and the forward verdict.
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
        witness = FailureWitness(nodes[a], reason, tuple(
            Removal(nodes[b], ctx._subsets[b][mask], nodes[s_i], ctx._subsets[s_i][t])
            for b, mask, s_i, t in removals
        ))
        return CheckResult(False, witness, stats(iterations))

    for a, survivors in enumerate(alive):
        if not survivors:
            return failure(a, "no valid step term realises this state", 0)

    # The clock ticks once per state that loses terms: lost[b] is when b
    # last lost one, tested[a] when a was last tested, and an incomplete
    # family has lost terms before the first sweep.
    out = ctx.g1.out
    lost = [int(len(f) < (1 << len(k)) - 1) for f, k in zip(alive, ctx.members)]
    tested = [0] * len(nodes)
    clock = iterations = 1
    while True:
        start = clock
        for a, survivors in enumerate(alive):
            if all(lost[b] <= tested[a] for b in out[a]):
                continue
            tested[a] = clock
            # a reads no family of its own, so every failure is found
            # before any is deleted; in the order of the gammas' sorted
            # member lists, as deleting from a dict keeps what is left.
            failed = _unrealised(ctx.layouts[a].slots, survivors, alive)
            if failed:
                clock += 1
                lost[a] = clock
                for mask, why in failed.items():
                    del survivors[mask]
                    removals.append((a, mask, *why))
                if not survivors:
                    return failure(a, "all step terms for this state were pruned", iterations)
        if clock == start:
            break
        iterations += 1

    return CheckResult(True, None, stats(iterations), [ctx, alive])


def _unrealised(
    slots: tuple, terms: dict[int, int], family: list[dict[int, int]]
) -> dict[int, tuple[int, int]]:
    """The closure test of one state's ``terms``: ``{gamma mask: (S_i,
    T(S_i))}``, in the order of ``terms``, for each term with a derived
    set that holds no gamma of ``family[S_i]``, naming the first."""
    failed = {}
    for mask, packed in terms.items():
        for s_i, offset, ones in slots:
            t = packed >> offset & ones
            if t not in family[s_i] and not _has_submask(family[s_i], t):
                failed[mask] = s_i, t
                break
    return failed


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
    family: StepTermFamily, gamma_path: Iterable[GlobalState]
) -> tuple[GlobalState, ...]:
    """Lift an abstract path to a concrete one through a closed family.

    ``gamma_path`` must be a path of the abstract model's asynchronous
    state graph.  The result is a shortest concrete path from a member
    of a gamma of the first state whose abstracted, duplicate-merged
    image is exactly ``gamma_path``: one breadth-first search over
    pairs (concrete node, position on ``gamma_path``), where a step onto
    the current state's class keeps the position and a step onto the
    next state's class advances it.

    ``gamma_path`` is read once, so it may be any iterable of states.
    The family must be closed, and the lift runs
    :meth:`StepTermFamily.check_closed` first: the search starts from
    the members of the first state's gammas, that check is where they
    are checked, and closure is what makes every abstract path lift.
    The search reads the graphs, images and gamma masks of the context
    that check built, not the family's keys again, and starts from the
    members in ascending node order.
    """
    gamma_path = tuple(gamma_path)  # read once: the path may be an iterator
    if not gamma_path:
        raise ValueError("the abstract path must contain at least one state")
    ctx, given = _closed_context(family)
    g1, g2, images = ctx.g1, ctx.g2, ctx.image_index
    steps = list(map(g1.index, gamma_path))
    for u, v, a, b in zip(gamma_path, gamma_path[1:], steps, steps[1:]):
        if b not in g1.out[a]:
            raise ValueError(f"{u} -> {v} is not an abstract asynchronous step")
    last = len(steps) - 1
    # The members of the first state's tested gammas, in ascending node order.
    union = reduce(or_, given[steps[0]])
    starts = [k for j, k in enumerate(ctx.members[steps[0]]) if union >> j & 1]
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
