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
order.  Successor sets are a pure function of (S, Gamma), so terms are
keyed by that pair and the closure test scans one family.

Each check computes its tables once: the image of every concrete state
(one ``phi.apply`` each), every class as a list in lexicographic order,
the closure of every concrete state and, per concrete state g, the
derived sets of {g} alone as bitmasks over the successor classes,
packed into one integer.  A subset Gamma of a class is a bitmask too,
and its derived sets are the OR of its members' entries.  The subsets
are walked in ``itertools.combinations`` order (by size, then
lexicographically), and each one's derived sets are those of the
subset without its top member ORed with the top member's own, so a
class of k states costs 2^k ORs and one table of 2^k integers.
Validity is a bit test on the packed value.  The sweeps run on these
integers too: a term is its gamma's bitmask and packed derived sets,
and the derived set T(S_i) is one slot of the packed value, so the
subset test is ``g & ~t == 0``.  Objects are built only at the edge:
the state sets of the recorded removals, and ``StepTerm`` objects for
the surviving family when the abstraction holds, with one shared
frozenset per bitmask.  The 2^|class| walk itself remains.

Every walk over same-image steps reads one graph, the concrete
asynchronous graph with only its same-image ("stutter") steps kept,
built once per check.  A closure is a breadth-first search on it.  The
states where a run can settle are the concrete dead ends plus the
members of its SCCs of two or more states, found by one Tarjan pass
when the first abstract point attractor needs them; a member can
settle when its closure meets them.  The same-image bridges that
:func:`witness_path` inserts are breadth-first paths on it too.

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

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

from .abstraction import (
    AbstractionMapping,
    require_mapping_fits,
    require_same_structure,
)
from .errors import ClassTooLargeError, GammaOutOfClassError, NotClosedError
from .model import GlobalState, Mvn
from .semantics import (
    ASYNC,
    StateGraph,
    bfs,
    build_state_graph,
    path_to,
    reachable_set,
    strongly_connected_components,
)

# Step terms are enumerated over all nonempty subsets of a concrete
# class.  Only the survivors become ``StepTerm`` objects, but every
# valid subset is kept as a pair of ints until the sweeps end, so time
# and memory still grow as 2^|class|; past this size a check would not
# finish in useful time.
MAX_CLASS_SIZE = 20

StateSet = frozenset[GlobalState]


def concrete_class(phi: AbstractionMapping, state: GlobalState) -> StateSet:
    """All concrete states whose image is ``state``.

    Nonempty for every abstract state because each slot of the mapping
    is surjective.
    """
    if len(state) != len(phi.source_max_levels):
        raise ValueError("abstract state has the wrong number of entities")
    target_max = phi.target_max_levels
    if any(not (0 <= lvl <= target_max[i]) for i, lvl in enumerate(state)):
        raise ValueError(f"state {state} is outside the abstract state space")
    return frozenset(
        itertools.product(*(phi.preimage(i, lvl) for i, lvl in enumerate(state)))
    )


def _images(graph: StateGraph, phi: AbstractionMapping) -> dict[GlobalState, GlobalState]:
    """The image under ``phi`` of every state of ``graph``."""
    return {u: phi.apply(u) for u in graph.nodes}


def _stutter_graph(graph: StateGraph, image: dict[GlobalState, GlobalState]) -> StateGraph:
    """``graph`` with only its same-image steps kept."""
    images = list(map(image.__getitem__, graph.nodes))
    return StateGraph(graph.name, graph.semantics, graph.nodes, tuple(
        tuple(v for v in vs if images[v] == images[u]) for u, vs in enumerate(graph.out)
    ))


def consec_closure(mv2: Mvn, phi: AbstractionMapping, state: GlobalState) -> StateSet:
    """Least set containing ``state`` and closed under same-image steps."""
    graph = build_state_graph(mv2, ASYNC)
    return reachable_set(_stutter_graph(graph, _images(graph, phi)), state)


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

    def successor(self, abstract_succ: GlobalState) -> StateSet:
        for s, t in self.successors:
            if s == abstract_succ:
                return t
        raise KeyError(abstract_succ)


@dataclass(frozen=True)
class _Layout:
    """The derived sets of one abstract state S, packed into one int.

    A subset of a class is a bitmask over the class in lexicographic
    order.  ``slots`` gives, for each abstract successor S_i, the bit
    offset and the all-ones mask of its slot; the slot is a bitmask
    over class(S_i), with one guard bit above it that stays 0.
    ``post[j]`` packs the derived sets of class member j alone, so the
    derived sets of a subset are the OR of its members' entries.  Adding
    ``fill`` (every slot all ones) carries into a slot's guard bit
    exactly when the slot is nonzero, so a packed value ``t`` has no
    empty derived set iff ``(t + fill) & guards == guards``.
    ``unsettleable`` marks the members that cannot settle; it is used
    only when S has no abstract successors.
    """

    slots: tuple[tuple[GlobalState, int, int], ...]
    post: tuple[int, ...]
    fill: int
    guards: int
    unsettleable: int


class _Subsets(dict):
    """Bitmask -> the members of one class it selects, built on first use.

    One frozenset per mask, shared by every term that refers to it.
    """

    def __init__(self, klass: list[GlobalState]):
        super().__init__()
        self.klass = klass

    def __missing__(self, mask: int) -> StateSet:
        # bin() lists the bits high to low; reversed, bit j meets klass[j]
        bits = map(int, bin(mask)[:1:-1])
        found = self[mask] = frozenset(itertools.compress(self.klass, bits))
        return found


class _Context:
    """Shared per-check data, each piece computed once per check.

    ``image`` holds the image of every concrete state, ``classes`` every
    abstract state's class in lexicographic order, ``index`` each
    concrete state's position in its class and ``stutter`` the concrete
    graph with only its same-image steps.  Three things are memoised on
    first use: the states where a run can settle (one Tarjan pass), the
    packed derived sets of each abstract state (:class:`_Layout`) and
    the state set of each bitmask (``_subsets``).
    """

    def __init__(self, mv1: Mvn, mv2: Mvn, phi: AbstractionMapping):
        require_same_structure(mv1, mv2)
        require_mapping_fits(phi, mv1, mv2)
        self.mv1 = mv1
        self.mv2 = mv2
        self.phi = phi
        self.g1 = build_state_graph(mv1, ASYNC)
        self.g2 = build_state_graph(mv2, ASYNC)
        self.image = _images(self.g2, phi)
        self.stutter = _stutter_graph(self.g2, self.image)
        self.classes: dict[GlobalState, list[GlobalState]] = {s: [] for s in self.g1.nodes}
        self.index: dict[GlobalState, int] = {}
        for u in self.g2.nodes:  # lexicographic, so every class is sorted
            klass = self.classes[self.image[u]]
            self.index[u] = len(klass)
            klass.append(u)
        self._layouts: dict[GlobalState, _Layout] = {}
        self._subsets = {s: _Subsets(klass) for s, klass in self.classes.items()}

    @cached_property
    def _settling(self) -> frozenset[GlobalState]:
        """The dead ends of the concrete graph and the states on a
        same-image cycle.

        Asynchronous graphs have no self-loops, so a same-image cycle is
        a stutter SCC of two or more states.  A closure is closed under
        same-image steps, so every such SCC that meets it lies inside.
        """
        cycles = (scc for scc in strongly_connected_components(self.stutter) if len(scc) > 1)
        nodes = self.g2.nodes
        return frozenset(nodes[k] for k, vs in enumerate(self.g2.out) if not vs).union(*cycles)

    def closure(self, state: GlobalState) -> StateSet:
        return reachable_set(self.stutter, state)

    def settleable(self, state: GlobalState) -> bool:
        """Can a maximal run from ``state`` stay inside its image class?"""
        return not self._settling.isdisjoint(self.closure(state))

    def _class(self, state: GlobalState) -> list[GlobalState]:
        if state not in self.classes:
            raise ValueError(f"state {state} is outside the abstract state space")
        return self.classes[state]

    def _layout(self, state: GlobalState) -> _Layout:
        if state not in self._layouts:
            succs = self.g1.succ[state]
            slots, offset, fill, guards = [], 0, 0, 0
            for s_i in succs:
                width = len(self.classes[s_i])
                ones = (1 << width) - 1
                slots.append((s_i, offset, ones))
                fill |= ones << offset
                guards |= 1 << (offset + width)
                offset += width + 1
            offset_of = {s_i: off for s_i, off, _ in slots}
            post, unsettleable = [], 0
            for j, g in enumerate(self.classes[state]):
                closure = self.closure(g)
                packed = 0
                for u in closure:
                    for v in self.g2.succ[u]:
                        off = offset_of.get(self.image[v])
                        if off is not None:
                            packed |= 1 << (off + self.index[v])
                post.append(packed)
                if not succs and self._settling.isdisjoint(closure):
                    unsettleable |= 1 << j
            self._layouts[state] = _Layout(
                tuple(slots), tuple(post), fill, guards, unsettleable
            )
        return self._layouts[state]

    def _term(self, state: GlobalState, layout: _Layout, mask: int, packed: int) -> StepTerm:
        successors = []
        reason = None
        for s_i, offset, ones in layout.slots:
            t = packed >> offset & ones
            successors.append((s_i, self._subsets[s_i][t]))
            if not t and reason is None:
                reason = f"no concrete step realises {state} -> {s_i}"
        stuck = mask & layout.unsettleable
        if stuck and reason is None:
            # The lowest bit is the first unsettleable member in order.
            g = self.classes[state][(stuck & -stuck).bit_length() - 1]
            reason = (
                f"{state} is a point attractor but every maximal run "
                f"from {g} leaves its image class"
            )
        return StepTerm(
            state=state,
            gamma=self._subsets[state][mask],
            successors=tuple(successors),
            valid=reason is None,
            invalid_reason=reason,
        )

    def step_term(self, state: GlobalState, gamma: StateSet) -> StepTerm:
        self._class(state)
        if not gamma or any(self.image.get(g) != state for g in gamma):
            raise GammaOutOfClassError(
                f"{sorted(gamma)} is not a nonempty subset of the class of {state}"
            )
        layout = self._layout(state)
        mask = sum(1 << self.index[g] for g in gamma)
        return self._term(state, layout, mask, _derived(layout, mask))

    def valid_subsets(self, state: GlobalState) -> dict[int, int]:
        """``{gamma mask: packed derived sets}`` of the valid terms of
        ``state``, in the order: subsets by size, then lexicographic.

        The derived sets of each subset are those of the subset without
        its top member, ORed with the top member's own.
        """
        klass = self._class(state)
        if len(klass) > MAX_CLASS_SIZE:
            raise ClassTooLargeError(
                f"abstract state {state} has {len(klass)} concrete states; "
                f"subset enumeration is capped at {MAX_CLASS_SIZE}"
            )
        layout = self._layout(state)
        fill, guards, unsettleable = layout.fill, layout.guards, layout.unsettleable
        bits = [1 << j for j in range(len(klass))]
        post = dict(zip(bits, layout.post))
        derived = [0] * (1 << len(klass))
        valid = {}
        for r in range(1, len(klass) + 1):
            for combo in itertools.combinations(bits, r):
                top = combo[-1]
                mask = sum(combo)
                packed = derived[mask] = derived[mask - top] | post[top]
                if (packed + fill) & guards == guards and not mask & unsettleable:
                    valid[mask] = packed
        return valid

    def all_step_terms(self, state: GlobalState) -> list[StepTerm]:
        """Valid terms in the order of :meth:`valid_subsets`."""
        return self.build_terms(state, self.valid_subsets(state))

    def build_terms(self, state: GlobalState, terms: dict[int, int]) -> list[StepTerm]:
        """``StepTerm`` objects for ``{gamma mask: packed derived sets}``."""
        layout = self._layout(state)
        return [self._term(state, layout, mask, packed) for mask, packed in terms.items()]

    def refuting_pair(self) -> tuple[GlobalState, int] | None:
        """The first bad pair of the forward search, or ``None``.

        A pair is an abstract state and a bitmask over its class.  It is
        bad when no member can go on: the mask is empty (the step into
        the state had no concrete realisation), or the state has no
        abstract successors and no member can settle.
        """
        parents = {(s, (1 << len(k)) - 1): None for s, k in self.classes.items()}

        def successors(pair):
            layout = self._layout(pair[0])
            packed = _derived(layout, pair[1])
            return [(s_i, packed >> offset & ones) for s_i, offset, ones in layout.slots]

        for state, mask in itertools.chain(list(parents), bfs(parents, successors)):
            # Only members of point states are ever unsettleable.
            if not mask & ~self._layout(state).unsettleable:
                return state, mask
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
    return _Context(mv1, mv2, phi).step_term(state, frozenset(gamma))


def all_step_terms(
    mv1: Mvn, mv2: Mvn, phi: AbstractionMapping, state: GlobalState
) -> list[StepTerm]:
    """All valid step terms for one abstract state."""
    return _Context(mv1, mv2, phi).all_step_terms(state)


@dataclass(frozen=True)
class StepTermFamily:
    """Surviving step terms per abstract state, plus the check inputs
    (kept so witnesses can be reconstructed)."""

    mv1: Mvn
    mv2: Mvn
    phi: AbstractionMapping
    terms: dict[GlobalState, dict[StateSet, StepTerm]]

    def gammas(self, state: GlobalState) -> set[StateSet]:
        return set(self.terms[state])

    def term(self, state: GlobalState, gamma: StateSet) -> StepTerm:
        return self.terms[state][gamma]

    def check_closed(self) -> None:
        """Raise unless every set is nonempty and closed under step terms."""
        for state, by_gamma in self.terms.items():
            if not by_gamma:
                raise NotClosedError(f"no step terms left for abstract state {state}")
            for term in by_gamma.values():
                for s_i, t in term.successors:
                    # realisable: some gamma of S_i lies inside t
                    family = self.terms.get(s_i, {})
                    if t not in family and not any(gamma <= t for gamma in family):
                        raise NotClosedError(
                            f"term for {state} needs a realisation of {s_i} "
                            f"inside {sorted(t)}, and the family has none"
                        )


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


def check_asyn_abs(
    mv1: Mvn,
    mv2: Mvn,
    phi: AbstractionMapping,
    *,
    sweep_rng: random.Random | None = None,
) -> CheckResult:
    """Decide whether ``mv1`` abstracts ``mv2`` asynchronously under ``phi``.

    Initialises every abstract state's family with all its valid step
    terms, then sweeps: a term is removed when, for some abstract
    successor S_i, no surviving term of S_i has its gamma inside the
    derived set T(S_i).  Refuted the moment any family empties
    (including at initialisation); proved at the first sweep with no
    removals.  The verdict and the surviving family are independent of
    sweep order; ``sweep_rng`` randomises the order and exists so tests
    can demonstrate exactly that.  The sweeps run on bitmasks (see the
    module docstring); ``StepTerm`` objects are built only for the
    family returned when the abstraction holds.
    """
    ctx = _Context(mv1, mv2, phi)
    # alive[S]: gamma mask -> packed derived sets, one per surviving term
    alive = {state: ctx.valid_subsets(state) for state in ctx.g1.nodes}

    initial = sum(len(v) for v in alive.values())
    max_class = max(len(klass) for klass in ctx.classes.values())
    removals: list[Removal] = []

    def stats(iterations: int) -> CheckStats:
        return CheckStats(
            abstract_states=len(ctx.g1.nodes),
            max_class_size=max_class,
            initial_terms=initial,
            removed_terms=len(removals),
            iterations=iterations,
            surviving_terms={s: len(v) for s, v in alive.items()},
        )

    def failure(state: GlobalState, reason: str, iterations: int) -> CheckResult:
        witness = FailureWitness(state=state, reason=reason, removals=tuple(removals))
        return CheckResult(False, None, witness, stats(iterations))

    for state in ctx.g1.nodes:
        if not alive[state]:
            return failure(state, "no valid step term realises this state", 0)

    # Each sweep visits a state's gammas in the order of their sorted
    # member lists, filtered to the survivors.
    order = {state: sorted(masks, key=_lex_key) for state, masks in alive.items()}

    iterations = 0
    while True:
        iterations += 1
        removed_this_sweep = False
        states = list(ctx.g1.nodes)
        if sweep_rng is not None:
            sweep_rng.shuffle(states)
        for state in states:
            survivors = alive[state]
            masks = [mask for mask in order[state] if mask in survivors]
            if sweep_rng is not None:
                sweep_rng.shuffle(masks)
            slots = ctx._layout(state).slots
            for mask in masks:
                packed = survivors[mask]
                for s_i, offset, ones in slots:
                    t = packed >> offset & ones
                    # realisable: some surviving gamma of S_i lies inside t
                    if t not in alive[s_i] and all(g & ~t for g in alive[s_i]):
                        del survivors[mask]
                        removals.append(Removal(
                            state, ctx._subsets[state][mask], s_i, ctx._subsets[s_i][t]
                        ))
                        removed_this_sweep = True
                        break
            if not survivors:
                return failure(
                    state, "all step terms for this state were pruned", iterations
                )
        if not removed_this_sweep:
            break

    terms = {
        state: {term.gamma: term for term in ctx.build_terms(state, survivors)}
        for state, survivors in alive.items()
    }
    family = StepTermFamily(mv1=mv1, mv2=mv2, phi=phi, terms=terms)
    return CheckResult(True, family, None, stats(iterations))


# Reversed, bin() puts bit j at position j.  Written "0" for a member and
# "1" for a non-member, two masks compare as their ascending member lists
# do: at the first difference the mask holding the lower member is
# smaller, and a prefix (no member above) is smaller.
_MEMBER_FIRST = str.maketrans("01", "10")


def _lex_key(mask: int) -> str:
    """Sort key ordering bitmasks over a class like their sorted gammas.

    Classes are lexicographic, so ``sorted(gamma)`` lists the members in
    ascending class position.
    """
    return bin(mask)[:1:-1].translate(_MEMBER_FIRST)


def witness_path(
    family: StepTermFamily, gamma_path: tuple[GlobalState, ...]
) -> tuple[GlobalState, ...]:
    """Lift an abstract path to a concrete one through a closed family.

    ``gamma_path`` must be a path of the abstract model's asynchronous
    state graph.  The result is a concrete path whose abstracted,
    duplicate-merged image is exactly ``gamma_path``.  Works by chaining
    step terms forward (each step's derived successor set is the next
    state's realisation) and then pulling one concrete state back
    through each link, inserting the same-image bridge states that the
    closures absorbed.
    """
    if not gamma_path:
        raise ValueError("the abstract path must contain at least one state")
    family.check_closed()
    ctx = _Context(family.mv1, family.mv2, family.phi)
    for s in gamma_path:
        ctx._class(s)  # ValueError outside the abstract state space
    for a, b in zip(gamma_path, gamma_path[1:]):
        if b not in ctx.g1.succ[a]:
            raise ValueError(f"{a} -> {b} is not an abstract asynchronous step")

    first = gamma_path[0]
    gammas: list[StateSet] = [min(family.gammas(first), key=sorted)]
    for i, nxt in enumerate(gamma_path[1:]):
        term = family.term(gamma_path[i], gammas[i])
        derived = term.successor(nxt)
        # Any surviving realisation drawn from the derived set will do;
        # closure guarantees one exists.
        gammas.append(
            min((g for g in family.gammas(nxt) if g <= derived), key=sorted)
        )

    # Backward concrete chaining, smallest states first for determinism.
    path: list[GlobalState] = [min(gammas[-1])]
    for i in range(len(gamma_path) - 2, -1, -1):
        target = path[0]
        bridge = None
        for a in sorted(gammas[i]):
            parents: dict[GlobalState, GlobalState | None] = {a: None}
            reached = bfs(parents, ctx.stutter.succ.__getitem__)
            for u in itertools.chain((a,), reached):
                if target in ctx.g2.succ[u]:
                    bridge = list(path_to(parents, u))
                    break
            if bridge is not None:
                break
        if bridge is None:  # impossible for a closed family, by construction
            raise NotClosedError(
                f"no member of {sorted(gammas[i])} reaches {target}"
            )
        path = bridge + path
    return tuple(path)
