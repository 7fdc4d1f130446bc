"""Level-compression mappings and their action on states, traces, and models.

A state mapping squeezes one entity's level range ``{0..m}`` onto a
strictly smaller range ``{0..n}`` (surjective, n >= 1).  An abstraction
mapping bundles one slot per entity, each either a state mapping or the
identity, with at least one proper state mapping.  Applied pointwise it
sends concrete global states to abstract ones; applied to a trace it
additionally merges consecutive duplicate states, which can turn an
infinite trace into a finite one when a whole cycle collapses to a
single abstract state.

A smaller model abstracts a bigger one (same entities, same wiring,
compressed ranges) when every one of its traces appears among the
abstracted traces of the big model.  :func:`enumerate_candidates` builds
the finite family of abstract models compatible with a mapping: each
abstract table row can be filled with the image of any concrete row that
collapses onto it, and a candidate is one pick per ambiguous row.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .errors import (
    MappingError,
    MappingMismatchError,
    NonMonotoneMappingWarning,
    StructureMismatchError,
    TooManyCandidatesError,
)
from .model import Entity, GlobalState, Mvn, NextStateTable, is_level, require_valid
from .semantics import place_values
from .traces import LassoTrace, TraceSet, canonicalize, sync_traces

# The budget of candidate enumeration.  Each candidate is a whole model:
# one of a 6-entity ternary model with 9 choice points keeps about
# 3.3 KB (tracemalloc) and takes about 0.02 ms to build, so a set at the
# budget holds about 54 MB, and ``mvnabs candidates`` writes one file
# per candidate.
MAX_CANDIDATES = 1 << 14


def state_mapping_problem(table: tuple[int, ...]) -> str | None:
    """Why ``table`` is not a :class:`StateMapping`'s table, or ``None``
    when it is one."""
    m = len(table) - 1
    if m < 2:
        return f"cannot compress a range of size {m + 1}"
    # The maximum of the ints alone: max() cannot compare None or a str
    # with an int, and the level test below reports such an entry.
    n = max((v for v in table if type(v) is int), default=0)
    for v in table:
        if not is_level(v, n):
            # Below the maximum, an int that is not a level is negative.
            return "negative abstract level" if type(v) is int else f"{v!r} is not a level"
    if n < 1:
        return "codomain must be larger than one level"
    if n >= m:
        return f"codomain 0..{n} does not compress 0..{m}"
    if set(table) != set(range(n + 1)):
        return f"mapping is not surjective onto 0..{n}"
    return None


@dataclass(frozen=True)
class StateMapping:
    """Surjective compression of one entity's levels onto ``{0..n}``.

    ``table[level]`` is the abstract level; the codomain must be a
    contiguous range of size at least two and strictly smaller than the
    source range (:func:`state_mapping_problem`).
    """

    entity: int
    table: tuple[int, ...]

    def __post_init__(self):
        problem = state_mapping_problem(self.table)
        if problem is not None:
            raise MappingError(f"entity {self.entity}: {problem}")

    @property
    def target_max(self) -> int:
        return max(self.table)

    def is_monotone(self) -> bool:
        return all(a <= b for a, b in zip(self.table, self.table[1:]))


@dataclass(frozen=True)
class AbstractionMapping:
    """Per-entity family of state mappings and identities.

    ``slots[i]`` is ``None`` for the identity on entity ``i``.  At least
    one slot must be a proper state mapping.  ``source_max_levels`` pins
    the concrete ranges, so each slot's table covers its entity's range.
    """

    source_max_levels: tuple[int, ...]
    slots: tuple[StateMapping | None, ...]

    def __post_init__(self):
        if len(self.slots) != len(self.source_max_levels):
            raise MappingError("one slot per entity required")
        for i, slot in enumerate(self.slots):
            if slot is None:
                continue
            if slot.entity != i:
                raise MappingError(f"slot {i} carries a mapping for entity {slot.entity}")
            if len(slot.table) != self.source_max_levels[i] + 1:
                raise MappingError(
                    f"entity {i}: mapping covers 0..{len(slot.table) - 1}, "
                    f"source range is 0..{self.source_max_levels[i]}"
                )
        if all(slot is None for slot in self.slots):
            raise MappingError("at least one entity must be properly compressed")

    @property
    def target_max_levels(self) -> tuple[int, ...]:
        return tuple(
            self.source_max_levels[i] if slot is None else slot.target_max
            for i, slot in enumerate(self.slots)
        )

    def level_image(self, i: int, level: int) -> int:
        slot = self.slots[i]
        return level if slot is None else slot.table[level]

    def apply(self, state: GlobalState) -> GlobalState:
        return tuple(self.level_image(i, lvl) for i, lvl in enumerate(state))

    def warn_if_non_monotone(self) -> None:
        for slot in self.slots:
            if slot is not None and not slot.is_monotone():
                warnings.warn(
                    f"entity {slot.entity}: state mapping {slot.table} is not "
                    "order-preserving",
                    NonMonotoneMappingWarning,
                    stacklevel=3,
                )


def image_index(phi: AbstractionMapping) -> list[int]:
    """The abstract node index of every concrete node index under ``phi``.

    The one image function on node indices (see
    :mod:`mvnabs.semantics`), listed in concrete index order and built
    column-wise like the numbering itself: entity i contributes
    ``level_image(i, level)`` times its abstract place, and extending
    every index so far by each level of the next entity lists the
    concrete nodes in index order.
    """
    places = place_values(phi.target_max_levels)
    images = [0]
    for i, (top, place) in enumerate(zip(phi.source_max_levels, places)):
        column = [phi.level_image(i, level) * place for level in range(top + 1)]
        images = [a + b for a in images for b in column]
    return images


def require_same_structure(mv1: Mvn, mv2: Mvn) -> None:
    """Both models must have the same entity names and wiring."""
    names1 = tuple(e.name for e in mv1.entities)
    names2 = tuple(e.name for e in mv2.entities)
    if names1 != names2:
        raise StructureMismatchError(
            f"entity lists differ: {names1} vs {names2}"
        )
    for nb1, nb2 in zip(mv1.neighbourhoods, mv2.neighbourhoods):
        if nb1.inputs != nb2.inputs:
            raise StructureMismatchError(
                f"entity {names1[nb1.entity]}: neighbourhoods differ"
            )


def require_source_fits(phi: AbstractionMapping, model: Mvn) -> None:
    """``phi`` must read ``model``'s states."""
    if model.max_levels != phi.source_max_levels:
        raise MappingMismatchError(
            f"mapping source ranges {phi.source_max_levels} do not match "
            f"{model.name} ranges {model.max_levels}"
        )


def require_mapping_fits(phi: AbstractionMapping, mv1: Mvn, mv2: Mvn) -> None:
    """Same structure first, then ``phi`` must map ``mv2``'s states onto ``mv1``'s."""
    require_same_structure(mv1, mv2)
    require_source_fits(phi, mv2)
    if mv1.max_levels != phi.target_max_levels:
        raise MappingMismatchError(
            f"mapping target ranges {phi.target_max_levels} do not match "
            f"{mv1.name} ranges {mv1.max_levels}"
        )


def _merge_after(seq, last):
    """``seq`` without each element equal to the one before it, where
    ``last`` stands before the first (``None`` when nothing does)."""
    out = []
    for s in seq:
        if s != last:
            out.append(s)
        last = s
    return out


def abstract_trace(phi: AbstractionMapping, trace: LassoTrace) -> LassoTrace:
    """Map a trace pointwise and merge consecutive duplicate states.

    The result is the canonical lasso of the merged sequence.  If every
    state of the loop collapses to one abstract state the merged loop is
    empty, so the result is a finite trace ending there.
    """
    prefix_img = [phi.apply(s) for s in trace.prefix]
    loop_img = [phi.apply(s) for s in trace.loop]
    # After the prefix and one loop copy the merge state is pinned to the
    # loop's last image, so every later copy emits the same merged word.
    head = _merge_after(prefix_img + loop_img, None)
    body = _merge_after(loop_img, loop_img[-1] if loop_img else None)
    return canonicalize(LassoTrace(tuple(head), tuple(body)))


def abstract_trace_set(phi: AbstractionMapping, traces: TraceSet) -> TraceSet:
    """Image of a trace set, deduplicated after canonicalization."""
    return frozenset(abstract_trace(phi, t) for t in traces)


def check_sync_abstraction(mv1: Mvn, mv2: Mvn, phi: AbstractionMapping) -> bool:
    """Synchronous trace-inclusion check.

    Synchronous trace sets are always finite (one trace per initial
    state), so this is a direct set inclusion of canonical lassos:
    every trace of ``mv1`` must appear among the abstracted traces of
    ``mv2``.  Both sets come from :func:`~mvnabs.traces.sync_traces`, so
    a model with more than :data:`~mvnabs.traces.MAX_TRACES` states on
    either side raises :class:`~mvnabs.errors.TooManyTracesError`.
    """
    require_mapping_fits(phi, mv1, mv2)
    return sync_traces(mv1) <= abstract_trace_set(phi, sync_traces(mv2))


@dataclass(frozen=True)
class ChoicePoint:
    """One ambiguous abstract table row and its admissible outputs."""

    entity: int
    inputs: tuple[int, ...]
    options: tuple[int, ...]


@dataclass(frozen=True)
class CandidateSet:
    """All abstract models compatible with a mapping.

    ``models`` enumerates one model per combination of choice-point
    picks, in ascending pick order (so indices are stable across runs);
    ``choice_points`` records where the concrete tables were ambiguous.
    """

    models: tuple[Mvn, ...]
    choice_points: tuple[ChoicePoint, ...]

    def __len__(self) -> int:
        return len(self.models)


def enumerate_candidates(model: Mvn, phi: AbstractionMapping) -> CandidateSet:
    """Build every abstract model the mapping admits for ``model``.

    Validates ``model`` first, so a missing row raises
    :class:`~mvnabs.errors.ModelValidationError` naming it.  Then reads
    each concrete table once: every row files the image of its output
    under the image of its input levels, so the admissible outputs of
    an abstract row are the images of the outputs of all concrete rows
    that collapse onto it.  Abstract rows are read in ascending order.
    Rows with a single admissible output are fixed; the candidates are
    the Cartesian product of the per-row choices.  The wiring is
    preserved verbatim.

    Raises :class:`TooManyCandidatesError` before building any model
    when that product exceeds :data:`MAX_CANDIDATES`.
    """
    require_source_fits(phi, model)
    require_valid(model)
    target_max = phi.target_max_levels
    entities = tuple(
        Entity(e.name, target_max[i]) for i, e in enumerate(model.entities)
    )
    fixed: list[dict[tuple[int, ...], int]] = []
    choice_points: list[ChoicePoint] = []
    for i, (nb, table) in enumerate(zip(model.neighbourhoods, model.tables)):
        if not nb.inputs:
            fixed.append({(): 0})
            continue
        outputs: dict[tuple[int, ...], set[int]] = {}
        for x, out in table.rows.items():
            u = tuple(map(phi.level_image, nb.inputs, x))
            outputs.setdefault(u, set()).add(phi.level_image(i, out))
        rows: dict[tuple[int, ...], int] = {}
        for u in sorted(outputs):
            options = sorted(outputs[u])
            if len(options) == 1:
                rows[u] = options[0]
            else:
                choice_points.append(ChoicePoint(i, u, tuple(options)))
        fixed.append(rows)

    count = math.prod(len(cp.options) for cp in choice_points)
    if count > MAX_CANDIDATES:
        raise TooManyCandidatesError(
            f"mapping admits {count} candidate abstractions of {model.name} "
            f"({len(choice_points)} choice points), over the budget of {MAX_CANDIDATES}"
        )
    models = []
    for k, picks in enumerate(
        itertools.product(*(cp.options for cp in choice_points))
    ):
        tables = [dict(rows) for rows in fixed]
        for cp, pick in zip(choice_points, picks):
            tables[cp.entity][cp.inputs] = pick
        models.append(
            Mvn(
                name=f"{model.name}_abs{k}",
                entities=entities,
                neighbourhoods=model.neighbourhoods,
                tables=tuple(NextStateTable(i, rows) for i, rows in enumerate(tables)),
            )
        )
    return CandidateSet(tuple(models), tuple(choice_points))
