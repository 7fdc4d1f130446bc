"""Core multi-valued network (MVN) model types and structural validation.

An MVN is a finite ordered collection of named entities.  Each entity
holds a discrete level in ``{0..max_level}``, is wired to an ordered
tuple of input entities (its neighbourhood), and owns a next-state table
mapping every combination of input levels to a new level.  An entity
with an empty neighbourhood is an *input entity*: its level is set from
outside the model and never changes during updates, so its table is a
single placeholder row that the semantics ignore.

A global state is a plain tuple of ints, one level per entity in
declaration order, and every public function takes and returns states
in this form.  Inside a state graph each state is also a node index,
its mixed-radix number (see :mod:`mvnabs.semantics`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import ModelValidationError

GlobalState = tuple[int, ...]

# Keeps single-digit-per-entity state labels possible in most models and
# bounds table sizes; more levels than this has no qualitative-modelling use.
LEVEL_CAP = 15


@dataclass(frozen=True)
class Entity:
    """A named regulatory entity with state set ``{0..max_level}``."""

    name: str
    max_level: int


@dataclass(frozen=True)
class Neighbourhood:
    """Ordered input wiring for one entity.

    ``inputs`` lists the indices of the entities whose levels feed this
    entity's next-state table, each at most once, in table-column order.
    Empty means the entity is an input entity.
    """

    entity: int
    inputs: tuple[int, ...]


@dataclass(frozen=True)
class NextStateTable:
    """Total next-state function for one entity.

    ``rows`` maps a tuple of input levels (one per neighbourhood input,
    in neighbourhood order) to the entity's next level.  Input entities
    carry the single placeholder row ``{(): 0}``.
    """

    entity: int
    rows: dict[tuple[int, ...], int]


@dataclass(frozen=True)
class Mvn:
    """A multi-valued network: entities, wiring, and next-state tables.

    Instances are frozen and safe to share across threads, provided no
    one mutates a table's rows: :attr:`NextStateTable.rows` is a plain
    dict, and :mod:`~mvnabs.fixtures` hands out one cached model per
    process, so rows must not be mutated; copy them to derive a model.
    Construction does not validate; run :func:`validate` (or
    :func:`require_valid`) before handing a model to the semantics.
    """

    name: str
    entities: tuple[Entity, ...]
    neighbourhoods: tuple[Neighbourhood, ...]
    tables: tuple[NextStateTable, ...]

    @cached_property
    def max_levels(self) -> tuple[int, ...]:
        return tuple(e.max_level for e in self.entities)

    @cached_property
    def _name_to_index(self) -> dict[str, int]:
        return {e.name: i for i, e in enumerate(self.entities)}

    def entity_index(self, name: str) -> int:
        return self._name_to_index[name]

    def is_input(self, i: int) -> bool:
        return not self.neighbourhoods[i].inputs

    def inputs_of(self, i: int, state: GlobalState) -> tuple[int, ...]:
        """Project a global state onto entity ``i``'s neighbourhood."""
        return tuple(state[j] for j in self.neighbourhoods[i].inputs)

    def equivalent(self, other: "Mvn") -> bool:
        """Structural and behavioural equality, ignoring the model name."""
        return (
            self.entities == other.entities
            and self.neighbourhoods == other.neighbourhoods
            and self.tables == other.tables
        )


def state_space_size(model: Mvn) -> int:
    """Number of global states: the product of per-entity range sizes."""
    size = 1
    for e in model.entities:
        size *= e.max_level + 1
    return size


def iter_states(model: Mvn) -> Iterator[GlobalState]:
    """All global states in lexicographic (declaration) order."""
    return itertools.product(*(range(e.max_level + 1) for e in model.entities))


def is_level(value: object, top: int) -> bool:
    """Whether ``value`` is a level of the range ``0..top``: an ``int``,
    not a ``bool``, within it.  The one test of what a level is."""
    return type(value) is int and 0 <= value <= top


def validate(model: Mvn) -> list[str]:
    """Check every structural invariant; return one diagnostic per violation.

    An empty list means the model is valid.  Diagnostics name the entity
    and, for table problems, the offending row; within a table they come
    in ascending row order.
    """
    diags: list[str] = []
    n = len(model.entities)
    if n == 0:
        diags.append("model has no entities")
    if len(model.neighbourhoods) != n:
        diags.append(
            f"expected {n} neighbourhoods, found {len(model.neighbourhoods)}"
        )
    if len(model.tables) != n:
        diags.append(f"expected {n} tables, found {len(model.tables)}")

    seen_names: set[str] = set()
    for i, e in enumerate(model.entities):
        if e.name in seen_names:
            diags.append(f"entity {e.name}: duplicate name")
        seen_names.add(e.name)
        if not (is_level(e.max_level, LEVEL_CAP) and e.max_level):
            diags.append(
                f"entity {e.name}: max_level must be in 1..{LEVEL_CAP}, got {e.max_level!r}"
            )

    miswired = set()  # entities with an input out of range or listed twice
    for i, nb in enumerate(model.neighbourhoods[:n]):
        name = model.entities[i].name
        if nb.entity != i:
            diags.append(f"entity {name}: neighbourhood indexed for entity {nb.entity}")
        listed = set()
        for j in nb.inputs:
            if not is_level(j, n - 1):
                diags.append(f"entity {name}: neighbourhood input index {j} out of range")
                miswired.add(i)
            elif j in listed:
                diags.append(f"entity {name}: input {model.entities[j].name} listed twice")
                miswired.add(i)
            else:
                listed.add(j)

    for i, table in enumerate(model.tables[:n]):
        name = model.entities[i].name
        if table.entity != i:
            diags.append(f"entity {name}: table indexed for entity {table.entity}")
        nb = model.neighbourhoods[i] if i < len(model.neighbourhoods) else None
        if nb is None or i in miswired:
            continue  # wiring already reported; rows cannot be judged
        if not nb.inputs:
            if table.rows.keys() != {()} or not is_level(table.rows[()], 0):
                diags.append(f"entity {name}: input entity must have the single row () -> 0")
            continue
        expected = set(
            itertools.product(*(range(model.entities[j].max_level + 1) for j in nb.inputs))
        )
        keys, max_out = set(table.rows), model.entities[i].max_level
        outside = keys - expected
        inside = keys - outside
        # A bool or float cell equals and hashes as an int, so (True, 0)
        # passes for the row (1, 0).  One scan of the cell types finds
        # such keys; only a table that has one pays for a per-key test.
        if set(map(type, itertools.chain.from_iterable(inside))) != {int}:
            tops = [model.entities[j].max_level for j in nb.inputs]
            bad = {key for key in inside if not all(map(is_level, key, tops))}
            outside |= bad
            inside -= bad
        for key in sorted(expected - keys):
            diags.append(f"entity {name}: table row {key} missing")
        for key in sorted(outside):
            diags.append(f"entity {name}: table row {key} outside the input space")
        for key in sorted(inside):
            out = table.rows[key]
            if not is_level(out, max_out):
                diags.append(f"entity {name}: table row {key} output {out!r} outside 0..{max_out}")
    return diags


def require_valid(model: Mvn) -> None:
    """Raise :class:`ModelValidationError` if the model is invalid."""
    diags = validate(model)
    if diags:
        raise ModelValidationError(diags)
