"""Text formats: the model DSL, mapping documents, DOT and JSON export.

Model documents (``.mvn``) are line oriented::

    # comment
    mvn PL2
    entity CI : 0..1
    entity Cro : 0..2
    neighbourhood CI = [CI, Cro]
    neighbourhood Cro = [CI, Cro]
    table CI:
      0 0 -> 1
      0 1,2 -> 0
      1 0 -> 1
      1 1,2 -> 0

Table rows may use shorthand lists (``1,2``) in any input column; they
are expanded by Cartesian product at parse time, so the in-memory table
is always total and explicit.  Input entities (empty neighbourhood)
must not declare a table.

Mapping documents (``.map``) give one clause per entity, separated by
newlines or semicolons::

    Cro: 0->0, 1->1, 2->1
    CI: identity

State labels have one format (:func:`state_labeler`), and each result
has one labelled record (:func:`report`) that the CLI's text lines and
:func:`write_report`'s JSON both read.  The DOT and JSON writers
(:func:`write_dot`, :func:`write_report`) write to a stream, so no
command holds its whole output.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import math
import re
from typing import Callable, Sequence, TextIO

from .checker import CheckResult
from .errors import MappingError, ParseError
from .model import (
    LEVEL_CAP,
    Entity,
    GlobalState,
    Mvn,
    Neighbourhood,
    NextStateTable,
)
from .abstraction import AbstractionMapping, StateMapping, state_mapping_problem
from .semantics import AttractorSet, StateGraph
from .traces import LassoTrace

_MVN_RE = re.compile(r"mvn\s+(\w+)\s*$")
_ENTITY_RE = re.compile(r"entity\s+(\w+)\s*:\s*(\d+)\s*\.\.\s*(\d+)\s*$")
_NEIGH_RE = re.compile(r"neighbourhood\s+(\w+)\s*=\s*\[([^\]]*)\]\s*$")
_TABLE_RE = re.compile(r"table\s+(\w+)\s*:\s*$")
_LEVEL_RE = re.compile(r"\d+$")
_LEVELS_RE = re.compile(r"\d+(,\d+)*$")


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_model(text: str, *, check: bool = True) -> Mvn:
    """Parse a model document; raise :class:`ParseError` on the first problem.

    Every row is checked as it is read, so a parsed model is valid
    except that a table may miss rows.  Once all rows are read, the
    first table with a hole is reported at its line, naming its lowest
    missing row.  With ``check=False`` that totality check is skipped so
    callers can collect every missing row themselves via
    :func:`mvnabs.model.validate`.
    """
    name: str | None = None
    entities: list[Entity] = []
    entity_lines: dict[str, int] = {}
    index: dict[str, int] = {}
    neighbourhoods: dict[str, tuple[str, ...]] = {}
    table_rows: dict[str, list[tuple[int, list[str], str]]] = {}
    table_lines: dict[str, int] = {}
    current_table: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if name is None:
            m = _MVN_RE.match(line)
            if not m:
                raise ParseError("expected 'mvn <name>' as the first declaration", lineno)
            name = m.group(1)
            continue
        m = _ENTITY_RE.match(line)
        if m:
            current_table = None
            ename, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
            if ename in index:
                raise ParseError(f"duplicate entity {ename}", lineno)
            if lo != 0:
                raise ParseError(f"entity {ename}: range must start at 0", lineno)
            if not (1 <= hi <= LEVEL_CAP):
                raise ParseError(
                    f"entity {ename}: max level must be in 1..{LEVEL_CAP}, got {hi}",
                    lineno,
                )
            index[ename] = len(entities)
            entities.append(Entity(ename, hi))
            entity_lines[ename] = lineno
            continue
        m = _NEIGH_RE.match(line)
        if m:
            current_table = None
            ename, body = m.group(1), m.group(2)
            if ename not in index:
                raise ParseError(f"neighbourhood for unknown entity {ename}", lineno)
            if ename in neighbourhoods:
                raise ParseError(f"duplicate neighbourhood for {ename}", lineno)
            inputs = tuple(t.strip() for t in body.split(",") if t.strip())
            for k, t in enumerate(inputs):
                if t not in index:
                    raise ParseError(f"entity {ename}: unknown input {t}", lineno)
                if t in inputs[:k]:
                    raise ParseError(f"entity {ename}: input {t} listed twice", lineno)
            neighbourhoods[ename] = inputs
            continue
        m = _TABLE_RE.match(line)
        if m:
            ename = m.group(1)
            if ename not in index:
                raise ParseError(f"table for unknown entity {ename}", lineno)
            if ename in table_rows:
                raise ParseError(f"duplicate table for {ename}", lineno)
            table_rows[ename] = []
            table_lines[ename] = lineno
            current_table = ename
            continue
        if current_table is not None and "->" in line:
            left, _, right = line.partition("->")
            table_rows[current_table].append((lineno, left.split(), right.strip()))
            continue
        raise ParseError(f"cannot parse {line!r}", lineno)

    if name is None:
        raise ParseError("empty document", 1)
    if not entities:
        raise ParseError("model declares no entities", 1)

    nbs: list[Neighbourhood] = []
    for i, e in enumerate(entities):
        if e.name not in neighbourhoods:
            raise ParseError(
                f"entity {e.name}: missing neighbourhood declaration",
                entity_lines[e.name],
            )
        nbs.append(Neighbourhood(i, tuple(index[t] for t in neighbourhoods[e.name])))

    tables: list[NextStateTable] = []
    for i, e in enumerate(entities):
        inputs = nbs[i].inputs
        if not inputs:
            if e.name in table_rows:
                raise ParseError(
                    f"entity {e.name}: input entities (empty neighbourhood) "
                    "must not declare a table",
                    table_lines[e.name],
                )
            tables.append(NextStateTable(i, {(): 0}))
            continue
        if e.name not in table_rows:
            raise ParseError(f"entity {e.name}: missing table", entity_lines[e.name])
        rows: dict[tuple[int, ...], int] = {}
        for lineno, cells, out_text in table_rows[e.name]:
            if len(cells) != len(inputs):
                raise ParseError(
                    f"entity {e.name}: row has {len(cells)} input columns, "
                    f"expected {len(inputs)}",
                    lineno,
                )
            if not _LEVEL_RE.match(out_text):
                raise ParseError(f"entity {e.name}: output {out_text!r} is not a level", lineno)
            out = int(out_text)
            if out > e.max_level:
                raise ParseError(
                    f"entity {e.name}: output level {out} outside 0..{e.max_level}",
                    lineno,
                )
            columns: list[list[int]] = []
            for k, cell in enumerate(cells):
                if not _LEVELS_RE.match(cell):
                    raise ParseError(f"entity {e.name}: bad level list {cell!r}", lineno)
                levels = sorted({int(v) for v in cell.split(",")})
                src = entities[inputs[k]]
                for v in levels:
                    if v > src.max_level:
                        raise ParseError(
                            f"entity {e.name}: input level {v} outside "
                            f"{src.name}'s range 0..{src.max_level}",
                            lineno,
                        )
                columns.append(levels)

            for key in itertools.product(*columns):
                if key in rows:
                    raise ParseError(
                        f"entity {e.name}: row {key} defined more than once", lineno
                    )
                rows[key] = out
        tables.append(NextStateTable(i, rows))

    if check:
        for i, e in enumerate(entities):
            ranges = [range(entities[j].max_level + 1) for j in nbs[i].inputs]
            rows = tables[i].rows
            if len(rows) < math.prod(map(len, ranges)):
                key = next(key for key in itertools.product(*ranges) if key not in rows)
                raise ParseError(f"entity {e.name}: table row {key} missing", table_lines[e.name])
    return Mvn(name, tuple(entities), tuple(nbs), tuple(tables))


def serialize_model(model: Mvn, header_comments: tuple[str, ...] = ()) -> str:
    """Render a model back into the DSL (explicit rows, no shorthand).

    Round-trips: parsing the output reproduces the model exactly.
    """
    out = [f"# {c}" for c in header_comments]
    out.append(f"mvn {model.name}")
    for e in model.entities:
        out.append(f"entity {e.name} : 0..{e.max_level}")
    for nb in model.neighbourhoods:
        names = ", ".join(model.entities[j].name for j in nb.inputs)
        out.append(f"neighbourhood {model.entities[nb.entity].name} = [{names}]")
    for i, table in enumerate(model.tables):
        if model.is_input(i):
            continue
        out.append(f"table {model.entities[i].name}:")
        for key in sorted(table.rows):
            cells = " ".join(str(v) for v in key)
            out.append(f"  {cells} -> {table.rows[key]}")
    return "\n".join(out) + "\n"


def parse_mapping(text: str, model: Mvn) -> AbstractionMapping:
    """Parse a mapping document against a model.

    Every entity needs exactly one clause (``identity`` or an explicit
    total, surjective level mapping onto a contiguous smaller range of
    size at least two).  Non-order-preserving mappings are accepted with
    a :class:`NonMonotoneMappingWarning`.
    """
    clauses: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        for part in line.split(";"):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ParseError(f"expected '<entity>: <mapping>', got {part!r}", lineno)
            ename, _, body = part.partition(":")
            ename = ename.strip()
            if ename not in {e.name for e in model.entities}:
                raise MappingError(f"unknown entity {ename}", lineno)
            if ename in clauses:
                raise MappingError(f"entity {ename} has more than one clause", lineno)
            clauses[ename] = (lineno, body.strip())

    slots: list[StateMapping | None] = []
    for i, e in enumerate(model.entities):
        if e.name not in clauses:
            raise MappingError(f"entity {e.name} has no clause")
        lineno, body = clauses[e.name]
        if body == "identity":
            slots.append(None)
            continue
        pairs: dict[int, int] = {}
        for chunk in re.split(r"[,\s]+", body):
            if not chunk:
                continue
            m = re.match(r"(\d+)->(\d+)$", chunk)
            if not m:
                raise ParseError(
                    f"entity {e.name}: bad mapping item {chunk!r}", lineno
                )
            src, dst = int(m.group(1)), int(m.group(2))
            if src in pairs:
                raise MappingError(f"entity {e.name}: level {src} mapped twice", lineno)
            pairs[src] = dst
        missing = set(range(e.max_level + 1)) - set(pairs)
        extra = set(pairs) - set(range(e.max_level + 1))
        if missing or extra:
            raise MappingError(
                f"entity {e.name}: mapping is not total on 0..{e.max_level}"
                + (f" (missing {sorted(missing)})" if missing else "")
                + (f" (outside range: {sorted(extra)})" if extra else ""),
                lineno,
            )
        table = tuple(pairs[l] for l in range(e.max_level + 1))
        problem = state_mapping_problem(table)
        if problem is not None:
            raise MappingError(f"entity {e.name}: {problem}", lineno)
        slots.append(StateMapping(i, table))

    phi = AbstractionMapping(model.max_levels, tuple(slots))
    phi.warn_if_non_monotone()
    return phi


def serialize_mapping(phi: AbstractionMapping, model: Mvn) -> str:
    """Render a mapping back into the clause format."""
    out = []
    for i, e in enumerate(model.entities):
        slot = phi.slots[i]
        if slot is None:
            out.append(f"{e.name}: identity")
        else:
            items = ", ".join(f"{l}->{v}" for l, v in enumerate(slot.table))
            out.append(f"{e.name}: {items}")
    return "\n".join(out) + "\n"


def _level_texts(max_levels, names) -> tuple[str, list[list[str]]]:
    """The label format: a separator and each entity's level texts, either
    digits (dot-separated when any max level exceeds 9) or ``name=level``."""
    if names is not None:
        return ",", [[f"{name}={v}" for v in range(m + 1)] for name, m in zip(names, max_levels)]
    sep = "." if any(m > 9 for m in max_levels) else ""
    return sep, [[str(v) for v in range(m + 1)] for m in max_levels]


def state_labeler(max_levels, names=None) -> Callable[[GlobalState], str]:
    """The label of one state of a space, from its entities' level texts."""
    sep, texts = _level_texts(max_levels, names)
    return lambda state: sep.join(map(list.__getitem__, texts, state))


def state_labels(max_levels: Sequence[int], names: Sequence[str] | None = None) -> list[str]:
    """The label of every state of a space, in index order.

    The labels are :func:`state_labeler`'s, built one entity at a time,
    each label so far extended by each level's text, as the node
    numbering itself is, so no state tuple is made.
    """
    sep, texts = _level_texts(max_levels, names)
    labels = texts[0]
    for part in texts[1:]:
        part = [sep + text for text in part]
        labels = [a + b for a in labels for b in part]
    return labels


def write_dot(graph: StateGraph, stream: TextIO) -> None:
    """Write deterministic DOT text to ``stream``: nodes then edges, both
    in lexicographic order.

    One text per node (``"label";`` and a newline) is kept; each node's
    edge lines are written as one chunk, so the whole text is never held.
    """
    ends = [f'"{text}";\n' for text in state_labels(graph.nodes.max_levels)]
    stream.write(f'digraph "{graph.name}_{graph.semantics}" {{\n')
    stream.writelines(map("  ".__add__, ends))
    for end, vs in zip(ends, graph.out):
        if vs:
            head = f"  {end[:-2]} -> "
            stream.write(head + head.join(map(ends.__getitem__, vs)))
    stream.write("}\n")


def export_dot(graph: StateGraph) -> str:
    """:func:`write_dot`'s text as a string."""
    with io.StringIO() as stream:
        write_dot(graph, stream)
        return stream.getvalue()


def report(result, *labelers) -> dict:
    """The labelled record of a check result, attractor set, or trace set.

    ``labelers`` label each side's states (:func:`state_labeler`): the
    model's for attractors and traces, the abstract then the concrete
    model's for a check result.  Lists are in output order: states
    sorted, lassos by state sequence, then by loop.  Text output and
    :func:`write_report` both read this record.
    """
    if isinstance(result, CheckResult):
        label, concrete = labelers
        obj = {f.name: getattr(result.stats, f.name) for f in dataclasses.fields(result.stats)}
        obj.update(
            type="check",
            holds=result.holds,
            surviving_terms={label(s): n for s, n in sorted(obj["surviving_terms"].items())},
            witness=None,
        )
        if result.witness is not None:
            obj["witness"] = {
                "state": label(result.witness.state),
                "reason": result.witness.reason,
                "removals": [
                    {
                        "state": label(r.state),
                        "gamma": [concrete(s) for s in sorted(r.gamma)],
                        "failed_successor": label(r.failed_successor),
                        "missing_gamma": [concrete(s) for s in sorted(r.missing_gamma)],
                    }
                    for r in result.witness.removals
                ],
            }
    elif isinstance(result, AttractorSet):
        (label,) = labelers
        obj = {
            "type": "attractors",
            "semantics": result.semantics,
            "attractors": [
                {
                    "kind": a.kind,
                    "states": list(map(label, sorted(a.states))),
                    "terminal": a.terminal,
                }
                for a in result.attractors
            ],
        }
    elif isinstance(result, (frozenset, set, list, tuple)) and all(
        isinstance(t, LassoTrace) for t in result
    ):
        (label,) = labelers
        traces = [
            {"prefix": list(map(label, t.prefix)), "loop": list(map(label, t.loop))}
            for t in sorted(result, key=lambda t: (t.prefix + t.loop, t.loop))
        ]
        obj = {"type": "traces", "traces": traces}
    else:
        raise TypeError(f"cannot export {type(result).__name__}")
    return obj


def write_report(stream: TextIO, result, *max_levels) -> None:
    """Write :func:`report` to ``stream`` as JSON, states labelled by
    :func:`state_labeler`.

    ``max_levels`` are those of each labelled side, as for
    :func:`report`.  Key order and list order are stable across runs
    for the same input.  :func:`json.dump` encodes as :func:`json.dumps`
    does, piece by piece, so the text is never held whole.
    """
    json.dump(report(result, *map(state_labeler, max_levels)), stream, indent=2, sort_keys=True)
    stream.write("\n")


def export_report(result, *max_levels) -> str:
    """:func:`write_report`'s text as a string."""
    with io.StringIO() as stream:
        write_report(stream, result, *max_levels)
        return stream.getvalue()
