"""Independent brute-force verdicts for differential testing.

When both asynchronous trace sets are finite, abstraction can be decided
directly from the definition: enumerate the traces, abstract the
concrete ones, and test set inclusion of canonical lassos.  That path
shares nothing with the step-term checker beyond the update semantics,
so agreement between the two is strong evidence for both.

:func:`differential_suite` generates seeded random model/mapping/
candidate triples and checks that agreement on every instance the
oracle can decide.  On every instance it also compares the checker with
the forward decider :func:`~mvnabs.checker.forward_holds`, which is
exact for infinite trace sets too but shares ``checker._Context`` with
the checker; the oracle stays the independent check where supported.
The reachability and attractor suites read each graph's SCCs and
images under ``phi``; neither searches from a concrete state.  The
reachability suite takes its images from
:func:`~mvnabs.abstraction.image_index`, as the checker does.
"""

from __future__ import annotations

import itertools
import random
import warnings

from .abstraction import (
    AbstractionMapping,
    StateMapping,
    abstract_trace_set,
    enumerate_candidates,
    image_index,
    require_mapping_fits,
)
from .checker import check_asyn_abs, forward_holds
from .errors import NonMonotoneMappingWarning, TooManyTracesError, UnsupportedError
from .model import Entity, Mvn, Neighbourhood, NextStateTable
from .modelio import serialize_mapping, serialize_model
from .semantics import ASYNC, StateGraph, attractors, build_state_graph
from .traces import async_traces, trace_set_is_finite

def oracle_check(mv1: Mvn, mv2: Mvn, phi: AbstractionMapping) -> bool:
    """Decide abstraction by direct trace-set inclusion.

    Needs the concrete trace set to be finite and both trace sets within
    the budget of :func:`~mvnabs.traces.async_traces` (else
    :class:`UnsupportedError`: a trace set cannot be enumerated).  An
    infinite abstract trace set is decided without enumeration: it can
    never be included in the finite image.
    """
    require_mapping_fits(phi, mv1, mv2)
    g1 = build_state_graph(mv1, ASYNC)
    g2 = build_state_graph(mv2, ASYNC)
    if not trace_set_is_finite(g2):
        raise UnsupportedError(
            "brute-force inclusion needs a finite concrete trace set"
        )
    if not trace_set_is_finite(g1):
        return False
    try:
        t1 = async_traces(mv1, g1)
        t2 = async_traces(mv2, g2)
    except TooManyTracesError as exc:
        raise UnsupportedError(f"brute-force inclusion cannot enumerate: {exc}") from exc
    return t1 <= abstract_trace_set(phi, t2)


# ---------------------------------------------------------------------------
# Random instance generation


_SURJECTIVE_3_TO_2 = [
    (0, 0, 1),
    (0, 1, 0),
    (0, 1, 1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, 0),
]


def random_model(rng: random.Random, name: str = "R") -> Mvn:
    """A small random model biased toward interesting dynamics.

    Two or three entities, levels at most 2, at least one ternary entity
    (so a compression mapping exists).  Models whose asynchronous graph
    has no edges at all are rejected and redrawn, so closures and
    collapsing loops actually get exercised downstream.
    """
    while True:
        n = rng.choice([2, 3])
        max_levels = [rng.choice([1, 2]) for _ in range(n)]
        if 2 not in max_levels:
            max_levels[rng.randrange(n)] = 2
        entities = tuple(Entity(f"X{i}", max_levels[i]) for i in range(n))
        neighbourhoods = []
        for i in range(n):
            if n > 2 and rng.random() < 0.15:
                neighbourhoods.append(Neighbourhood(i, ()))
                continue
            size = rng.choice([1, 2]) if n > 1 else 1
            inputs = tuple(sorted(rng.sample(range(n), min(size, n))))
            neighbourhoods.append(Neighbourhood(i, inputs))
        tables = []
        for i in range(n):
            if not neighbourhoods[i].inputs:
                tables.append(NextStateTable(i, {(): 0}))
                continue
            rows = {}
            for key in itertools.product(
                *(range(max_levels[j] + 1) for j in neighbourhoods[i].inputs)
            ):
                rows[key] = rng.randrange(max_levels[i] + 1)
            tables.append(NextStateTable(i, rows))
        model = Mvn(name, entities, tuple(neighbourhoods), tuple(tables))
        if any(build_state_graph(model, ASYNC).out):
            return model


def random_mapping(rng: random.Random, model: Mvn) -> AbstractionMapping:
    """A random proper mapping: compress a nonempty set of ternary entities."""
    ternary = [i for i, e in enumerate(model.entities) if e.max_level == 2]
    chosen = rng.sample(ternary, rng.randint(1, len(ternary)))
    slots: list[StateMapping | None] = [None] * len(model.entities)
    for i in chosen:
        slots[i] = StateMapping(i, rng.choice(_SURJECTIVE_3_TO_2))
    return AbstractionMapping(model.max_levels, tuple(slots))


def random_instance(
    rng: random.Random,
) -> tuple[Mvn, Mvn, AbstractionMapping]:
    """A (candidate abstraction, concrete model, mapping) triple.

    Half the time the abstract model is a clean candidate; otherwise one
    table entry is mutated so refutations are exercised too.
    """
    mv2 = random_model(rng)
    phi = random_mapping(rng, mv2)
    candidates = enumerate_candidates(mv2, phi).models
    mv1 = rng.choice(candidates)
    if rng.random() < 0.5:
        mutable = [i for i in range(len(mv1.entities)) if not mv1.is_input(i)]
        i = rng.choice(mutable)
        rows = dict(mv1.tables[i].rows)
        key = rng.choice(sorted(rows))
        options = [v for v in range(mv1.entities[i].max_level + 1) if v != rows[key]]
        rows[key] = rng.choice(options)
        tables = tuple(
            NextStateTable(j, rows) if j == i else mv1.tables[j]
            for j in range(len(mv1.tables))
        )
        mv1 = Mvn(mv1.name + "m", mv1.entities, mv1.neighbourhoods, tables)
    return mv1, mv2, phi


def differential_suite(seed: int, count: int) -> dict:
    """Run ``count`` random instances; cross-check the checker's verdicts.

    Returns a JSON-ready report.  Divergences carry the full model and
    mapping sources so any failure can be replayed verbatim.  Instances
    with infinite trace sets are unsupported by the oracle.  Every
    instance records the forward decider's verdict too, and one that
    differs from the checker's is a divergence of kind ``"forward"``.
    """
    if count < 0:
        raise ValueError(f"count must be 0 or more, not {count}")
    rng = random.Random(seed)
    instances = []
    divergences = []
    supported = 0
    both_finite = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneMappingWarning)
        for index in range(count):
            mv1, mv2, phi = random_instance(rng)
            record = {
                "index": index,
                "mv1": serialize_model(mv1),
                "mv2": serialize_model(mv2),
                "mapping": serialize_mapping(phi, mv2),
            }
            verdict = check_asyn_abs(mv1, mv2, phi).holds
            record["checker"] = verdict
            record["forward"] = forward_holds(mv1, mv2, phi)
            try:
                expected = oracle_check(mv1, mv2, phi)
            except UnsupportedError:
                record["supported"] = False
                record["oracle"] = None
            else:
                supported += 1
                record["supported"] = True
                record["oracle"] = expected
                record["both_finite"] = trace_set_is_finite(
                    build_state_graph(mv1, ASYNC)
                )
                both_finite += record["both_finite"]
                if expected != verdict:
                    divergences.append(dict(record, kind="verdict"))
            if record["forward"] != verdict:
                divergences.append(dict(record, kind="forward"))
            instances.append(record)
    return {
        "seed": seed,
        "count": count,
        "supported": supported,
        "both_finite": both_finite,
        "divergences": divergences,
        "instances": instances,
    }


def _reached(graph: StateGraph, bits: list[int]) -> list[int]:
    """ORs into each node's ``bits`` those of every node it reaches, in
    one fold over ``graph.components``, sinks first."""
    for comp in graph.components:
        acc = 0
        for v in itertools.chain(comp, *map(graph.out.__getitem__, comp)):
            acc |= bits[v]
        for u in comp:
            bits[u] = acc
    return bits


def reachability_soundness_suite(
    mv1: Mvn, mv2: Mvn, phi: AbstractionMapping
) -> dict:
    """Exhaustively check that abstract reachability is concretely realised.

    Requires the abstraction to hold, as decided by
    :func:`~mvnabs.checker.forward_holds` (exact at any class size).
    For every ordered pair of abstract states where the second is
    reachable from the first, there must be concrete states with the
    matching images such that the second is reachable from the first in
    the concrete model.  Both are bitsets over abstract node indices, so
    failures come out in index order.
    """
    if not forward_holds(mv1, mv2, phi):
        raise ValueError("the abstraction does not hold; nothing to verify")
    g1 = build_state_graph(mv1, ASYNC)
    g2 = build_state_graph(mv2, ASYNC)
    reach = _reached(g1, [1 << a for a in range(len(g1.nodes))])
    images = image_index(phi)
    realised = [0] * len(g1.nodes)  # the images reached from each class
    for a, bits in zip(images, _reached(g2, [1 << a for a in images])):
        realised[a] |= bits
    failures = [
        {"from": g1.nodes[a], "to": g1.nodes[b]}
        for a, missing in enumerate(bits & ~ok for bits, ok in zip(reach, realised))
        for b in range(missing.bit_length())
        if missing >> b & 1
    ]
    return {"pairs_checked": sum(map(int.bit_count, reach)), "failures": failures}


def attractor_correspondence(mv1: Mvn, mv2: Mvn, phi: AbstractionMapping) -> dict:
    """Check that every abstract attractor is represented concretely.

    For each attractor of the abstract model there must be a single
    concrete attractor whose image under ``phi`` contains every abstract
    member state.
    """
    require_mapping_fits(phi, mv1, mv2)
    a1 = attractors(build_state_graph(mv1, ASYNC))
    a2 = attractors(build_state_graph(mv2, ASYNC))
    images = [set(map(phi.apply, b.states)) for b in a2.attractors]
    failures = [
        {"attractor": sorted(att.states)}
        for att in a1.attractors
        if not any(att.states <= image for image in images)
    ]
    return {"attractors_checked": len(a1.attractors), "failures": failures}
