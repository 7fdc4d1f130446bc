"""Graph searches checked against networkx as an independent reference.

Covers the breadth-first search behind reachability, closures and
witness lifts, and the Tarjan pass behind both kinds of attractor, on seeded random
networks large enough that a depth-first witness is usually not a
shortest one.  Wide networks, with ranges up to LEVEL_CAP and an input
entity, also exercise the mixed-radix state indices.
"""

import itertools
import math
import random

import networkx as nx
import pytest

from mvnabs import (
    ASYNC,
    SYNC,
    async_next,
    attractors,
    build_state_graph,
    fixtures,
    reachable,
    sync_step,
)
from mvnabs.abstraction import AbstractionMapping, StateMapping
from mvnabs.checker import (
    _Context,
    check_asyn_abs,
    concrete_class,
    consec_closure,
    witness_path,
)
from mvnabs.model import LEVEL_CAP, Entity, Mvn, Neighbourhood, NextStateTable
from mvnabs.oracle import random_instance
from mvnabs.semantics import bfs, path_to, reachable_set
from tests.test_checker import _merged_image


def random_network(seed: int) -> Mvn:
    """3 to 6 entities (up to 729 states) of 2 or 3 levels, each reading
    1 to 3 random inputs."""
    rng = random.Random(seed)
    n = 3 + seed % 4
    max_levels = [rng.choice([1, 2]) for _ in range(n)]
    entities = tuple(Entity(f"X{i}", m) for i, m in enumerate(max_levels))
    neighbourhoods = tuple(
        Neighbourhood(i, tuple(sorted(rng.sample(range(n), rng.randint(1, 3)))))
        for i in range(n)
    )
    tables = tuple(
        NextStateTable(i, {
            key: rng.randrange(max_levels[i] + 1)
            for key in itertools.product(*(range(max_levels[j] + 1) for j in nb.inputs))
        })
        for i, nb in enumerate(neighbourhoods)
    )
    return Mvn(f"N{seed}", entities, neighbourhoods, tables)


def wide_network(seed: int) -> Mvn:
    """3 or 4 entities (at most 3000 states) with mixed ranges of up to
    LEVEL_CAP + 1 levels: one entity at the cap, one input entity, and
    every other entity reading 1 or 2 random inputs."""
    rng = random.Random(seed)
    n = 3 + seed % 2
    while True:
        max_levels = [LEVEL_CAP] + [rng.choice([1, 2, 4, 9, 12]) for _ in range(n - 1)]
        rng.shuffle(max_levels)
        if math.prod(m + 1 for m in max_levels) <= 3000:
            break
    held = rng.randrange(n)
    entities = tuple(Entity(f"W{i}", m) for i, m in enumerate(max_levels))
    neighbourhoods = tuple(
        Neighbourhood(i, tuple(sorted(rng.sample(range(n), rng.randint(1, 2)))))
        if i != held else Neighbourhood(i, ())
        for i in range(n)
    )
    tables = tuple(
        NextStateTable(i, {
            key: rng.randrange(max_levels[i] + 1)
            for key in itertools.product(*(range(max_levels[j] + 1) for j in nb.inputs))
        } if nb.inputs else {(): 0})
        for i, nb in enumerate(neighbourhoods)
    )
    return Mvn(f"W{seed}", entities, neighbourhoods, tables)


SEEDS = range(16)
WIDE_SEEDS = range(16, 20)
NETWORK_SEEDS = [*SEEDS, *WIDE_SEEDS]


def network(seed: int) -> Mvn:
    return random_network(seed) if seed in SEEDS else wide_network(seed)


def nx_graph(graph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from(graph.edges())
    return g


def walked_cycles(graph) -> set:
    """Sync attractors by iterating the update map from every state."""
    cycles = set()
    for s in graph.nodes:
        path = []
        while s not in path:
            path.append(s)
            s = graph.succ[s][0]
        cycles.add(frozenset(path[path.index(s):]))
    return cycles


@pytest.mark.parametrize("seed", NETWORK_SEEDS)
def test_state_indices_and_successors(seed):
    model = network(seed)
    for discipline in (ASYNC, SYNC):
        graph = build_state_graph(model, discipline)
        assert tuple(graph.nodes) == tuple(
            itertools.product(*(range(m + 1) for m in model.max_levels))
        )
        assert [graph.index(s) for s in graph.nodes] == list(range(len(graph.nodes)))
        for s, successors in zip(graph.nodes, graph.out):
            decoded = tuple(graph.nodes[v] for v in successors)
            assert graph.succ[s] == decoded
            if discipline == ASYNC:
                assert decoded == tuple(sorted(async_next(model, s)))
            else:
                assert decoded == (sync_step(model, s),)


@pytest.mark.parametrize("seed", NETWORK_SEEDS)
def test_attractors_match_references(seed):
    model = network(seed)
    graph = build_state_graph(model, ASYNC)
    g = nx_graph(graph)
    expected = {("point", frozenset({s}), True) for s in g if g.out_degree(s) == 0}
    for comp in nx.strongly_connected_components(g):
        if len(comp) > 1:
            terminal = all(v in comp for u in comp for v in g.successors(u))
            expected.add(("scc", frozenset(comp), terminal))
    found = attractors(graph).attractors
    assert {(a.kind, a.states, a.terminal) for a in found} == expected
    assert [min(a.states) for a in found] == sorted(min(a.states) for a in found)

    graph = build_state_graph(model, SYNC)
    expected = {
        ("point" if len(c) == 1 else "cycle", c, True) for c in walked_cycles(graph)
    }
    found = attractors(graph).attractors
    assert {(a.kind, a.states, a.terminal) for a in found} == expected
    assert [min(a.states) for a in found] == sorted(min(a.states) for a in found)


def test_bfs_yields_sources_then_new_nodes_with_parents():
    out = {3: [1, 4], 1: [0, 3], 4: [0, 2], 0: [], 2: [5], 5: []}
    parents = {3: None, 1: None}
    assert list(bfs(parents, out.__getitem__)) == [3, 1, 4, 0, 2, 5]
    assert parents == {3: None, 1: None, 4: 3, 0: 1, 2: 4, 5: 2}
    # The sources come before any step; a consumer that stops early
    # leaves ``parents`` holding exactly what was reached.
    stepped = []
    parents = {3: None, 1: None}
    search = bfs(parents, lambda u: stepped.append(u) or out[u])
    assert [next(search), next(search)] == [3, 1] and stepped == []
    for v in search:
        if v == 0:
            break
    assert parents == {3: None, 1: None, 4: 3, 0: 1} and stepped == [3, 1]
    assert path_to(parents, 0) == (1, 0)


@pytest.mark.parametrize("seed", NETWORK_SEEDS)
def test_reachability_matches_networkx(seed):
    graph = build_state_graph(network(seed), ASYNC)
    g = nx_graph(graph)
    rng = random.Random(seed)
    for source in rng.sample(graph.nodes, min(8, len(graph.nodes))):
        assert reachable_set(graph, source) == nx.descendants(g, source) | {source}
        for target in rng.sample(graph.nodes, min(20, len(graph.nodes))):
            ok, path = reachable(graph, source, target)
            assert ok == nx.has_path(g, source, target)
            if not ok:
                assert path is None
            elif source == target:
                assert path == ()
            else:
                assert path[0] == source and path[-1] == target
                assert all(v in graph.succ[u] for u, v in zip(path, path[1:]))
                assert len(path) - 1 == nx.shortest_path_length(g, source, target)


def compressed(model: Mvn):
    """``model`` with every ternary entity compressed by 0->0, 1->1, 2->1,
    and an abstract model of the same structure for it."""
    phi = AbstractionMapping(model.max_levels, tuple(
        StateMapping(i, (0, 1, 1)) if e.max_level == 2 else None
        for i, e in enumerate(model.entities)
    ))
    mv1 = Mvn(
        "A" + model.name,
        tuple(Entity(e.name, 1) for e in model.entities),
        model.neighbourhoods,
        tuple(
            NextStateTable(i, dict.fromkeys(
                itertools.product(*([0, 1] for _ in nb.inputs)), 0
            ))
            for i, nb in enumerate(model.neighbourhoods)
        ),
    )
    return mv1, model, phi


def checker_instances():
    rng = random.Random(5)
    yield fixtures.apl2(), fixtures.pl2(), fixtures.rho_cro()
    yield fixtures.atrp(), fixtures.mtrp(), fixtures.phi_trp()
    for _ in range(40):
        yield random_instance(rng)
    for model in map(random_network, SEEDS):
        if 2 in model.max_levels:
            yield compressed(model)


def test_closures_and_settleability_match_definitions():
    for mv1, mv2, phi in checker_instances():
        ctx = _Context(mv1, mv2, phi)
        image = dict(zip(ctx.g2.nodes, map(ctx.g1.nodes.__getitem__, ctx.image_index)))
        g = nx_graph(ctx.g2)
        same_image = g.edge_subgraph(
            (u, v) for u, v in g.edges if image[u] == image[v]
        )
        klass = {s: sorted(concrete_class(phi, s)) for s in ctx.g1.nodes}
        position = {u: j for members in klass.values() for j, u in enumerate(members)}
        for a, state in enumerate(ctx.g1.nodes):
            # one slot per abstract successor, each a class wide plus a guard bit
            offsets, offset = {}, 0
            for s_i in ctx.g1.succ[state]:
                offsets[s_i] = offset
                offset += len(klass[s_i]) + 1
            layout = ctx.layouts[a]
            unsettleable = 0
            for j, u in enumerate(klass[state]):
                closure = consec_closure(mv2, phi, u)
                expected = {u} | (nx.descendants(same_image, u) if u in same_image else set())
                assert closure == expected
                settles = (
                    any(g.out_degree(v) == 0 for v in closure)
                    or not nx.is_directed_acyclic_graph(g.subgraph(closure))
                )
                assert ctx.settles[ctx.g2.index(u)] == settles
                visible = {
                    1 << (offsets[image[w]] + position[w])
                    for v in expected for w in g.successors(v) if image[w] in offsets
                }
                assert layout.post[j] == sum(visible)
                unsettleable |= (not settles) << j
            assert layout.unsettleable == (0 if offsets else unsettleable)


def pair_graph(g: nx.DiGraph, image: dict, path: tuple) -> nx.DiGraph:
    """Concrete steps as (node, position on ``path``) pairs: a step onto
    the class of ``path[i]`` stays at i, one onto ``path[i + 1]`` moves
    to i + 1."""
    pairs = nx.DiGraph()
    for u, v in g.edges:
        for i, state in enumerate(path):
            if image[u] == state == image[v]:
                pairs.add_edge((u, i), (v, i))
            elif image[u] == state and i + 1 < len(path) and image[v] == path[i + 1]:
                pairs.add_edge((u, i), (v, i + 1))
    return pairs


def test_witness_lifts_are_shortest():
    rng = random.Random(21)
    lifted = 0
    for mv1, mv2, phi in checker_instances():
        result = check_asyn_abs(mv1, mv2, phi)
        if not result.holds:
            continue
        g1 = build_state_graph(mv1, ASYNC)
        g = nx_graph(build_state_graph(mv2, ASYNC))
        image = {u: phi.apply(u) for u in g.nodes}
        for _ in range(10):
            path = [rng.choice(g1.nodes)]
            for _ in range(rng.randint(1, 3)):
                if g1.succ[path[-1]]:
                    path.append(rng.choice(g1.succ[path[-1]]))
            if len(path) < 2:
                continue
            path = tuple(path)
            lift = witness_path(result.family, path)
            assert all(v in async_next(mv2, u) for u, v in zip(lift, lift[1:]))
            assert _merged_image(phi, lift) == path
            pairs = pair_graph(g, image, path)
            starts = {u for gamma in result.family.terms[path[0]] for u in gamma}
            pairs.add_edges_from(("start", (u, 0)) for u in starts)
            ends = [(u, len(path) - 1) for u in g.nodes if image[u] == path[-1]]
            pairs.add_edges_from((end, "end") for end in ends)
            assert len(lift) + 1 == nx.shortest_path_length(pairs, "start", "end")
            lifted += 1
    assert lifted > 100


def test_integer_tables_match_definitions():
    rng = random.Random(8)
    for mv1, mv2, phi in checker_instances():
        ctx = _Context(mv1, mv2, phi)
        g1, g2 = ctx.g1, ctx.g2
        for k, state in enumerate(g2.nodes):
            assert g1.nodes[ctx.image_index[k]] == phi.apply(state)
            assert ctx.members[ctx.image_index[k]][ctx.pos[k]] == k
        for a, state in enumerate(g1.nodes):
            klass = [g2.nodes[k] for k in ctx.members[a]]
            assert klass == sorted(concrete_class(phi, state))
            for mask in {0, (1 << len(klass)) - 1} | {
                rng.getrandbits(len(klass)) for _ in range(4)
            }:
                selected = {u for j, u in enumerate(klass) if mask >> j & 1}
                assert ctx._subsets[a][mask] == selected
