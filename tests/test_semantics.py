import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvnabs import (
    ASYNC,
    SYNC,
    all_step_terms,
    async_next,
    attractors,
    build_state_graph,
    export_dot,
    parse_model,
    reachable,
    sync_step,
)
from mvnabs import semantics
from mvnabs.errors import StateSpaceTooLargeError
from mvnabs.model import Entity, Mvn, Neighbourhood, NextStateTable, state_space_size
from mvnabs.oracle import random_model
from mvnabs.semantics import reachable_set
from tests.test_graph_search import WIDE_SEEDS, wide_network

PL2_ASYNC_EDGES = {
    ((0, 0), (0, 1)), ((0, 0), (1, 0)),
    ((1, 1), (0, 1)), ((1, 1), (1, 0)),
    ((1, 2), (0, 2)), ((1, 2), (1, 1)),
    ((0, 1), (0, 2)), ((0, 2), (0, 1)),
}

PL2_SYNC_EDGES = {
    ((0, 0), (1, 1)), ((1, 1), (0, 0)), ((1, 0), (1, 0)),
    ((1, 2), (0, 1)), ((0, 1), (0, 2)), ((0, 2), (0, 1)),
}


@pytest.mark.parametrize(
    "state,expected",
    [((1, 2), (0, 1)), ((1, 0), (1, 0)), ((0, 0), (1, 1))],
)
def test_sync_step(pl2, state, expected):
    assert sync_step(pl2, state) == expected


@pytest.mark.parametrize(
    "state,expected",
    [
        ((1, 2), {(0, 2), (1, 1)}),
        ((1, 0), set()),
        ((0, 0), {(1, 0), (0, 1)}),
    ],
)
def test_async_next(pl2, state, expected):
    assert async_next(pl2, state) == frozenset(expected)


# SHA-256 of ``export_dot`` on MTRP (an input entity, mixed levels),
# which fixes the order of its nodes and edges.
MTRP_DOT_SHA256 = {
    ASYNC: "42904e75269e238b83d882df799694163a054f18a2b20dd48a32b55b15397afb",
    SYNC: "7134f29d46649116971932373fb7267acb9184aa07cca85aa6326c84bbfb5ff4",
}


def table_next(model, state):
    """Each entity's next level, read straight from its table."""
    return tuple(
        model.tables[i].rows[tuple(state[j] for j in nb.inputs)] if nb.inputs else state[i]
        for i, nb in enumerate(model.neighbourhoods)
    )


def assert_matches_tables(model, graph):
    """Every state's successors are the ones :func:`table_next` gives."""
    for s in graph.nodes:
        target = table_next(model, s)
        if graph.semantics == SYNC:
            assert graph.succ[s] == (target,)
        else:
            moves = [s[:i] + (v,) + s[i + 1 :] for i, v in enumerate(target) if v != s[i]]
            assert graph.succ[s] == tuple(sorted(moves))


class CountingRows(dict):
    """A table's rows that count their reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("semantics", [ASYNC, SYNC])
def test_build_reads_each_table_once_per_period(semantics):
    # A (0..2) reads C, B (0..1) reads A and C (0..3) reads only itself.
    # Of the 24 states, C's levels repeat every 4 and A's every 24, so
    # the tables of A and C are read 4 times per build and B's 24 times.
    levels, inputs = (2, 1, 3), ((2,), (0,), (2,))
    model = Mvn(
        "Periods",
        tuple(Entity(name, m) for name, m in zip("ABC", levels)),
        tuple(Neighbourhood(i, ins) for i, ins in enumerate(inputs)),
        tuple(
            NextStateTable(i, CountingRows(
                ((level,), level % (levels[i] + 1)) for level in range(levels[ins[0]] + 1)
            ))
            for i, ins in enumerate(inputs)
        ),
    )
    graph = build_state_graph(model, semantics)
    assert len(graph.nodes) == 24
    # Net of validate's one read per row.
    reads = [table.rows.reads - len(table.rows) for table in model.tables]
    assert reads == [4, 24, 4]
    assert_matches_tables(model, graph)


@pytest.mark.parametrize("seed", WIDE_SEEDS)
@pytest.mark.parametrize("semantics", [ASYNC, SYNC])
def test_builds_match_table_reference_on_wide_networks(seed, semantics):
    # Mixed radices, an input entity and one entity at LEVEL_CAP.
    model = wide_network(seed)
    assert_matches_tables(model, build_state_graph(model, semantics))


def test_async_graph_edges_exact(pl2):
    assert build_state_graph(pl2, ASYNC).edge_set() == PL2_ASYNC_EDGES


def test_sync_graph_edges_exact(pl2):
    assert build_state_graph(pl2, SYNC).edge_set() == PL2_SYNC_EDGES


@pytest.mark.parametrize("semantics", [ASYNC, SYNC])
def test_mtrp_dot_text_is_pinned(mtrp, semantics):
    text = export_dot(build_state_graph(mtrp, semantics))
    assert hashlib.sha256(text.encode()).hexdigest() == MTRP_DOT_SHA256[semantics]


def test_identity_model_has_no_async_edges():
    model = parse_model(
        "mvn Id\nentity X : 0..2\nneighbourhood X = [X]\n"
        "table X:\n  0 -> 0\n  1 -> 1\n  2 -> 2\n"
    )
    assert build_state_graph(model, ASYNC).edge_count == 0


def test_pl2_async_attractors(pl2):
    result = attractors(build_state_graph(pl2, ASYNC))
    assert result.points() == {frozenset({(1, 0)})}
    sccs = [a for a in result.attractors if a.kind == "scc"]
    assert [a.states for a in sccs] == [frozenset({(0, 1), (0, 2)})]
    assert all(a.terminal for a in result.attractors)


def test_pl2_sync_attractors(pl2):
    result = attractors(build_state_graph(pl2, SYNC))
    assert result.state_sets() == {
        frozenset({(1, 0)}),
        frozenset({(0, 0), (1, 1)}),
        frozenset({(0, 1), (0, 2)}),
    }
    assert result.points() == {frozenset({(1, 0)})}


def test_mtrp_async_attractors(mtrp):
    result = attractors(build_state_graph(mtrp, ASYNC))
    assert result.points() == {
        frozenset({(0, 0, 1, 1)}),
        frozenset({(0, 1, 2, 2)}),
    }
    sccs = [a.states for a in result.attractors if a.kind == "scc"]
    assert sccs == [
        frozenset({(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 1)})
    ]


def test_nonterminal_scc_is_reported_with_flag():
    # A 2-cycle whose states can also escape to a fixed point.
    model = parse_model(
        "mvn Leaky\nentity A : 0..1\nentity B : 0..1\n"
        "neighbourhood A = [A, B]\nneighbourhood B = [A, B]\n"
        "table A:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 1\n  1 1 -> 1\n"
        "table B:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 0\n  1 1 -> 1\n"
    )
    result = attractors(build_state_graph(model, ASYNC))
    sccs = [a for a in result.attractors if a.kind == "scc"]
    assert [a.states for a in sccs] == [frozenset({(0, 0), (0, 1)})]
    assert sccs[0].terminal is False


def test_reachable_with_witness(pl2):
    graph = build_state_graph(pl2, ASYNC)
    ok, path = reachable(graph, (1, 2), (0, 1))
    assert ok and path == ((1, 2), (0, 2), (0, 1))
    for a, b in zip(path, path[1:]):
        assert b in graph.succ[a]


def test_reachable_negative(pl2):
    graph = build_state_graph(pl2, ASYNC)
    assert reachable(graph, (1, 0), (0, 0)) == (False, None)


def test_reachable_self_is_empty_path(pl2):
    graph = build_state_graph(pl2, ASYNC)
    assert reachable(graph, (0, 1), (0, 1)) == (True, ())


def test_reachable_rejects_foreign_states(pl2):
    graph = build_state_graph(pl2, ASYNC)
    with pytest.raises(ValueError):
        reachable(graph, (9, 9), (0, 1))
    for state in [(0, 3), (-1, 1), (0,), (0, 0, 0)]:
        with pytest.raises(ValueError):
            reachable(graph, state, (0, 1))
        with pytest.raises(ValueError):
            reachable(graph, (0, 1), state)
        with pytest.raises(ValueError):
            reachable_set(graph, state)


# 15 entities of 16 levels each, every one holding its level at 0.
HUGE_SOURCE = (
    "mvn HUGE\n"
    + "".join(f"entity X{i} : 0..15\n" for i in range(15))
    + "".join(f"neighbourhood X{i} = [X{i}]\n" for i in range(15))
    + "".join(f"table X{i}:\n  {','.join(map(str, range(16)))} -> 0\n" for i in range(15))
)


def test_state_budget_is_checked_before_building(monkeypatch):
    model = parse_model(HUGE_SOURCE)
    assert state_space_size(model) == 16**15
    assert 3**12 <= semantics.MAX_STATES < 16**15

    def enumerate_states(*args):
        raise AssertionError("the state space was enumerated")

    monkeypatch.setattr(semantics, "StateSpace", enumerate_states)
    for discipline in (ASYNC, SYNC):
        with pytest.raises(StateSpaceTooLargeError, match="HUGE: 1152921504606846976 states"):
            build_state_graph(model, discipline)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_async_graph_invariants(seed):
    model = random_model(random.Random(seed))
    graph = build_state_graph(model, ASYNC)
    for u, v in graph.edges():
        assert u != v, "asynchronous steps must change the state"
        changed = [i for i in range(len(u)) if u[i] != v[i]]
        assert len(changed) == 1
        i = changed[0]
        assert not model.is_input(i)
        assert model.tables[i].rows[model.inputs_of(i, u)] == v[i]
    points = {s for s in graph.nodes if not graph.succ[s]}
    assert points == {s for s in graph.nodes if not async_next(model, s)}
    assert_matches_tables(model, graph)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_sync_graph_invariants(seed):
    model = random_model(random.Random(seed))
    graph = build_state_graph(model, SYNC)
    assert all(len(graph.succ[s]) == 1 for s in graph.nodes)
    for s in graph.nodes:
        assert graph.succ[s][0] == sync_step(model, s)
    assert_matches_tables(model, graph)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_scc_partition_matches_mutual_reachability(seed):
    from mvnabs.semantics import reachable_set, strongly_connected_components

    model = random_model(random.Random(seed))
    graph = build_state_graph(model, ASYNC)
    reach = {s: reachable_set(graph, s) for s in graph.nodes}
    expected = {
        frozenset(v for v in graph.nodes if s in reach[v] and v in reach[s])
        for s in graph.nodes
    }
    computed = {frozenset(scc) for scc in strongly_connected_components(graph)}
    assert computed == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_attractor_invariants(seed):
    model = random_model(random.Random(seed))
    graph = build_state_graph(model, ASYNC)
    result = attractors(graph)
    seen = set()
    for a in result.attractors:
        assert not (a.states & seen), "attractors must be pairwise disjoint"
        seen |= a.states
        if a.terminal:
            for u in a.states:
                assert set(graph.succ[u]) <= a.states


@pytest.mark.parametrize("max_levels", [(1,), (2, 2), (12, 1, 2), (1, 2, 3, 4), (2,) * 7])
def test_state_space_decodes_every_index(max_levels):
    space = semantics.StateSpace(max_levels)
    states = list(itertools.product(*(range(m + 1) for m in max_levels)))
    n = len(states)
    assert len(space) == n
    assert list(space) == states
    assert [space[k] for k in range(n)] == states
    assert [space[-k] for k in range(1, n + 1)] == states[::-1]
    assert space.decode(reversed(range(n))) == states[::-1]
    assert [space.index(space[k]) for k in range(n)] == list(range(n))
    for k in (n, n + 1, -n - 1):
        with pytest.raises(IndexError):
            space[k]
    assert states[-1] in space
    assert tuple(m + 1 for m in max_levels) not in space
    assert space == semantics.StateSpace(list(max_levels))
    assert hash(space) == hash(semantics.StateSpace(max_levels))
    assert space != semantics.StateSpace(max_levels + (1,))
    assert space != tuple(states)


@pytest.mark.parametrize("discipline", [ASYNC, SYNC])
def test_equal_builds_compare_equal(discipline):
    model = random_model(random.Random(3))
    first, second = build_state_graph(model, discipline), build_state_graph(model, discipline)
    assert first == second
    assert hash(first) == hash(second)
    assert first.nodes == second.nodes and first.nodes is not second.nodes


def test_sync_build_shares_one_tuple_per_successor(mtrp):
    graph = build_state_graph(mtrp, SYNC)
    assert len({id(vs) for vs in graph.out}) == len(set(graph.out)) < len(graph.out)


@pytest.mark.parametrize("state", [(0.5, 0), (1, 2.0)])
def test_non_integer_levels_are_outside_the_space(pl2, apl2, rho_cro, state):
    graph = build_state_graph(pl2, ASYNC)
    assert state not in graph.nodes
    with pytest.raises(ValueError):
        graph.index(state)
    with pytest.raises(KeyError):
        graph.succ[state]
    with pytest.raises(ValueError):
        reachable(graph, state, (1, 0))
    with pytest.raises(ValueError):
        reachable(graph, (1, 0), state)
    with pytest.raises(ValueError):
        reachable_set(graph, state)
    with pytest.raises(ValueError):
        all_step_terms(apl2, pl2, rho_cro, state)


def test_state_space_slices_are_tuples_of_states(pl2):
    nodes = build_state_graph(pl2, ASYNC).nodes
    states = tuple(nodes)
    for k in (slice(1, 3), slice(None, None, -2), slice(-2, None), slice(5, 1), slice(None)):
        assert nodes[k] == states[k]
