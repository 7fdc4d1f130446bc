import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvnabs import (
    ASYNC,
    SYNC,
    InfiniteTraceSetError,
    LassoTrace,
    TooManyTracesError,
    UnsupportedError,
    async_traces,
    attractors,
    build_state_graph,
    canonicalize,
    check_sync_abstraction,
    parse_model,
    state_space_size,
    sync_traces,
    trace_set_is_finite,
)
from mvnabs import traces
from mvnabs.fixtures import apl2, atrp, mtrp, pl2, rho_cro
from mvnabs.oracle import oracle_check, random_model
from mvnabs.semantics import reachable_set
from mvnabs.traces import is_trace_of, trace_count
from tests.test_graph_search import NETWORK_SEEDS, network

# A 2-cycle (00 <-> 01) where 00 can also escape to the fixed point 10:
# the canonical shape of an infinite asynchronous trace set.
BRANCHY_SOURCE = """\
mvn Branchy
entity A : 0..1
entity B : 0..1
neighbourhood A = [A, B]
neighbourhood B = [A, B]
table A:
  0 0 -> 1
  0 1 -> 0
  1 0 -> 1
  1 1 -> 1
table B:
  0 0 -> 1
  0 1 -> 0
  1 0 -> 0
  1 1 -> 1
"""

PL2_TRACES = {
    LassoTrace(((0, 0),), ((0, 1), (0, 2))),
    LassoTrace(((0, 0), (1, 0)), ()),
    LassoTrace((), ((0, 1), (0, 2))),
    LassoTrace((), ((0, 2), (0, 1))),
    LassoTrace(((1, 0),), ()),
    LassoTrace(((1, 1),), ((0, 1), (0, 2))),
    LassoTrace(((1, 1), (1, 0)), ()),
    LassoTrace(((1, 2),), ((0, 2), (0, 1))),
    # Runs through the 12 -> 11 edge; forced by maximality even though
    # they are easy to miss when reading the graph by eye.
    LassoTrace(((1, 2), (1, 1)), ((0, 1), (0, 2))),
    LassoTrace(((1, 2), (1, 1), (1, 0)), ()),
}


def branchy():
    return parse_model(BRANCHY_SOURCE)


def test_sync_traces_pl2(pl2):
    traces = sync_traces(pl2)
    assert len(traces) == state_space_size(pl2)
    assert LassoTrace(((1, 2),), ((0, 1), (0, 2))) in traces
    assert LassoTrace((), ((1, 0),)) in traces
    assert LassoTrace((), ((0, 0), (1, 1))) in traces


def test_sync_traces_constant_model():
    model = parse_model(
        "mvn Id\nentity X : 0..2\nneighbourhood X = [X]\n"
        "table X:\n  0 -> 0\n  1 -> 1\n  2 -> 2\n"
    )
    traces = sync_traces(model)
    assert traces == {LassoTrace((), ((v,),)) for v in (0, 1, 2)}


def test_finiteness_criterion(pl2, mtrp):
    assert trace_set_is_finite(build_state_graph(pl2, ASYNC))
    assert trace_set_is_finite(build_state_graph(mtrp, ASYNC))
    assert not trace_set_is_finite(build_state_graph(branchy(), ASYNC))


def test_branchy_has_pumping_witness():
    # A finite trace that revisits a state certifies infinitely many
    # traces: the revisited cycle can be pumped any number of times.
    graph = build_state_graph(branchy(), ASYNC)
    witness = ((0, 0), (0, 1), (0, 0), (1, 0))
    for a, b in zip(witness, witness[1:]):
        assert b in graph.succ[a]
    assert not graph.succ[witness[-1]]
    assert len(set(witness)) < len(witness)


def test_async_traces_pl2_exact(pl2):
    assert async_traces(pl2) == PL2_TRACES


def test_pl2_has_ten_traces(pl2):
    graph = build_state_graph(pl2, ASYNC)
    assert trace_count(graph) == len(async_traces(pl2, graph)) == 10


def test_trace_count_matches_enumeration():
    graphs = [build_state_graph(network(seed), ASYNC) for seed in NETWORK_SEEDS]
    graphs += [build_state_graph(random_model(random.Random(s)), ASYNC) for s in range(200)]
    finite = [g for g in graphs if trace_set_is_finite(g)]
    assert len(finite) > 80
    for graph in finite:
        assert trace_count(graph) == len(async_traces(None, graph))


def reference_lassos(graph):
    """Every lasso by a depth-first walk over every path, canonicalized.

    A walk ends at a successor-free state or closes into a lasso the
    first time it revisits a state on its path: an enumeration that
    shares nothing with the component fold it checks.
    """
    nodes, out = graph.nodes, graph.out

    def states(path):
        return tuple(nodes[k] for k in path)

    found = set()
    for s0, first in enumerate(out):
        if not first:
            found.add(LassoTrace((nodes[s0],), ()))
            continue
        path, pos, iters = [s0], {s0: 0}, [iter(first)]
        while iters:
            nxt = next(iters[-1], None)
            if nxt is None:
                iters.pop()
                del pos[path.pop()]
            elif nxt in pos:
                i = pos[nxt]
                found.add(canonicalize(LassoTrace(states(path[:i]), states(path[i:]))))
            elif not out[nxt]:
                found.add(LassoTrace(states(path + [nxt]), ()))
            else:
                pos[nxt] = len(path)
                path.append(nxt)
                iters.append(iter(out[nxt]))
    return found


def all_rise(n):
    """``n`` Boolean entities that each rise to 1 and stay there."""
    lines = [f"mvn Rise{n}"]
    lines += [f"entity X{i} : 0..1" for i in range(n)]
    lines += [f"neighbourhood X{i} = [X{i}]" for i in range(n)]
    for i in range(n):
        lines += [f"table X{i}:", "  0 -> 1", "  1 -> 1"]
    return parse_model("\n".join(lines) + "\n")


def reference_models():
    yield from (pl2(), apl2(), mtrp(), atrp())
    yield from (network(seed) for seed in NETWORK_SEEDS)
    yield from (random_model(random.Random(s)) for s in range(300))
    yield all_rise(6)


def test_enumeration_matches_the_reference_walk():
    finite = 0
    for model in reference_models():
        pairs = [(sync_traces(model), build_state_graph(model, SYNC))]
        graph = build_state_graph(model, ASYNC)
        if trace_set_is_finite(graph):
            pairs.append((async_traces(model, graph), graph))
            finite += 1
        for found, graph in pairs:
            assert found == reference_lassos(graph)
            assert all(canonicalize(t) == t for t in found)
    assert finite > 120


def test_trace_budget_is_checked_before_the_walk(monkeypatch):
    def walk(graph):
        raise AssertionError("the traces were walked")

    monkeypatch.setattr(traces, "MAX_TRACES", 9)
    monkeypatch.setattr(traces, "_lassos", walk)
    with pytest.raises(TooManyTracesError, match="PL2: 10 asynchronous traces exceed"):
        async_traces(pl2())


def test_sync_trace_budget_is_checked_before_the_walk(monkeypatch):
    lassos = traces._lassos

    def walk(graph):
        # APL2's 4 lassos fit the budget; PL2's 6 must not be walked.
        assert graph.name != "PL2", "the traces of PL2 were walked"
        return lassos(graph)

    monkeypatch.setattr(traces, "MAX_TRACES", 5)
    monkeypatch.setattr(traces, "_lassos", walk)
    message = "^model PL2: 6 synchronous traces exceed the budget of 5$"
    with pytest.raises(TooManyTracesError, match=message):
        sync_traces(pl2())
    with pytest.raises(TooManyTracesError, match=message):
        check_sync_abstraction(apl2(), pl2(), rho_cro())
    monkeypatch.setattr(traces, "MAX_TRACES", 3)
    with pytest.raises(TooManyTracesError, match="^model APL2: 4 synchronous traces exceed"):
        check_sync_abstraction(apl2(), pl2(), rho_cro())
    monkeypatch.setattr(traces, "MAX_TRACES", 6)
    monkeypatch.setattr(traces, "_lassos", lassos)
    assert sync_traces(pl2()) == reference_lassos(build_state_graph(pl2(), SYNC))


def test_oracle_reports_trace_budget_as_unsupported(monkeypatch):
    monkeypatch.setattr(traces, "MAX_TRACES", 9)
    with pytest.raises(UnsupportedError, match="PL2: 10 asynchronous traces"):
        oracle_check(apl2(), pl2(), rho_cro())


def test_async_traces_infinite_raises():
    with pytest.raises(InfiniteTraceSetError):
        async_traces(branchy())


def test_finiteness_criterion_rejects_sync_graphs(pl2):
    with pytest.raises(ValueError, match="applies to asynchronous graphs"):
        trace_set_is_finite(build_state_graph(pl2, SYNC))


def test_is_trace_of_rejects_a_non_edge(pl2):
    graph = build_state_graph(pl2, ASYNC)
    assert is_trace_of(graph, LassoTrace(((0, 0),), ((0, 1), (0, 2))))
    # (0, 0) -> (0, 2) changes Cro by two levels at once.
    assert not is_trace_of(graph, LassoTrace(((0, 0),), ((0, 2), (0, 1))))


def test_is_trace_of_rejects_states_outside_the_space(pl2):
    graph = build_state_graph(pl2, ASYNC)
    # A foreign state in the prefix, in the loop, or after a state of the space.
    for trace in (
        LassoTrace(((5, 5),), ()),
        LassoTrace((), ((9, 9),)),
        LassoTrace(((0, 1), (9, 9)), ()),
    ):
        assert not is_trace_of(graph, trace)


def test_async_traces_edgeless_model():
    model = parse_model(
        "mvn Id\nentity X : 0..2\nneighbourhood X = [X]\n"
        "table X:\n  0 -> 0\n  1 -> 1\n  2 -> 2\n"
    )
    assert async_traces(model) == {LassoTrace(((v,),), ()) for v in (0, 1, 2)}


@pytest.mark.parametrize("model", [pl2(), mtrp()])
def test_trace_sets_are_valid_maximal_and_cover_edges(model):
    graph = build_state_graph(model, ASYNC)
    traces = async_traces(model, graph)
    attractor_states = attractors(graph).all_states()
    used_edges = set()
    for t in traces:
        assert is_trace_of(graph, t)
        seq = t.prefix + t.loop
        used_edges.update(zip(seq, seq[1:]))
        if not t.is_finite:
            used_edges.add((seq[-1], t.loop[0]))
        tail = set(t.loop) if t.loop else {t.prefix[-1]}
        assert tail <= attractor_states
    assert used_edges == graph.edge_set()


@pytest.mark.parametrize(
    "before,after",
    [
        (
            LassoTrace(((0, 1),), ((0, 2), (0, 1))),
            LassoTrace((), ((0, 1), (0, 2))),
        ),
        (LassoTrace((), ((0, 2), (0, 1))), LassoTrace((), ((0, 2), (0, 1)))),
        (LassoTrace(((1, 0),), ()), LassoTrace(((1, 0),), ())),
    ],
)
def test_canonicalize_examples(before, after):
    assert canonicalize(before) == after


def test_canonicalize_distinguishes_rotations():
    a = canonicalize(LassoTrace((), ((0, 2), (0, 1))))
    b = canonicalize(LassoTrace((), ((0, 1), (0, 2))))
    assert a != b


def test_canonicalize_reduces_repeated_loops():
    doubled = LassoTrace((), ((0, 1), (0, 2), (0, 1), (0, 2)))
    assert canonicalize(doubled) == LassoTrace((), ((0, 1), (0, 2)))


@pytest.mark.parametrize("model", [pl2(), mtrp()])
def test_unroll_consistency_on_enumerated_traces(model):
    for t in async_traces(model):
        assert canonicalize(t) == t
        if t.is_finite:
            continue
        for k in (1, 2, 3):
            unrolled = LassoTrace(t.prefix + t.loop * k, t.loop)
            assert canonicalize(unrolled) == t
        for j in range(1, len(t.loop)):
            rotated = LassoTrace(t.prefix + t.loop[:j], t.loop[j:] + t.loop[:j])
            assert canonicalize(rotated) == t


_states = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def lassos(draw):
    prefix = draw(st.lists(_states, max_size=5))
    loop = draw(st.lists(_states, max_size=5))
    if not prefix and not loop:
        prefix = [draw(_states)]
    return LassoTrace(tuple(prefix), tuple(loop))


@settings(max_examples=300, deadline=None)
@given(lassos())
def test_canonicalize_idempotent_and_sequence_preserving(t):
    c = canonicalize(t)
    assert canonicalize(c) == c
    n = 3 * (len(t.prefix) + len(t.loop)) + 3
    assert c.unfold(n) == t.unfold(n)
    assert c.is_finite == t.is_finite


@settings(max_examples=300, deadline=None)
@given(lassos(), lassos())
def test_canonical_equality_is_sequence_equality(a, b):
    n = len(a.prefix) + len(b.prefix) + 2 * max(1, len(a.loop)) * max(1, len(b.loop)) + 2
    same_sequence = a.unfold(n) == b.unfold(n) and a.is_finite == b.is_finite
    assert (canonicalize(a) == canonicalize(b)) == same_sequence


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_finiteness_criterion_matches_cycle_based_oracle(seed):
    # Independent reading of the criterion: some state with two or more
    # successors lies on a cycle (is reachable from one of them).
    model = random_model(random.Random(seed))
    graph = build_state_graph(model, ASYNC)
    on_branching_cycle = any(
        len(graph.succ[s]) >= 2 and any(s in reachable_set(graph, v) for v in graph.succ[s])
        for s in graph.nodes
    )
    assert trace_set_is_finite(graph) == (not on_branching_cycle)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_enumeration_on_random_finite_models(seed):
    model = random_model(random.Random(seed))
    graph = build_state_graph(model, ASYNC)
    if not trace_set_is_finite(graph):
        return
    traces = async_traces(model, graph)
    starts = set()
    for t in traces:
        assert is_trace_of(graph, t)
        assert canonicalize(t) == t
        starts.add(t.start())
    assert starts == set(graph.nodes)
