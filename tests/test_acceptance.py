"""Acceptance gate: one test per pinned criterion, one PASS/FAIL line each.

Every expected value below was either taken from the bundled fixture
documents or recomputed from first principles (trace enumeration, direct
set inclusion, exhaustive reachability) before being frozen here.

Two pinned values follow from the fixtures rather than from a listing:

* criterion 2: PL2 has 10 maximal asynchronous traces.  Criterion 1 pins
  ``async_next(pl2, (1, 2)) == {(0, 2), (1, 1)}`` (CI(1,2)=0,
  Cro(1,2)=1), so three maximal runs start at 12: ``(12)(02,01)^w``,
  ``(12,11)(01,02)^w`` and ``(12,11,10)``.  Counting per start state
  gives 00:2, 01:1, 02:1, 10:1, 11:2, 12:3.  The 8-trace listing
  (``PL2_LISTED_TRACES``) omits the two runs through 12 -> 11
  (``PL2_OMITTED_TRACES``); it is still asserted as a subset, and the
  abstracted image is exactly the 6 pinned lassos.
* criterion 4: the tryptophan model has 4 candidate abstractions.  A
  candidate is one pick per abstract row whose concrete preimage rows
  have more than one image under phi_trp (TrpExt and Trp 0->0, 1->1,
  2->1).  Only two rows are ambiguous: TrpR at abstract Trp=1 (concrete
  outputs 0 at Trp=1 and 1 at Trp=2) and Trp at abstract
  (TrpE, TrpExt, Trp) = (0, 0, 1) (concrete rows 0 0 1 -> 0 and
  0 0 2 -> 1), hence 2 x 2 = 4 candidates.
"""

import random

from mvnabs import (
    ASYNC,
    SYNC,
    LassoTrace,
    abstract_trace_set,
    all_step_terms,
    async_next,
    async_traces,
    attractor_correspondence,
    attractors,
    build_state_graph,
    check_asyn_abs,
    differential_suite,
    enumerate_candidates,
    oracle_check,
    parse_model,
    reachability_soundness_suite,
    serialize_model,
    state_space_size,
    sync_traces,
)
from mvnabs.fixtures import apl2, atrp, mtrp, phi_trp, pl2, rho_cro
from mvnabs.oracle import random_instance
from tests.test_checker import _reference_sweep

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

# The eight traces of the original listing...
PL2_LISTED_TRACES = {
    LassoTrace(((0, 0),), ((0, 1), (0, 2))),
    LassoTrace(((0, 0), (1, 0)), ()),
    LassoTrace((), ((0, 1), (0, 2))),
    LassoTrace((), ((0, 2), (0, 1))),
    LassoTrace(((1, 0),), ()),
    LassoTrace(((1, 1),), ((0, 1), (0, 2))),
    LassoTrace(((1, 1), (1, 0)), ()),
    LassoTrace(((1, 2),), ((0, 2), (0, 1))),
}

# ...and the two maximal runs through 12 -> 11 the listing omits.
PL2_OMITTED_TRACES = {
    LassoTrace(((1, 2), (1, 1)), ((0, 1), (0, 2))),
    LassoTrace(((1, 2), (1, 1), (1, 0)), ()),
}

ABSTRACTED_PL2 = {
    LassoTrace(((0, 0), (0, 1)), ()),
    LassoTrace(((0, 0), (1, 0)), ()),
    LassoTrace(((0, 1),), ()),
    LassoTrace(((1, 0),), ()),
    LassoTrace(((1, 1), (0, 1)), ()),
    LassoTrace(((1, 1), (1, 0)), ()),
}

MTRP_CYCLE = frozenset({(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 1)})


def _criterion(n, body):
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {n}: FAIL")
        raise
    print(f"[acceptance] criterion {n}: PASS")


def test_criterion_1_pl2_semantics():
    def body():
        model = pl2()
        assert build_state_graph(model, ASYNC).edge_set() == PL2_ASYNC_EDGES
        assert build_state_graph(model, SYNC).edge_set() == PL2_SYNC_EDGES
        assert async_next(model, (1, 2)) == {(0, 2), (1, 1)}

    _criterion(1, body)


def test_criterion_2_pl2_traces():
    def body():
        traces = async_traces(pl2())
        assert abstract_trace_set(rho_cro(), traces) == ABSTRACTED_PL2
        assert PL2_LISTED_TRACES <= traces
        assert traces == PL2_LISTED_TRACES | PL2_OMITTED_TRACES

    _criterion(2, body)


def test_criterion_3_attractors():
    def body():
        model = pl2()
        sync_result = attractors(build_state_graph(model, SYNC))
        assert sync_result.state_sets() == {
            frozenset({(1, 0)}),
            frozenset({(0, 0), (1, 1)}),
            frozenset({(0, 1), (0, 2)}),
        }
        async_result = attractors(build_state_graph(model, ASYNC))
        assert async_result.points() == {frozenset({(1, 0)})}
        assert {a.states for a in async_result.attractors if a.kind == "scc"} == {
            frozenset({(0, 1), (0, 2)})
        }
        trp = mtrp()
        assert state_space_size(trp) == 36
        result = attractors(build_state_graph(trp, ASYNC))
        assert result.points() == {
            frozenset({(0, 0, 1, 1)}),
            frozenset({(0, 1, 2, 2)}),
        }
        assert {a.states for a in result.attractors if a.kind == "scc"} == {MTRP_CYCLE}

    _criterion(3, body)


def test_criterion_4_abstraction_verdicts():
    def body():
        assert check_asyn_abs(apl2(), pl2(), rho_cro()).holds is True
        cands = enumerate_candidates(mtrp(), phi_trp())
        matches = [c for c in cands.models if c.equivalent(atrp())]
        assert len(matches) == 1, "the bundled Boolean reduction must be enumerated"
        verdicts = [check_asyn_abs(c, mtrp(), phi_trp()).holds for c in cands.models]
        assert sum(verdicts) == 1, "exactly one candidate is a valid abstraction"
        assert verdicts[cands.models.index(matches[0])] is True
        result = attractors(build_state_graph(atrp(), ASYNC))
        assert result.points() == {frozenset({(0, 0, 1, 1)})}
        assert {a.states for a in result.attractors if a.kind == "scc"} == {MTRP_CYCLE}
        assert len(cands) == 4
        named = [
            (mtrp().entities[cp.entity].name, cp.inputs, cp.options)
            for cp in cands.choice_points
        ]
        assert named == [("TrpR", (1,), (0, 1)), ("Trp", (0, 0, 1), (0, 1))]

    _criterion(4, body)


def test_criterion_5_oracle_agreement():
    def body():
        assert oracle_check(apl2(), pl2(), rho_cro()) is True
        for cand in enumerate_candidates(mtrp(), phi_trp()).models:
            assert (
                oracle_check(cand, mtrp(), phi_trp())
                == check_asyn_abs(cand, mtrp(), phi_trp()).holds
            )
        report = differential_suite(seed=20260810, count=1500)
        assert report["both_finite"] >= 500
        assert report["divergences"] == []

    _criterion(5, body)


def test_criterion_6_reachability_and_attractor_soundness():
    def body():
        for mv1, mv2, phi in [
            (apl2(), pl2(), rho_cro()),
            (atrp(), mtrp(), phi_trp()),
        ]:
            reach = reachability_soundness_suite(mv1, mv2, phi)
            assert reach["failures"] == []
            corr = attractor_correspondence(mv1, mv2, phi)
            assert corr["failures"] == []

    _criterion(6, body)


def test_criterion_7_procedure_properties():
    def body():
        rng = random.Random(97)
        for _ in range(100):
            mv1, mv2, phi = random_instance(rng)
            base = check_asyn_abs(mv1, mv2, phi)
            assert base.stats.iterations <= base.stats.initial_terms + 1
            base_family = (
                {s: set(v) for s, v in base.family.terms.items()}
                if base.holds
                else None
            )
            # The library sweeps in one order; the reference sweep
            # shuffles states and gammas.
            nodes = build_state_graph(mv1, ASYNC).nodes
            terms = {s: all_step_terms(mv1, mv2, phi, s) for s in nodes}
            for seed in (5, 6, 7):
                holds, stats, _, family = _reference_sweep(phi, terms, random.Random(seed))
                assert holds == base.holds
                assert stats.iterations <= stats.initial_terms + 1
                if base.holds:
                    assert {s: set(dict(items)) for s, items in family} == base_family

    _criterion(7, body)


def test_criterion_8_round_trips():
    def body():
        for model in (pl2(), apl2(), mtrp(), atrp()):
            assert parse_model(serialize_model(model)) == model
        from mvnabs import canonicalize

        for model in (pl2(), apl2(), mtrp(), atrp()):
            for trace in async_traces(model) | sync_traces(model):
                assert canonicalize(trace) == trace
                if trace.is_finite:
                    continue
                for k in (1, 2, 3):
                    variant = LassoTrace(trace.prefix + trace.loop * k, trace.loop)
                    assert canonicalize(variant) == trace
                for j in range(1, len(trace.loop)):
                    rotated = LassoTrace(
                        trace.prefix + trace.loop[:j],
                        trace.loop[j:] + trace.loop[:j],
                    )
                    assert canonicalize(rotated) == trace

    _criterion(8, body)
