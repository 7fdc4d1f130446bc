import itertools
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvnabs import (
    ASYNC,
    AbstractionMapping,
    CandidateSet,
    ChoicePoint,
    Entity,
    ModelValidationError,
    Mvn,
    Neighbourhood,
    NextStateTable,
    TooManyCandidatesError,
    LassoTrace,
    MappingError,
    MappingMismatchError,
    NonMonotoneMappingWarning,
    StateMapping,
    StructureMismatchError,
    abstract_trace,
    abstract_trace_set,
    async_traces,
    build_state_graph,
    canonicalize,
    check_sync_abstraction,
    concrete_class,
    enumerate_candidates,
    image_index,
    iter_states,
    parse_mapping,
    parse_model,
    serialize_model,
    sync_traces,
    trace_set_is_finite,
)
from mvnabs import abstraction
from mvnabs import fixtures
from mvnabs.fixtures import APL2_SOURCE
from mvnabs.oracle import random_mapping, random_model
from tests.test_checker import _all_compressed_triple

# 16 entities, each read only by itself; compressing 1 and 2 together
# leaves one abstract row per entity with two admissible outputs, so the
# mapping admits 2**16 candidates.
MANY_CHOICES_SOURCE = (
    "mvn MANY\n"
    + "".join(f"entity X{i} : 0..2\n" for i in range(16))
    + "".join(f"neighbourhood X{i} = [X{i}]\n" for i in range(16))
    + "".join(f"table X{i}:\n  0 -> 0\n  1 -> 0\n  2 -> 1\n" for i in range(16))
)
MANY_CHOICES_MAP = "\n".join(f"X{i}: 0->0,1->1,2->1" for i in range(16))

ABSTRACTED_PL2 = {
    LassoTrace(((0, 0), (0, 1)), ()),
    LassoTrace(((0, 0), (1, 0)), ()),
    LassoTrace(((0, 1),), ()),
    LassoTrace(((1, 0),), ()),
    LassoTrace(((1, 1), (0, 1)), ()),
    LassoTrace(((1, 1), (1, 0)), ()),
}


def test_abstract_state_examples(rho_cro, phi_trp):
    assert rho_cro.apply((1, 2)) == (1, 1)
    assert rho_cro.apply((0, 0)) == (0, 0)
    assert phi_trp.apply((0, 1, 2, 2)) == (0, 1, 1, 1)


def test_abstract_trace_collapses_loop(rho_cro):
    t = LassoTrace(((0, 0),), ((0, 1), (0, 2)))
    assert abstract_trace(rho_cro, t) == LassoTrace(((0, 0), (0, 1)), ())


def test_abstract_trace_merges_prefix_into_collapse(rho_cro):
    t = LassoTrace(((1, 2),), ((0, 2), (0, 1)))
    assert abstract_trace(rho_cro, t) == LassoTrace(((1, 1), (0, 1)), ())


def test_abstract_trace_unchanged_when_levels_untouched(rho_cro):
    # The compressed entity only visits levels that map to themselves.
    t = LassoTrace(((0, 0), (1, 0)), ())
    assert abstract_trace(rho_cro, t) == t


def test_abstract_trace_keeps_noncollapsing_loop():
    model = parse_model(
        "mvn W\nentity X : 0..2\nneighbourhood X = [X]\n"
        "table X:\n  0 -> 1\n  1 -> 2\n  2 -> 0\n"
    )
    phi = parse_mapping("X: 0->0,1->1,2->1", model)
    t = LassoTrace((), ((0,), (1,), (2,)))
    assert abstract_trace(phi, t) == LassoTrace((), ((0,), (1,)))


def test_abstract_trace_set_pl2(pl2, rho_cro):
    image = abstract_trace_set(rho_cro, async_traces(pl2))
    assert image == ABSTRACTED_PL2


def test_abstract_trace_set_for_mtrp_contains_atrp(mtrp, atrp, phi_trp):
    image = abstract_trace_set(phi_trp, async_traces(mtrp))
    assert async_traces(atrp) <= image


def test_sync_abstraction_verdict(apl2, pl2, rho_cro):
    # Frozen from its own definition: the synchronous traces sitting on
    # fixed points collapse under duplicate merging (e.g. <10,10,...>
    # becomes the finite <10>), so the infinite abstract trace at 10 has
    # no counterpart in the merged image.
    assert check_sync_abstraction(apl2, pl2, rho_cro) is False
    images = abstract_trace_set(rho_cro, sync_traces(pl2))
    assert LassoTrace(((1, 0),), ()) in images
    assert LassoTrace((), ((1, 0),)) in sync_traces(apl2)


def test_sync_abstraction_structure_mismatch(pl2, rho_cro):
    other = parse_model(
        APL2_SOURCE.replace("neighbourhood Cro = [CI, Cro]", "neighbourhood Cro = [Cro]")
        .replace("table Cro:\n  0 0 -> 1\n  0 1 -> 1\n  1 0 -> 0\n  1 1 -> 0",
                 "table Cro:\n  0 -> 1\n  1 -> 0")
    )
    with pytest.raises(StructureMismatchError):
        check_sync_abstraction(other, pl2, rho_cro)


def test_sync_abstraction_requires_matching_ranges(pl2, rho_cro):
    with pytest.raises(MappingMismatchError):
        check_sync_abstraction(pl2, pl2, rho_cro)


def test_all_identity_mapping_is_impossible():
    with pytest.raises(MappingError):
        AbstractionMapping((1, 2), (None, None))


@pytest.mark.parametrize("table, message", [
    ((0, 1), "cannot compress a range of size 2"),
    ((0, -1, 1), "negative abstract level"),
    ((0, True, 1), "True is not a level"),
    ((0, 1.0, 1), "1.0 is not a level"),
    ((0, None, 1), "None is not a level"),
    ((0, "a", 1), "'a' is not a level"),
])
def test_state_mapping_rejects_bad_tables(table, message):
    with pytest.raises(MappingError, match=message):
        StateMapping(0, table)


@pytest.mark.parametrize("max_levels, slots, message", [
    ((1, 2), (StateMapping(1, (0, 1, 1)),), "one slot per entity required"),
    ((1, 2), (None, StateMapping(0, (0, 1, 1))), "slot 1 carries a mapping for entity 0"),
    ((1, 3), (None, StateMapping(1, (0, 1, 1))),
     r"entity 1: mapping covers 0\.\.2, source range is 0\.\.3"),
])
def test_abstraction_mapping_rejects_bad_slots(max_levels, slots, message):
    with pytest.raises(MappingError, match=message):
        AbstractionMapping(max_levels, slots)


def test_enumerate_candidates_pl2(pl2, apl2, rho_cro):
    cands = enumerate_candidates(pl2, rho_cro)
    assert len(cands) == 2
    assert len(cands.choice_points) == 1
    cp = cands.choice_points[0]
    assert pl2.entities[cp.entity].name == "Cro"
    assert cp.inputs == (1, 1)
    assert cp.options == (0, 1)
    assert cands.models[0].equivalent(apl2)


def test_enumerate_candidates_mtrp(mtrp, atrp, phi_trp):
    # Two binary choice points (TrpR on abstract input 1, Trp on
    # abstract row (0,0,1)) and no others, hence four candidates.
    cands = enumerate_candidates(mtrp, phi_trp)
    named = [
        (mtrp.entities[cp.entity].name, cp.inputs, cp.options)
        for cp in cands.choice_points
    ]
    assert named == [("TrpR", (1,), (0, 1)), ("Trp", (0, 0, 1), (0, 1))]
    assert len(cands) == 4
    assert [c.equivalent(atrp) for c in cands.models].count(True) == 1
    assert cands.models[0].equivalent(atrp)


def test_enumerate_candidates_count_is_product_of_choices(mtrp, phi_trp):
    cands = enumerate_candidates(mtrp, phi_trp)
    product = 1
    for cp in cands.choice_points:
        product *= len(cp.options)
    assert len(cands) == product


def test_enumerate_candidates_single_when_unambiguous():
    model = parse_model(
        "mvn Id\nentity X : 0..2\nneighbourhood X = [X]\n"
        "table X:\n  0 -> 0\n  1 -> 1\n  2 -> 2\n"
    )
    phi = parse_mapping("X: 0->0,1->1,2->1", model)
    cands = enumerate_candidates(model, phi)
    assert len(cands) == 1 and cands.choice_points == ()


def reference_candidates(model: Mvn, phi: AbstractionMapping) -> CandidateSet:
    """Candidates by a walk over the abstract rows: each abstract row
    reads its concrete rows through the product of the preimages of its
    levels.  The reference for the one pass over each concrete table."""
    target_max = phi.target_max_levels
    preimages = [
        {u: [l for l in range(top + 1) if phi.level_image(j, l) == u] for u in range(top + 1)}
        for j, top in enumerate(model.max_levels)
    ]
    fixed, choice_points = [], []
    for i, nb in enumerate(model.neighbourhoods):
        rows = {}
        if not nb.inputs:
            fixed.append({(): 0})
            continue
        for u in itertools.product(*(range(target_max[j] + 1) for j in nb.inputs)):
            concrete_rows = itertools.product(
                *(preimages[j][u[k]] for k, j in enumerate(nb.inputs))
            )
            options = sorted(
                {phi.level_image(i, model.tables[i].rows[x]) for x in concrete_rows}
            )
            if len(options) == 1:
                rows[u] = options[0]
            else:
                choice_points.append(ChoicePoint(i, u, tuple(options)))
        fixed.append(rows)
    entities = tuple(Entity(e.name, target_max[i]) for i, e in enumerate(model.entities))
    neighbourhoods = tuple(
        Neighbourhood(i, nb.inputs) for i, nb in enumerate(model.neighbourhoods)
    )
    models = []
    for k, picks in enumerate(itertools.product(*(cp.options for cp in choice_points))):
        tables = [dict(rows) for rows in fixed]
        for cp, pick in zip(choice_points, picks):
            tables[cp.entity][cp.inputs] = pick
        models.append(Mvn(
            f"{model.name}_abs{k}", entities, neighbourhoods,
            tuple(NextStateTable(i, rows) for i, rows in enumerate(tables)),
        ))
    return CandidateSet(tuple(models), tuple(choice_points))


def _candidate_cases():
    yield fixtures.mtrp(), fixtures.phi_trp()
    yield fixtures.pl2(), fixtures.rho_cro()
    for seed in (33, 13, 14, 16):
        _, mv2, phi = _all_compressed_triple(random.Random(seed))
        yield mv2, phi
    rng = random.Random(24)
    for _ in range(300):
        model = random_model(rng)
        yield model, random_mapping(rng, model)


def test_enumerate_candidates_matches_the_abstract_row_walk():
    for model, phi in _candidate_cases():
        got, want = enumerate_candidates(model, phi), reference_candidates(model, phi)
        assert got.choice_points == want.choice_points
        assert [m.name for m in got.models] == [m.name for m in want.models]
        for g, w in zip(got.models, want.models, strict=True):
            assert g.entities == w.entities
            assert g.neighbourhoods == w.neighbourhoods
            # Rows in the same order, not only equal as dicts.
            assert [list(t.rows.items()) for t in g.tables] == [
                list(t.rows.items()) for t in w.tables
            ]


def test_enumerate_candidates_rejects_a_missing_row(mtrp, phi_trp):
    trp = mtrp.entity_index("Trp")
    rows = dict(mtrp.tables[trp].rows)
    del rows[(0, 0, 0)]
    tables = tuple(
        NextStateTable(i, rows) if i == trp else t for i, t in enumerate(mtrp.tables)
    )
    broken = Mvn("MTRPgap", mtrp.entities, mtrp.neighbourhoods, tables)
    with pytest.raises(ModelValidationError, match=r"entity Trp: table row \(0, 0, 0\) missing"):
        enumerate_candidates(broken, phi_trp)


def _refuse_models(*args, **kwargs):
    raise AssertionError("a candidate model was built")


def test_candidate_budget_is_checked_before_building(monkeypatch):
    model = parse_model(MANY_CHOICES_SOURCE)
    phi = parse_mapping(MANY_CHOICES_MAP, model)
    assert abstraction.MAX_CANDIDATES < 2**16
    monkeypatch.setattr(abstraction, "Mvn", _refuse_models)
    with pytest.raises(TooManyCandidatesError, match=r"65536 candidate .* \(16 choice points\)"):
        enumerate_candidates(model, phi)


def test_candidate_budget_bound_is_inclusive(monkeypatch, mtrp, phi_trp):
    monkeypatch.setattr(abstraction, "MAX_CANDIDATES", 4)
    assert len(enumerate_candidates(mtrp, phi_trp)) == 4
    monkeypatch.setattr(abstraction, "MAX_CANDIDATES", 3)
    monkeypatch.setattr(abstraction, "Mvn", _refuse_models)
    with pytest.raises(TooManyCandidatesError, match="admits 4 candidate"):
        enumerate_candidates(mtrp, phi_trp)


def test_candidates_preserve_structure_and_serialize(mtrp, phi_trp):
    for cand in enumerate_candidates(mtrp, phi_trp).models:
        assert [e.name for e in cand.entities] == [e.name for e in mtrp.entities]
        assert cand.neighbourhoods == mtrp.neighbourhoods
        assert parse_model(serialize_model(cand)) == cand


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_abstract_state_is_surjective(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneMappingWarning)
        phi = random_mapping(rng, model)
    image = {phi.apply(s) for s in iter_states(model)}
    expected = set()
    import itertools

    expected.update(
        itertools.product(*(range(m + 1) for m in phi.target_max_levels))
    )
    assert image == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_abstract_trace_commutes_with_unrolling(seed):
    rng = random.Random(seed)
    model = random_model(rng)

    graph = build_state_graph(model, ASYNC)
    if not trace_set_is_finite(graph):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneMappingWarning)
        phi = random_mapping(rng, model)
    for t in async_traces(model, graph):
        a = abstract_trace(phi, t)
        n = 3 * (len(t.prefix) + len(t.loop)) + 3
        merged = []
        for s in t.unfold(n):
            img = phi.apply(s)
            if not merged or merged[-1] != img:
                merged.append(img)
        assert tuple(merged) == a.unfold(len(merged))
        seq = a.prefix + a.loop
        assert all(x != y for x, y in zip(seq, seq[1:]))


def _instances():
    yield fixtures.pl2(), fixtures.rho_cro()
    yield fixtures.mtrp(), fixtures.phi_trp()
    rng = random.Random(7)
    for _ in range(200):
        model = random_model(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonMonotoneMappingWarning)
            yield model, random_mapping(rng, model)


def test_image_index_is_the_image_of_every_node():
    for mv2, phi in _instances():
        g1 = build_state_graph(enumerate_candidates(mv2, phi).models[0], ASYNC)
        g2 = build_state_graph(mv2, ASYNC)
        assert image_index(phi) == [g1.index(phi.apply(s)) for s in g2.nodes]


def test_concrete_class_is_every_state_with_that_image():
    for model, phi in _instances():
        classes = {}
        for t in iter_states(model):
            classes.setdefault(phi.apply(t), set()).add(t)
        for s in itertools.product(*(range(top + 1) for top in phi.target_max_levels)):
            assert concrete_class(phi, s) == classes[s]


def _three_branch_abstract_trace(phi, trace):
    """The lasso abstraction with the finite and collapsed-loop cases
    kept apart: the reference for the one merge of ``abstract_trace``."""

    def merge(seq, last):
        out = []
        for s in seq:
            if s != last:
                out.append(s)
            last = s
        return out

    prefix_img = [phi.apply(s) for s in trace.prefix]
    if trace.is_finite:
        return LassoTrace(tuple(merge(prefix_img, None)), ())
    loop_img = [phi.apply(s) for s in trace.loop]
    if all(s == loop_img[0] for s in loop_img):
        return LassoTrace(tuple(merge(prefix_img + [loop_img[0]], None)), ())
    head = merge(prefix_img + loop_img, None)
    body = merge(loop_img, loop_img[-1])
    return canonicalize(LassoTrace(tuple(head), tuple(body)))


def test_abstract_trace_matches_the_three_branch_rule():
    rng = random.Random(2027)
    kinds = {"finite": 0, "collapsed": 0, "cycle": 0}
    for model, phi in _instances():
        graph = build_state_graph(model, ASYNC)
        traces = set(sync_traces(model))
        if trace_set_is_finite(graph):
            traces |= async_traces(model, graph)
        # Lassos that are not canonical: repeated states, a loop that
        # repeats a shorter word, and a prefix that ends in the loop.
        states = list(iter_states(model))
        for _ in range(20):
            loop = rng.choices(states, k=rng.randint(0, 4)) * rng.randint(1, 2)
            prefix = rng.choices(states, k=rng.randint(0, 3)) + loop[-1:] * rng.randint(0, 2)
            if prefix or loop:
                traces.add(LassoTrace(tuple(prefix), tuple(loop)))
        for t in traces:
            assert abstract_trace(phi, t) == _three_branch_abstract_trace(phi, t)
            if t.is_finite:
                kinds["finite"] += 1
            else:
                kinds["collapsed" if len(set(map(phi.apply, t.loop))) == 1 else "cycle"] += 1
    assert min(kinds.values()) > 100
