import copy
import gc
import itertools
import random
import re
import weakref

import pytest

from mvnabs import (
    ASYNC,
    AbstractionMapping,
    ClassTooLargeError,
    Entity,
    GammaOutOfClassError,
    MappingMismatchError,
    Mvn,
    Neighbourhood,
    NextStateTable,
    NotClosedError,
    StateMapping,
    StepTerm,
    StepTermFamily,
    all_step_terms,
    build_state_graph,
    check_asyn_abs,
    concrete_class,
    consec_closure,
    enumerate_candidates,
    forward_holds,
    make_step_term,
    parse_mapping,
    parse_model,
    state_space_size,
    witness_path,
)
from mvnabs import checker
from mvnabs.checker import CheckStats, FailureWitness, Removal, _Context
from mvnabs.oracle import random_instance


# Regression pair: the abstraction holds by trace inclusion, but the
# derived successor set for the abstract step 11 -> 10 also contains a
# concrete state (20) whose class escapes.  Only the realisation through
# concrete 10 matters, so the pruning must accept sub-realisations.
SUBSET_MV1 = """\
mvn A
entity X0 : 0..1
entity X1 : 0..1
neighbourhood X0 = [X0, X1]
neighbourhood X1 = [X0, X1]
table X0:
  0 0 -> 0
  0 1 -> 0
  1 0 -> 1
  1 1 -> 1
table X1:
  0 0 -> 0
  0 1 -> 1
  1 0 -> 0
  1 1 -> 0
"""

SUBSET_MV2 = """\
mvn C
entity X0 : 0..2
entity X1 : 0..1
neighbourhood X0 = [X0, X1]
neighbourhood X1 = [X0, X1]
table X0:
  0 0 -> 0
  0 1 -> 0
  1 0 -> 1
  1 1 -> 2
  2 0 -> 0
  2 1 -> 2
table X1:
  0 0 -> 0
  0 1 -> 1
  1 0 -> 0
  1 1 -> 0
  2 0 -> 0
  2 1 -> 0
"""

# Regression pair: concrete 21 realises the abstract point attractor 21
# by settling at the dead end 20 inside its image class, even though the
# class also has an escape route through 21 -> 01.
SETTLE_MV1 = """\
mvn A
entity X0 : 0..2
entity X1 : 0..1
neighbourhood X0 = [X1]
neighbourhood X1 = [X1]
table X0:
  0 -> 2
  1 -> 2
table X1:
  0 -> 1
  1 -> 1
"""

SETTLE_MV2 = """\
mvn C
entity X0 : 0..2
entity X1 : 0..2
neighbourhood X0 = [X1]
neighbourhood X1 = [X1]
table X0:
  0 -> 2
  1 -> 0
  2 -> 2
table X1:
  0 -> 0
  1 -> 0
  2 -> 1
"""


def test_concrete_class_examples(rho_cro, phi_trp):
    assert concrete_class(rho_cro, (0, 1)) == {(0, 1), (0, 2)}
    assert concrete_class(rho_cro, (1, 0)) == {(1, 0)}
    # identity components always give singletons
    assert concrete_class(phi_trp, (0, 0, 0, 0)) == {(0, 0, 0, 0)}
    assert concrete_class(phi_trp, (0, 0, 1, 1)) == {
        (0, 0, 1, 1), (0, 0, 1, 2), (0, 0, 2, 1), (0, 0, 2, 2)
    }


def test_concrete_class_rejects_foreign_states(rho_cro):
    # The abstract Cro range is 0..1, levels are ints, and a state is a sequence.
    states = ((0, 2), (0.5, 0), (0, 1.0), ("0", 1), (0,), (True, False), (True, 0), None, 5)
    for state in states:
        with pytest.raises(ValueError, match="outside the state space|does not have 2 levels"):
            concrete_class(rho_cro, state)


def test_consec_closure_examples(pl2, rho_cro):
    assert consec_closure(pl2, rho_cro, (0, 1)) == {(0, 1), (0, 2)}
    assert consec_closure(pl2, rho_cro, (0, 0)) == {(0, 0)}
    assert consec_closure(pl2, rho_cro, (1, 0)) == {(1, 0)}


def test_consec_closure_rejects_foreign_mapping(pl2, phi_trp):
    with pytest.raises(MappingMismatchError):
        consec_closure(pl2, phi_trp, (0, 1))


def test_step_term_for_initial_state(apl2, pl2, rho_cro):
    term = make_step_term(apl2, pl2, rho_cro, (0, 0), {(0, 0)})
    assert term.valid
    assert dict(term.successors) == {
        (0, 1): frozenset({(0, 1)}),
        (1, 0): frozenset({(1, 0)}),
    }


def test_step_term_point_attractor(apl2, pl2, rho_cro):
    term = make_step_term(apl2, pl2, rho_cro, (1, 0), {(1, 0)})
    assert term.valid and term.successors == ()


def test_step_term_collapsed_cycle_settles(apl2, pl2, rho_cro):
    # 01 is a point attractor of the abstract model; its concrete class
    # {01, 02} cycles inside one image class, which counts as settled.
    term = make_step_term(apl2, pl2, rho_cro, (0, 1), {(0, 1)})
    assert term.valid
    term = make_step_term(apl2, pl2, rho_cro, (0, 1), {(0, 1), (0, 2)})
    assert term.valid


def test_step_term_invalid_when_member_cannot_settle():
    mv1 = parse_model(SUBSET_MV1)
    mv2 = parse_model(SUBSET_MV2)
    phi = parse_mapping("X0: 0->0,1->1,2->1\nX1: identity", mv2)
    # concrete 20's only move leaves its image class, so it cannot model
    # the abstract point attractor 10
    term = make_step_term(mv1, mv2, phi, (1, 0), {(1, 0), (2, 0)})
    assert not term.valid and "leaves its image class" in term.invalid_reason
    assert make_step_term(mv1, mv2, phi, (1, 0), {(1, 0)}).valid


def test_step_term_valid_when_member_settles_at_dead_end():
    mv2 = parse_model(SETTLE_MV2)
    mv1 = parse_model(SETTLE_MV1)
    import warnings

    from mvnabs import NonMonotoneMappingWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneMappingWarning)
        phi = parse_mapping("X0: identity\nX1: 0->1,1->1,2->0", mv2)
    # concrete 21 can escape (via 01's image) but can also settle at the
    # dead end 20 without leaving its image class
    term = make_step_term(mv1, mv2, phi, (2, 1), {(2, 1)})
    assert term.valid


def test_sub_realisation_regression_pairs_hold():
    import warnings

    from mvnabs import NonMonotoneMappingWarning, oracle_check

    mv1 = parse_model(SUBSET_MV1)
    mv2 = parse_model(SUBSET_MV2)
    phi = parse_mapping("X0: 0->0,1->1,2->1\nX1: identity", mv2)
    assert oracle_check(mv1, mv2, phi) is True
    assert check_asyn_abs(mv1, mv2, phi).holds is True

    mv1 = parse_model(SETTLE_MV1)
    mv2 = parse_model(SETTLE_MV2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneMappingWarning)
        phi = parse_mapping("X0: identity\nX1: 0->1,1->1,2->0", mv2)
    assert oracle_check(mv1, mv2, phi) is True
    assert check_asyn_abs(mv1, mv2, phi).holds is True


def test_step_term_gamma_must_be_in_class(apl2, pl2, rho_cro):
    with pytest.raises(GammaOutOfClassError):
        make_step_term(apl2, pl2, rho_cro, (0, 0), {(1, 0)})
    with pytest.raises(GammaOutOfClassError):
        make_step_term(apl2, pl2, rho_cro, (0, 0), set())
    with pytest.raises(GammaOutOfClassError, match=r"^\['x', \(0, 0\)\] is not"):
        make_step_term(apl2, pl2, rho_cro, (0, 0), {(0, 0), "x"})
    # states as lists, as read from JSON: unhashable members
    with pytest.raises(GammaOutOfClassError, match=r"^\[\[0, 0\]\] is not a nonempty subset"):
        make_step_term(apl2, pl2, rho_cro, (0, 0), [[0, 0]])


def test_all_step_terms_enumerates_subsets(apl2, pl2, rho_cro):
    terms = all_step_terms(apl2, pl2, rho_cro, (0, 1))
    assert {t.gamma for t in terms} == {
        frozenset({(0, 1)}),
        frozenset({(0, 2)}),
        frozenset({(0, 1), (0, 2)}),
    }
    assert all(t.valid for t in terms)


def test_all_step_terms_singleton_class(apl2, pl2, rho_cro):
    terms = all_step_terms(apl2, pl2, rho_cro, (0, 0))
    assert len(terms) == 1 and terms[0].gamma == frozenset({(0, 0)})


def test_all_step_terms_mtrp_point_attractor(mtrp, atrp, phi_trp):
    terms = all_step_terms(atrp, mtrp, phi_trp, (0, 0, 1, 1))
    gammas = {t.gamma for t in terms}
    assert frozenset({(0, 0, 1, 1)}) in gammas


def _reference_terms(mv1, mv2, phi):
    """Every step term of every abstract state, straight from the definitions.

    Yields ``(state, gamma, successors, reason)`` for each nonempty
    subset of each class, by size and then lexicographically;
    ``reason`` is None for a valid term.
    """
    g1 = build_state_graph(mv1, ASYNC)
    g2 = build_state_graph(mv2, ASYNC)
    closure = {u: consec_closure(mv2, phi, u) for u in g2.nodes}

    def settles(g):
        # a dead end, or a step u -> v inside the closure that v can
        # undo by same-image steps (closure[v] is what v reaches)
        members = closure[g]
        return any(not g2.succ[u] for u in members) or any(
            u in closure[v] for u in members for v in g2.succ[u] if v in members
        )

    for state in g1.nodes:
        klass = sorted(concrete_class(phi, state))
        for r in range(1, len(klass) + 1):
            for combo in itertools.combinations(klass, r):
                successors = []
                reason = None
                for s_i in g1.succ[state]:
                    t = frozenset(
                        v
                        for g in combo
                        for u in closure[g]
                        for v in g2.succ[u]
                        if phi.apply(v) == s_i
                    )
                    successors.append((s_i, t))
                    if not t and reason is None:
                        reason = f"no concrete step realises {state} -> {s_i}"
                stuck = [g for g in combo if not settles(g)]
                if not g1.succ[state] and stuck and reason is None:
                    reason = (
                        f"{state} is a point attractor but every maximal run "
                        f"from {stuck[0]} leaves its image class"
                    )
                yield state, frozenset(combo), tuple(successors), reason


def test_all_step_terms_match_definition(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    rng = random.Random(20240611)
    instances = [(apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)]
    instances += [random_instance(rng) for _ in range(60)]
    invalid_checked = 0
    for mv1, mv2, phi in instances:
        expected = {}
        for state, gamma, successors, reason in _reference_terms(mv1, mv2, phi):
            expected.setdefault(state, []).append((gamma, successors, reason))
        for state, refs in expected.items():
            got = all_step_terms(mv1, mv2, phi, state)
            # in the sweep order: the gammas' ascending member lists
            assert [(t.gamma, t.successors) for t in got] == sorted(
                (
                    (gamma, successors) for gamma, successors, reason in refs
                    if reason is None
                ),
                key=lambda item: sorted(item[0]),
            )
            assert all(t.valid and t.invalid_reason is None for t in got)
            invalid = [(gamma, reason) for gamma, _, reason in refs if reason]
            # the smallest and the largest invalid subsets; the largest
            # can hold several members that fail, and only the first counts
            for gamma, reason in invalid[:1] + invalid[1:][-1:]:
                term = make_step_term(mv1, mv2, phi, state, gamma)
                assert not term.valid and term.invalid_reason == reason
                invalid_checked += 1
    assert invalid_checked > 0


def test_check_holds_on_lambda_fixture(apl2, pl2, rho_cro):
    result = check_asyn_abs(apl2, pl2, rho_cro)
    assert result.holds
    assert result.family is not None and result.witness is None
    assert result.stats.surviving_terms == {
        (0, 0): 1, (0, 1): 3, (1, 0): 1, (1, 1): 3
    }
    result.family.check_closed()


def test_holding_family_reads_as_a_dict(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    for mv1, mv2, phi in ((apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)):
        terms = check_asyn_abs(mv1, mv2, phi).family.terms
        assert len(terms) == state_space_size(mv1)
        assert repr(terms) == repr(dict(terms))


def test_check_refutes_mutated_fixture(apl2_bad, pl2, rho_cro):
    result = check_asyn_abs(apl2_bad, pl2, rho_cro)
    assert not result.holds
    assert result.family is None
    assert result.witness.state == (0, 1)
    assert "no valid step term" in result.witness.reason


def test_removal_chain_recorded(mtrp, phi_trp):
    from mvnabs import enumerate_candidates

    cands = enumerate_candidates(mtrp, phi_trp)
    refuted = [
        check_asyn_abs(c, mtrp, phi_trp)
        for c in cands.models
        if not check_asyn_abs(c, mtrp, phi_trp).holds
    ]
    assert refuted
    pruned = [r for r in refuted if r.witness.removals]
    assert pruned, "at least one refutation should happen during pruning"
    r = pruned[0].witness.removals[0]
    assert phi_trp.apply(next(iter(r.missing_gamma))) == r.failed_successor


def test_iteration_bound(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    for mv1, mv2, phi in [(apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)]:
        result = check_asyn_abs(mv1, mv2, phi)
        assert result.stats.iterations <= result.stats.initial_terms + 1


def test_order_independence_on_random_instances():
    rng = random.Random(7)
    for _ in range(100):
        mv1, mv2, phi = random_instance(rng)
        base = check_asyn_abs(mv1, mv2, phi)
        terms = {s: all_step_terms(mv1, mv2, phi, s) for s in build_state_graph(mv1, ASYNC).nodes}
        snapshots = []
        for seed in (11, 22, 33):
            holds, stats, _, family = _reference_sweep(phi, terms, random.Random(seed))
            assert holds == base.holds
            assert stats.iterations <= stats.initial_terms + 1
            if base.holds:
                snapshots.append({s: set(dict(items)) for s, items in family})
        if base.holds:
            expected = {s: set(v) for s, v in base.family.terms.items()}
            assert all(snap == expected for snap in snapshots)


def _renumbered(model, order):
    """``model`` with old entity ``order[k]`` as entity ``k``: entities,
    neighbourhoods (their input indices too) and tables move together."""
    new = {old: k for k, old in enumerate(order)}
    return Mvn(
        model.name,
        tuple(model.entities[old] for old in order),
        tuple(
            Neighbourhood(k, tuple(new[j] for j in model.neighbourhoods[old].inputs))
            for k, old in enumerate(order)
        ),
        tuple(NextStateTable(k, model.tables[old].rows) for k, old in enumerate(order)),
    )


def test_entity_permutation_keeps_the_verdicts(apl2, pl2, rho_cro, mtrp, phi_trp):
    triples = [(apl2, pl2, rho_cro)]
    triples += [(c, mtrp, phi_trp) for c in enumerate_candidates(mtrp, phi_trp).models]
    rng = random.Random(3)
    triples += [random_instance(rng) for _ in range(400)]
    order_rng = random.Random(4)
    holding = 0
    for mv1, mv2, phi in triples:
        order = list(range(len(mv2.entities)))
        while order == sorted(order):
            order_rng.shuffle(order)
        slots = tuple(
            None if phi.slots[old] is None else StateMapping(k, phi.slots[old].table)
            for k, old in enumerate(order)
        )
        renumbered = (
            _renumbered(mv1, order),
            _renumbered(mv2, order),
            AbstractionMapping(tuple(phi.source_max_levels[old] for old in order), slots),
        )
        base, other = check_asyn_abs(mv1, mv2, phi), check_asyn_abs(*renumbered)
        assert other.holds == base.holds
        assert other.stats.initial_terms == base.stats.initial_terms
        assert forward_holds(*renumbered) == forward_holds(mv1, mv2, phi)
        if base.holds:
            # The sweeps visit states and gammas in one order, which the
            # renumbering changes; the surviving family must not change.
            def moved(state):
                return tuple(state[old] for old in order)

            assert {
                moved(s): {frozenset(map(moved, gamma)) for gamma in v}
                for s, v in base.family.terms.items()
            } == {s: set(v) for s, v in other.family.terms.items()}
            holding += 1
    assert holding > 100


def test_class_size_guard():
    lines_x = "\n".join(f"  {v} -> {v}" for v in range(10))
    model = parse_model(
        "mvn Wide\nentity X : 0..9\nentity Y : 0..9\n"
        "neighbourhood X = [X]\nneighbourhood Y = [Y]\n"
        f"table X:\n{lines_x}\ntable Y:\n{lines_x}\n"
    )
    abstract = parse_model(
        "mvn W2\nentity X : 0..1\nentity Y : 0..1\n"
        "neighbourhood X = [X]\nneighbourhood Y = [Y]\n"
        "table X:\n  0 -> 0\n  1 -> 1\ntable Y:\n  0 -> 0\n  1 -> 1\n"
    )
    mapping = "X: 0->0," + ",".join(f"{v}->1" for v in range(1, 10)) + "\n" \
        + "Y: 0->0," + ",".join(f"{v}->1" for v in range(1, 10))
    phi = parse_mapping(mapping, model)
    with pytest.raises(ClassTooLargeError):
        check_asyn_abs(abstract, model, phi)


def test_forward_holds_matches_checker(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    from mvnabs import UnsupportedError, oracle_check

    triples = [(apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)]
    triples += [(c, mtrp, phi_trp) for c in enumerate_candidates(mtrp, phi_trp).models]
    rng = random.Random(2006)
    triples += [random_instance(rng) for _ in range(300)]
    verdicts, unsupported = set(), 0
    for mv1, mv2, phi in triples:
        verdict = check_asyn_abs(mv1, mv2, phi).holds
        assert forward_holds(mv1, mv2, phi) == verdict
        verdicts.add(verdict)
        try:
            oracle_check(mv1, mv2, phi)
        except UnsupportedError:
            unsupported += 1
    assert verdicts == {True, False}
    assert unsupported > 0


def _merged_image(phi, path):
    out = []
    for s in path:
        img = phi.apply(s)
        if not out or out[-1] != img:
            out.append(img)
    return tuple(out)


def test_witness_path_direct_edge(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    assert witness_path(family, ((0, 0), (0, 1))) == ((0, 0), (0, 1))


def test_witness_path_second_edge(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    path = witness_path(family, ((1, 1), (0, 1)))
    assert _merged_image(rho_cro, path) == ((1, 1), (0, 1))


def test_witness_path_single_state(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    path = witness_path(family, ((0, 1),))
    assert len(path) == 1
    assert rho_cro.apply(path[0]) == (0, 1)


def test_witness_path_covers_all_fixture_edges(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    from mvnabs import ASYNC, build_state_graph

    for mv1, mv2, phi in [(apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)]:
        family = check_asyn_abs(mv1, mv2, phi).family
        g1 = build_state_graph(mv1, ASYNC)
        g2 = build_state_graph(mv2, ASYNC)
        for u, v in g1.edges():
            path = witness_path(family, (u, v))
            for a, b in zip(path, path[1:]):
                assert b in g2.succ[a]
            assert _merged_image(phi, path) == (u, v)


def test_witness_path_around_full_cycle(atrp, mtrp, phi_trp):
    from mvnabs import ASYNC, build_state_graph

    family = check_asyn_abs(atrp, mtrp, phi_trp).family
    cycle = (
        (0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0)
    )
    path = witness_path(family, cycle)
    g2 = build_state_graph(mtrp, ASYNC)
    for a, b in zip(path, path[1:]):
        assert b in g2.succ[a]
    assert _merged_image(phi_trp, path) == cycle


def test_witness_path_lifts_random_instances():
    # Bridges must stay inside their image class: one that leaves it
    # shows up as an extra state in the merged image.
    rng = random.Random(61)
    lifted = 0
    for _ in range(300):
        mv1, mv2, phi = random_instance(rng)
        result = check_asyn_abs(mv1, mv2, phi)
        if not result.holds:
            continue
        g2 = build_state_graph(mv2, ASYNC)
        for u, v in build_state_graph(mv1, ASYNC).edges():
            path = witness_path(result.family, (u, v))
            assert all(b in g2.succ[a] for a, b in zip(path, path[1:]))
            assert _merged_image(phi, path) == (u, v)
            lifted += 1
    assert lifted > 900


def test_witness_path_rejects_non_paths(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    with pytest.raises(ValueError):
        witness_path(family, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        witness_path(family, ())
    with pytest.raises(ValueError):
        witness_path(family, ((5, 5),))
    with pytest.raises(ValueError):
        witness_path(family, ((0, 0, 0),))


def test_witness_path_requires_closed_family(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    crippled = {s: dict(v) for s, v in family.terms.items()}
    del crippled[(0, 1)][frozenset({(0, 1)})]
    broken = StepTermFamily(family.mv1, family.mv2, family.phi, crippled)
    with pytest.raises(NotClosedError):
        witness_path(broken, ((0, 0), (0, 1)))
    crippled[(0, 1)].clear()
    with pytest.raises(NotClosedError):
        witness_path(
            StepTermFamily(family.mv1, family.mv2, family.phi, crippled),
            ((0, 0), (0, 1)),
        )


def test_check_closed_rejects_successor_missing_from_family(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    family.check_closed()
    # (0, 0) -> (0, 1) is an abstract step, and (0, 1) has no key at all.
    partial = {s: v for s, v in family.terms.items() if s != (0, 1)}
    with pytest.raises(NotClosedError, match=r"realisation of \(0, 1\)"):
        StepTermFamily(family.mv1, family.mv2, family.phi, partial).check_closed()


def test_check_closed_rejects_an_empty_family(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    emptied = dict(family.terms)
    # The first state read, so no other state's term reaches it first.
    assert next(iter(emptied)) == (0, 0)
    emptied[(0, 0)] = {}
    with pytest.raises(NotClosedError, match=r"no step terms left for abstract state \(0, 0\)"):
        StepTermFamily(family.mv1, family.mv2, family.phi, emptied).check_closed()


def test_empty_family_is_not_closed(apl2, pl2, rho_cro):
    # No key at all counts as an empty set, for the first state walked.
    empty = StepTermFamily(apl2, pl2, rho_cro, {})
    message = r"no step terms left for abstract state \(0, 0\)"
    with pytest.raises(NotClosedError, match=message):
        empty.check_closed()
    with pytest.raises(NotClosedError, match=message):
        witness_path(empty, ((0, 0),))


def test_witness_path_may_fail_on_a_family_that_passes_check_closed(mtrp, phi_trp):
    # On a refuted candidate, a made-up family of whole classes, with
    # whole classes as stored successor sets: check_closed derives the
    # sets from the models and refuses it, so witness_path raises
    # NotClosedError before its search.
    mv1 = enumerate_candidates(mtrp, phi_trp).models[2]
    assert not check_asyn_abs(mv1, mtrp, phi_trp).holds
    g1 = build_state_graph(mv1, ASYNC)
    terms = {}
    for state in g1.nodes:
        gamma = concrete_class(phi_trp, state)
        successors = tuple(
            (s_i, concrete_class(phi_trp, s_i)) for s_i in sorted(g1.succ[state]) if s_i != state
        )
        terms[state] = {gamma: StepTerm(state, gamma, successors, True)}
    made_up = StepTermFamily(mv1, mtrp, phi_trp, terms)
    path = ((1, 0, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1))
    with pytest.raises(NotClosedError):
        witness_path(made_up, path)


def test_check_closed_rebuilds_the_terms_it_tests(mtrp, phi_trp):
    # A made-up family of whole classes, stored as valid with the whole
    # successor classes as successor sets, on each refuted candidate.
    point = r"^\(0, 0, 0, 1\) is a point attractor but every maximal run from \(0, 0, 0, 1\)"
    missing = r"needs a realisation of \(0, 1, 0, 1\) inside \[\(0, 1, 0, 2\)\]"
    candidates = enumerate_candidates(mtrp, phi_trp).models[1:]
    for mv1, message in zip(candidates, (point, missing, missing)):
        assert not check_asyn_abs(mv1, mtrp, phi_trp).holds
        g1 = build_state_graph(mv1, ASYNC)
        terms = {}
        for state in g1.nodes:
            gamma = concrete_class(phi_trp, state)
            successors = tuple((s_i, concrete_class(phi_trp, s_i)) for s_i in g1.succ[state])
            terms[state] = {gamma: StepTerm(state, gamma, successors, True)}
        with pytest.raises(NotClosedError, match=message):
            StepTermFamily(mv1, mtrp, phi_trp, terms).check_closed()


def test_check_closed_rejects_a_gamma_outside_its_class(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    terms = {s: dict(v) for s, v in family.terms.items()}
    # (1, 0) is in the class of (1, 0), not of (1, 1)
    terms[(1, 1)][frozenset({(1, 0)})] = terms[(1, 0)][frozenset({(1, 0)})]
    with pytest.raises(GammaOutOfClassError, match=r"^\[\(1, 0\)\] is not .* class of \(1, 1\)"):
        StepTermFamily(apl2, pl2, rho_cro, terms).check_closed()


def test_a_gamma_is_read_once(apl2, pl2, rho_cro):
    # A one-shot iterator as a gamma: the mask and the message both see
    # its members, through the one gamma rule that both callers share.
    message = r"^\[\(1, 0\)\] is not a nonempty subset of the class of \(1, 1\)$"
    with pytest.raises(GammaOutOfClassError, match=message):
        make_step_term(apl2, pl2, rho_cro, (1, 1), (s for s in [(1, 0)]))
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    terms = {s: dict(v) for s, v in family.terms.items()}
    terms[(1, 1)] = {(s for s in [(1, 0)]): None}
    with pytest.raises(GammaOutOfClassError, match=message):
        StepTermFamily(apl2, pl2, rho_cro, terms).check_closed()
    # An iterator over a gamma's members is that gamma.
    gamma = concrete_class(rho_cro, (1, 1))
    assert make_step_term(apl2, pl2, rho_cro, (1, 1), iter(gamma)) == make_step_term(
        apl2, pl2, rho_cro, (1, 1), gamma
    )
    terms = {s: {iter(g): t for g, t in v.items()} for s, v in family.terms.items()}
    StepTermFamily(apl2, pl2, rho_cro, terms).check_closed()


def test_check_closed_rejects_keys_that_are_not_abstract_states(apl2, pl2, rho_cro):
    terms = dict(check_asyn_abs(apl2, pl2, rho_cro).family.terms)
    for key, message in (((9, 9), "outside the state space"), ("junk", "does not have 2 levels")):
        with pytest.raises(ValueError, match=message):
            StepTermFamily(apl2, pl2, rho_cro, {**terms, key: {}}).check_closed()


def test_witness_path_accepts_states_as_lists(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    assert witness_path(family, ([1, 1], [0, 1])) == witness_path(family, ((1, 1), (0, 1)))


def test_check_closed_builds_no_step_term(monkeypatch, apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    built = []

    class CountingStepTerm(StepTerm):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    # read before counting: a family from the check builds its terms then
    families = [
        StepTermFamily(mv1, mv2, phi, dict(check_asyn_abs(mv1, mv2, phi).family.terms))
        for mv1, mv2, phi in ((apl2, pl2, rho_cro), (atrp, mtrp, phi_trp))
    ]
    monkeypatch.setattr(checker, "StepTerm", CountingStepTerm)
    for family in families:
        family.check_closed()
    assert built == []


def _reference_closed(family):
    """``check_closed`` by the frozenset rule: ``make_step_term`` for
    every gamma, then ``any(u.gamma <= t)`` as the closure test."""
    mv1, mv2, phi = family.mv1, family.mv2, family.phi
    terms = {
        state: [make_step_term(mv1, mv2, phi, state, gamma) for gamma in gammas]
        for state, gammas in family.terms.items()
    }
    for state in build_state_graph(mv1, ASYNC).nodes:
        if not terms.get(state):
            raise NotClosedError(f"no step terms left for abstract state {state}")
        for term in terms[state]:
            if not term.valid:
                raise NotClosedError(term.invalid_reason)
            for s_i, t in term.successors:
                if not any(u.gamma <= t for u in terms.get(s_i, ())):
                    raise NotClosedError(
                        f"term for {state} needs a realisation of {s_i} "
                        f"inside {sorted(t)}, and the family has none"
                    )


def test_check_closed_matches_reference_closed():
    def outcome(check, family):
        try:
            check(family)
        except (NotClosedError, GammaOutOfClassError) as error:
            return type(error), str(error)
        return None

    rng = random.Random(17)
    kinds, mutated = set(), 0
    while mutated < 240:
        mv1, mv2, phi = random_instance(rng)
        result = check_asyn_abs(mv1, mv2, phi)
        if not result.holds:
            continue
        base = {s: dict(v) for s, v in result.family.terms.items()}
        states = list(base)
        for kind in ("drop", "whole class", "empty", "move"):
            terms = {s: dict(v) for s, v in base.items()}
            state = rng.choice(states)
            if kind == "drop":
                del terms[state][rng.choice(list(terms[state]))]
            elif kind == "whole class":
                # stored terms are never read, so the value can be anything
                terms[state][concrete_class(phi, state)] = None
            elif kind == "empty":
                terms[state] = {}
            else:
                gamma = rng.choice(list(terms[state]))
                del terms[state][gamma]
                terms[rng.choice([s for s in states if s != state])][gamma] = None
            family = StepTermFamily(mv1, mv2, phi, terms)
            got = outcome(StepTermFamily.check_closed, family)
            expected = outcome(_reference_closed, family)
            assert got == expected, kind
            if kind == "move":
                assert got[0] is GammaOutOfClassError
            kinds.add((kind, got and got[0]))
            mutated += 1
    assert {("drop", NotClosedError), ("drop", None), ("whole class", None)} <= kinds
    assert {("whole class", NotClosedError), ("empty", NotClosedError)} <= kinds


def test_check_closed_names_the_first_bad_term(atrp, mtrp, phi_trp):
    family = check_asyn_abs(atrp, mtrp, phi_trp).family
    state = (0, 1, 1, 1)
    # Valid, but pruned by the check: its set for (0, 0, 1, 1) holds no gamma.
    unrealised = frozenset({(0, 1, 2, 1)})
    # No concrete step realises (0, 1, 1, 1) -> (0, 0, 1, 1) from it.
    invalid = frozenset({(0, 1, 2, 2)})
    for bad, message in (
        (
            (unrealised, invalid),
            "term for (0, 1, 1, 1) needs a realisation of (0, 0, 1, 1) "
            "inside [(0, 0, 2, 1)], and the family has none",
        ),
        ((invalid, unrealised), "no concrete step realises (0, 1, 1, 1) -> (0, 0, 1, 1)"),
    ):
        terms = {s: list(gammas) for s, gammas in family.terms.items()}
        terms[state] += bad
        broken = StepTermFamily(atrp, mtrp, phi_trp, terms)
        with pytest.raises(NotClosedError) as raised:
            broken.check_closed()
        assert str(raised.value) == message
        with pytest.raises(NotClosedError, match=re.escape(message)):
            _reference_closed(broken)


def test_witness_path_reads_the_graphs_of_its_check(monkeypatch, apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    calls = []

    def recording(function):
        def record(*args):
            calls.append(function.__name__)
            return function(*args)
        return record

    monkeypatch.setattr(checker, "build_state_graph", recording(build_state_graph))
    monkeypatch.setattr(checker, "image_index", recording(checker.image_index))
    assert witness_path(family, ((1, 1), (0, 1)))
    assert sorted(calls) == ["build_state_graph", "build_state_graph", "image_index"]


def _reference_sweep(phi, terms, sweep_rng=None):
    """The sweep of ``check_asyn_abs`` written on frozensets: gammas
    sorted as state lists and subset tests between state sets.

    ``terms`` maps each abstract state to its ``all_step_terms`` list.
    Returns ``(holds, stats, witness, family items)``.
    """
    family = {s: {t.gamma: t for t in ts} for s, ts in terms.items()}
    initial = sum(len(v) for v in family.values())
    max_class = max(len(concrete_class(phi, s)) for s in family)
    removals = []

    def outcome(holds, state, reason, iterations):
        stats = CheckStats(
            abstract_states=len(family),
            max_class_size=max_class,
            initial_terms=initial,
            removed_terms=len(removals),
            iterations=iterations,
            surviving_terms={s: len(v) for s, v in family.items()},
        )
        if holds:
            return True, stats, None, [(s, list(v.items())) for s, v in family.items()]
        return False, stats, FailureWitness(state, reason, tuple(removals)), None

    def realizable(by_gamma, derived):
        return derived in by_gamma or any(gamma <= derived for gamma in by_gamma)

    for state in family:
        if not family[state]:
            return outcome(False, state, "no valid step term realises this state", 0)
    iterations = 0
    while True:
        iterations += 1
        removed = False
        states = list(family)
        if sweep_rng is not None:
            sweep_rng.shuffle(states)
        for state in states:
            gammas = sorted(family[state], key=sorted)
            if sweep_rng is not None:
                sweep_rng.shuffle(gammas)
            for gamma in gammas:
                for s_i, t in family[state][gamma].successors:
                    if not realizable(family[s_i], t):
                        del family[state][gamma]
                        removals.append(Removal(state, gamma, s_i, t))
                        removed = True
                        break
            if not family[state]:
                return outcome(
                    False, state, "all step terms for this state were pruned", iterations
                )
        if not removed:
            return outcome(True, None, None, iterations)


def _all_compressed_triple(rng, n=4, noise=0.1):
    """n ternary entities of fan-in 2, all compressed by 0->0,1->1,2->1.

    Concrete outputs respect one abstract table except for a ``noise``
    share drawn freely, so candidates stay few (one at noise 0); the
    abstract model is one of them.  Classes have up to 2^n states.
    """
    pre = [[0], [1, 2]]
    inputs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)]
    tables = []
    for i in range(n):
        rows = {}
        for u in itertools.product(range(2), repeat=2):
            target = pre[rng.randrange(2)]
            for x in itertools.product(pre[u[0]], pre[u[1]]):
                rows[x] = rng.choice(target) if rng.random() >= noise else rng.randrange(3)
        tables.append(NextStateTable(i, rows))
    mv2 = Mvn(
        "Q",
        tuple(Entity(f"X{i}", 2) for i in range(n)),
        tuple(Neighbourhood(i, inputs[i]) for i in range(n)),
        tuple(tables),
    )
    phi = AbstractionMapping(mv2.max_levels, tuple(StateMapping(i, (0, 1, 1)) for i in range(n)))
    return rng.choice(enumerate_candidates(mv2, phi).models), mv2, phi


def test_valid_subsets_in_sorted_gamma_order(apl2, apl2_bad, pl2, rho_cro, atrp, mtrp, phi_trp):
    triples = [(apl2, pl2, rho_cro), (apl2_bad, pl2, rho_cro), (atrp, mtrp, phi_trp)]
    rng = random.Random(31)
    triples += [random_instance(rng) for _ in range(60)]
    triples += [_all_compressed_triple(random.Random(seed)) for seed in (33, 13, 14)]
    largest = 0
    for mv1, mv2, phi in triples:
        ctx = _Context(mv1, mv2, phi)
        for a, klass in enumerate(ctx.members):
            layout = ctx.layouts[a]
            got = ctx.valid_subsets(a)
            positions = range(len(klass))
            members = [[j for j in positions if mask >> j & 1] for mask in got]
            assert members == sorted(members)
            expected = {}
            for r in range(1, len(klass) + 1):
                for combo in itertools.combinations(positions, r):
                    mask = sum(1 << j for j in combo)
                    packed = checker._derived(layout, mask)
                    if (
                        (packed + layout.fill) & layout.guards == layout.guards
                        and not mask & layout.unsettleable
                    ):
                        expected[mask] = packed
            assert got == expected
            largest = max(largest, len(got))
    assert largest > 10_000


def test_mask_sweep_matches_reference_sweep(apl2, apl2_bad, pl2, rho_cro, atrp, mtrp, phi_trp):
    triples = [(apl2, pl2, rho_cro), (apl2_bad, pl2, rho_cro), (atrp, mtrp, phi_trp)]
    triples += [(c, mtrp, phi_trp) for c in enumerate_candidates(mtrp, phi_trp).models]
    rng = random.Random(909)
    triples += [random_instance(rng) for _ in range(120)]
    # holds, refuted while pruning, refuted at initialisation
    triples += [_all_compressed_triple(random.Random(seed)) for seed in (33, 13, 14)]
    verdicts, removals, classes = set(), 0, 0
    for k, (mv1, mv2, phi) in enumerate(triples):
        ctx = _Context(mv1, mv2, phi)
        terms = {s: all_step_terms(mv1, mv2, phi, s) for s in ctx.g1.nodes}
        result = check_asyn_abs(mv1, mv2, phi)
        family = None
        if result.holds:
            family = [(s, list(v.items())) for s, v in result.family.terms.items()]
        assert (result.holds, result.stats, result.witness, family) == _reference_sweep(phi, terms)
        holds, _, _, shuffled = _reference_sweep(phi, terms, random.Random(k))
        assert holds == result.holds
        if holds:
            assert {s: set(dict(items)) for s, items in shuffled} == {
                s: set(dict(items)) for s, items in family
            }
        verdicts.add(result.holds)
        removals += result.stats.removed_terms
        classes = max(classes, result.stats.max_class_size)
    assert verdicts == {True, False} and removals > 0 and classes == 16


def _full_sweep(mv1, mv2, phi):
    """The sweeps of ``check_asyn_abs`` on its own tables, testing every
    surviving term one at a time on every sweep, with no state skipped.

    Returns ``(holds, stats, witness, surviving masks of each state in
    order)``.
    """
    ctx = _Context(mv1, mv2, phi)
    nodes, subsets = ctx.g1.nodes, ctx._subsets
    alive = [ctx.valid_subsets(a) for a in range(len(nodes))]
    initial = sum(map(len, alive))
    removals = []

    def outcome(holds, a, reason, iterations):
        stats = CheckStats(
            abstract_states=len(nodes),
            max_class_size=max(map(len, ctx.members)),
            initial_terms=initial,
            removed_terms=len(removals),
            iterations=iterations,
            surviving_terms=dict(zip(nodes, map(len, alive))),
        )
        if holds:
            return True, stats, None, [list(survivors) for survivors in alive]
        witness = FailureWitness(nodes[a], reason, tuple(
            Removal(nodes[b], subsets[b][mask], nodes[s_i], subsets[s_i][t])
            for b, mask, s_i, t in removals
        ))
        return False, stats, witness, None

    for a, survivors in enumerate(alive):
        if not survivors:
            return outcome(False, a, "no valid step term realises this state", 0)
    iterations = 0
    while True:
        iterations += 1
        removed = False
        for a, survivors in enumerate(alive):
            for mask in list(survivors):
                for s_i, offset, ones in ctx.layouts[a].slots:
                    t = survivors[mask] >> offset & ones
                    if all(g & ~t for g in alive[s_i]):
                        del survivors[mask]
                        removals.append((a, mask, s_i, t))
                        removed = True
                        break
            if not survivors:
                return outcome(False, a, "all step terms for this state were pruned", iterations)
        if not removed:
            return outcome(True, None, None, iterations)


def test_skipping_sweeps_match_the_full_sweep(apl2, apl2_bad, pl2, rho_cro, mtrp, phi_trp):
    triples = [(apl2, pl2, rho_cro), (apl2_bad, pl2, rho_cro)]
    triples += [(c, mtrp, phi_trp) for c in enumerate_candidates(mtrp, phi_trp).models]
    rng = random.Random(5)
    triples += [random_instance(rng) for _ in range(400)]
    triples += [_all_compressed_triple(random.Random(seed)) for seed in (33, 13, 14, 16)]
    outcomes, iterations = set(), 0
    for mv1, mv2, phi in triples:
        result = check_asyn_abs(mv1, mv2, phi)
        survivors = None
        if result.holds:
            # The surviving masks, read before the family builds any term.
            survivors = [list(masks) for masks in result._pending[1]]
        got = (result.holds, result.stats, result.witness, survivors)
        assert got == _full_sweep(mv1, mv2, phi)
        outcomes.add((result.holds, bool(result.stats.removed_terms)))
        iterations = max(iterations, result.stats.iterations)
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}
    assert iterations >= 3


def test_sweeps_test_a_state_only_after_a_successor_lost_a_term(
    monkeypatch, apl2, pl2, rho_cro, atrp, mtrp, phi_trp
):
    tested = []
    unrealised = checker._unrealised

    def counting(slots, terms, family):
        tested.append(len(terms))
        return unrealised(slots, terms, family)

    monkeypatch.setattr(checker, "_unrealised", counting)
    # Sweeps that test every term test 8, 201 and 195,413 terms here.
    for triple, count in (
        ((apl2, pl2, rho_cro), 0),
        ((atrp, mtrp, phi_trp), 61),
        (_all_compressed_triple(random.Random(16)), 66_363),
    ):
        tested.clear()
        check_asyn_abs(*triple)
        assert sum(tested) == count


def test_step_terms_built_only_for_the_returned_family(
    monkeypatch, apl2, apl2_bad, pl2, rho_cro, atrp, mtrp, phi_trp
):
    built = []

    class CountingStepTerm(StepTerm):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(checker, "StepTerm", CountingStepTerm)
    triples = [(apl2, pl2, rho_cro), (apl2_bad, pl2, rho_cro), (atrp, mtrp, phi_trp)]
    triples += [(c, mtrp, phi_trp) for c in enumerate_candidates(mtrp, phi_trp).models]
    triples += [_all_compressed_triple(random.Random(seed)) for seed in (33, 13, 15)]
    outcomes = set()
    for mv1, mv2, phi in triples:
        built.clear()
        result = check_asyn_abs(mv1, mv2, phi)
        assert built == []
        if result.holds:
            # The first read builds the whole family, the second nothing.
            terms = [t for v in result.family.terms.values() for t in v.values()]
            assert len(built) == sum(result.stats.surviving_terms.values()) > 0
            assert all(type(t) is CountingStepTerm for t in terms)
            built.clear()
            assert [t for v in result.family.terms.values() for t in v.values()] == terms
            assert built == []
        outcomes.add((result.holds, bool(result.witness and result.witness.removals)))
    # holds, refuted at initialisation and refuted while pruning
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_state_sets_built_only_for_removals_and_the_family(
    monkeypatch, apl2, apl2_bad, pl2, rho_cro, atrp, mtrp, phi_trp
):
    built = []

    class CountingSubsets(checker._Subsets):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(checker, "_Subsets", CountingSubsets)
    triples = [(apl2, pl2, rho_cro), (apl2_bad, pl2, rho_cro), (atrp, mtrp, phi_trp)]
    triples += [(c, mtrp, phi_trp) for c in enumerate_candidates(mtrp, phi_trp).models]
    triples += [_all_compressed_triple(random.Random(seed)) for seed in (33, 13, 15)]
    outcomes = set()
    for mv1, mv2, phi in triples:
        built.clear()
        result = check_asyn_abs(mv1, mv2, phi)
        removals = bool(result.witness and result.witness.removals)
        states = state_space_size(mv1)
        # One table per abstract node, built by a refutation with
        # removals, or by the first read of a holding family, and never
        # again.
        assert len(built) == (states if removals else 0)
        if result.holds:
            list(result.family.terms.values())
            assert len(built) == states
            list(result.family.terms.values())
            assert len(built) == states
        outcomes.add((result.holds, removals))
    # holds, refuted at initialisation and refuted while pruning
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_context_lists_each_class_size_once(monkeypatch, atrp, mtrp, phi_trp):
    listed = []
    doubled = checker._doubled

    def counting(values):
        listed.append(values)
        return doubled(values)

    monkeypatch.setattr(checker, "_doubled", counting)
    for mv1, mv2, phi in ((atrp, mtrp, phi_trp), _all_compressed_triple(random.Random(16))):
        ctx = _Context(mv1, mv2, phi)
        sizes = [len(klass) for klass in ctx.members]
        assert len(set(sizes)) < len(sizes)
        posts = [layout.post for layout in ctx.layouts]
        passes = []
        for first in (True, False):
            listed.clear()
            passes.append([ctx.valid_subsets(a) for a in range(len(sizes))])
            # one doubling of derived sets per node, plus the gamma masks
            # of each class size on the first pass only
            gammas = [v for v in listed if not any(v is post for post in posts)]
            assert len(listed) == len(sizes) + len(gammas)
            assert sorted(map(len, gammas)) == (sorted(set(sizes)) if first else [])
        assert passes[0] == passes[1]
        assert ctx._gammas.keys() == set(sizes)


def test_has_submask_matches_scan():
    rng = random.Random(12)
    for _ in range(400):
        width = rng.randrange(1, 11)
        family = dict.fromkeys(
            rng.randrange(1, 1 << width) for _ in range(rng.randrange(1 << width))
        )
        t = rng.randrange(1 << width)
        assert checker._has_submask(family, t) == any(g & ~t == 0 for g in family)


def test_graphs_freed_by_refcount(monkeypatch, apl2, apl2_bad, pl2, rho_cro):
    graphs = []

    def recording_build(*args):
        graph = build_state_graph(*args)
        graphs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(checker, "build_state_graph", recording_build)
    gc.collect()
    gc.disable()
    try:
        graph = build_state_graph(pl2, ASYNC)
        assert graph.succ[(0, 1)] == ((0, 2),)
        graphs.append(weakref.ref(graph))
        del graph
        for mv1 in (apl2, apl2_bad):
            check_asyn_abs(mv1, pl2, rho_cro)
        assert len(graphs) == 5 and all(ref() is None for ref in graphs)
    finally:
        gc.enable()


def test_context_keeps_only_its_documented_fields(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    # No same-image table outlives the sweep; the refcount tests guard the graphs.
    fields = {
        "mv1", "mv2", "phi", "g1", "g2", "image_index", "members", "pos",
        "_gammas", "settles", "layouts",
    }
    for mv1, mv2, phi in ((apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)):
        assert vars(_Context(mv1, mv2, phi)).keys() == fields


def test_removals_built_only_for_a_refutation(monkeypatch, atrp, mtrp, phi_trp):
    built = []

    class CountingRemoval(Removal):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(checker, "Removal", CountingRemoval)
    result = check_asyn_abs(atrp, mtrp, phi_trp)
    assert result.holds and result.stats.removed_terms == 11 and built == []
    result = check_asyn_abs(enumerate_candidates(mtrp, phi_trp).models[2], mtrp, phi_trp)
    assert not result.holds and result.stats.removed_terms == 5
    assert built == list(result.witness.removals) and len(built) == 5
    assert all(type(r) is CountingRemoval for r in built)


def test_holding_results_freed_by_refcount(monkeypatch, apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    graphs = []

    def recording_build(*args):
        graph = build_state_graph(*args)
        graphs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(checker, "build_state_graph", recording_build)
    gc.collect()
    gc.disable()
    try:
        for mv1, mv2, phi in ((apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)):
            # Family never read: it keeps the check's graphs until it goes.
            result = check_asyn_abs(mv1, mv2, phi)
            assert result.holds and all(ref() is not None for ref in graphs[-2:])
            del result
            assert all(ref() is None for ref in graphs)
            # Family read once: the read lets go of the graphs, and so
            # does the context that check_closed builds.
            result = check_asyn_abs(mv1, mv2, phi)
            result.family.check_closed()
            assert all(ref() is None for ref in graphs)
            del result
        assert len(graphs) == 12
    finally:
        gc.enable()


@pytest.fixture
def builds(monkeypatch):
    """Every ``StepTerm`` and ``_Subsets`` the checker builds, in order."""
    built = []

    class CountingStepTerm(StepTerm):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    class CountingSubsets(checker._Subsets):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(checker, "StepTerm", CountingStepTerm)
    monkeypatch.setattr(checker, "_Subsets", CountingSubsets)
    return built


def test_repr_and_eq_of_a_holding_result_build_no_family(
    builds, apl2, pl2, rho_cro, atrp, mtrp, phi_trp
):
    # The family of the seed-16 triple has 64,495 terms; a repr that
    # printed it would be 33.9 MB of text.
    triples = [(apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)]
    for mv1, mv2, phi in triples + [_all_compressed_triple(random.Random(16))]:
        result, again = check_asyn_abs(mv1, mv2, phi), check_asyn_abs(mv1, mv2, phi)
        text = repr(result)
        assert result.holds and result == again and builds == []
        assert text == f"CheckResult(holds=True, witness=None, stats={result.stats!r})"
        assert len(text) < 1000


def test_a_holding_result_builds_its_family_once(builds, atrp, mtrp, phi_trp):
    result = check_asyn_abs(atrp, mtrp, phi_trp)
    assert builds == []
    family = result.family
    terms = [t for t in builds if isinstance(t, StepTerm)]
    assert len(terms) == sum(result.stats.surviving_terms.values()) == 63
    assert terms == [t for v in family.terms.values() for t in v.values()]
    builds.clear()
    assert result.family is family and builds == []


def test_every_family_the_checker_returns_is_a_dict(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    triples = [(apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)]
    rng = random.Random(5)
    triples += [random_instance(rng) for _ in range(40)]
    holding = 0
    for mv1, mv2, phi in triples:
        result = check_asyn_abs(mv1, mv2, phi)
        if result.holds:
            holding += 1
            assert type(result.family.terms) is dict
            assert all(type(v) is dict for v in result.family.terms.values())
    assert holding > 2


def test_a_refuted_result_has_no_family_and_builds_nothing(
    builds, apl2_bad, pl2, rho_cro, mtrp, phi_trp
):
    candidate = enumerate_candidates(mtrp, phi_trp).models[2]
    for mv1, mv2, phi in ((apl2_bad, pl2, rho_cro), (candidate, mtrp, phi_trp)):
        result = check_asyn_abs(mv1, mv2, phi)
        builds.clear()  # a refutation with removals builds its state sets
        assert not result.holds and result.family is None and builds == []
        assert repr(result) == (
            f"CheckResult(holds=False, witness={result.witness!r}, stats={result.stats!r})"
        )


def test_check_closed_refuses_two_keys_for_one_state(apl2, pl2, rho_cro):
    terms = check_asyn_abs(apl2, pl2, rho_cro).family.terms
    # range(0, 2) is the state (0, 1).  Both orders are refused, so the
    # verdict does not depend on which key the dict lists last.
    message = r"^two keys of the family name abstract state \(0, 1\)$"
    for both in ({**terms, range(0, 2): {}}, {range(0, 2): {}, **terms}):
        family = StepTermFamily(apl2, pl2, rho_cro, both)
        with pytest.raises(ValueError, match=message):
            family.check_closed()
        with pytest.raises(ValueError, match=message):
            witness_path(family, ((0, 1),))


def test_witness_path_reads_the_path_once(apl2, pl2, rho_cro):
    family = check_asyn_abs(apl2, pl2, rho_cro).family
    path = ((1, 1), (0, 1))
    assert witness_path(family, iter(path)) == witness_path(family, path)
    with pytest.raises(ValueError, match="^the abstract path must contain at least one state$"):
        witness_path(family, iter(()))


def test_witness_path_lifts_from_the_gammas_it_tested(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    # Keys and gammas in other forms than the family's own: a range for
    # a state, and lists for gammas.  The lift reads what check_closed
    # tested, so it matches the family's own lift on every edge.
    for mv1, mv2, phi in ((apl2, pl2, rho_cro), (atrp, mtrp, phi_trp)):
        family = check_asyn_abs(mv1, mv2, phi).family
        recast = StepTermFamily(mv1, mv2, phi, {
            range(0, 2) if s == (0, 1) else s: [sorted(g) for g in v]
            for s, v in family.terms.items()
        })
        g1 = build_state_graph(mv1, ASYNC)
        for u, v in sorted(g1.edge_set()) + [(s, None) for s in g1.nodes]:
            path = (u,) if v is None else (u, v)
            assert witness_path(recast, path) == witness_path(family, path)


def test_a_copy_of_a_holding_result_builds_its_own_family(apl2, pl2, rho_cro):
    result = check_asyn_abs(apl2, pl2, rho_cro)
    copied = copy.copy(result)
    assert result.family.terms == copied.family.terms
    assert copied.family is not result.family and result._pending == copied._pending == []
