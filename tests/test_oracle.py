import random
import warnings

import pytest

from mvnabs import (
    ASYNC,
    MappingMismatchError,
    NonMonotoneMappingWarning,
    StepTermFamily,
    StructureMismatchError,
    UnsupportedError,
    attractor_correspondence,
    attractors,
    build_state_graph,
    check_asyn_abs,
    check_sync_abstraction,
    concrete_class,
    differential_suite,
    enumerate_candidates,
    forward_holds,
    oracle_check,
    parse_mapping,
    parse_model,
    reachability_soundness_suite,
    witness_path,
)
from mvnabs import oracle, semantics
from mvnabs.cli import main
from mvnabs.fixtures import PL2_SOURCE
from mvnabs.oracle import random_instance
from mvnabs.semantics import reachable_set
from tests.test_checker import _all_compressed_triple
from tests.test_traces import BRANCHY_SOURCE


def test_oracle_accepts_lambda_fixture(apl2, pl2, rho_cro):
    assert oracle_check(apl2, pl2, rho_cro) is True


def test_oracle_accepts_tryptophan_fixture(atrp, mtrp, phi_trp):
    assert oracle_check(atrp, mtrp, phi_trp) is True


def test_oracle_on_merged_identity_model():
    concrete = parse_model(
        "mvn T3\nentity X : 0..2\nneighbourhood X = [X]\n"
        "table X:\n  0 -> 0\n  1 -> 1\n  2 -> 2\n"
    )
    abstract = parse_model(
        "mvn B1\nentity X : 0..1\nneighbourhood X = [X]\n"
        "table X:\n  0 -> 0\n  1 -> 1\n"
    )
    phi = parse_mapping("X: 0->0,1->1,2->1", concrete)
    assert oracle_check(abstract, concrete, phi) is True


def test_oracle_unsupported_when_concrete_traces_infinite(pl2, rho_cro):
    branchy = parse_model(
        BRANCHY_SOURCE.replace("entity A : 0..1", "entity A : 0..2")
        .replace(
            "table A:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 1\n  1 1 -> 1",
            "table A:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 1\n  1 1 -> 1\n"
            "  2 0 -> 2\n  2 1 -> 2",
        )
        .replace(
            "table B:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 0\n  1 1 -> 1",
            "table B:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 0\n  1 1 -> 1\n"
            "  2 0 -> 0\n  2 1 -> 1",
        )
    )
    abstract = next(iter(enumerate_candidates(
        branchy, parse_mapping("A: 0->0,1->1,2->1\nB: identity", branchy)
    ).models))
    with pytest.raises(UnsupportedError):
        oracle_check(
            abstract, branchy, parse_mapping("A: 0->0,1->1,2->1\nB: identity", branchy)
        )


def test_oracle_refutes_infinite_abstract_side(mtrp, phi_trp):
    # Candidates whose own trace set is infinite can never be included
    # in the finite image; the oracle decides this without enumerating.
    from mvnabs import ASYNC, build_state_graph, trace_set_is_finite

    cands = enumerate_candidates(mtrp, phi_trp)
    infinite = [
        c
        for c in cands.models
        if not trace_set_is_finite(build_state_graph(c, ASYNC))
    ]
    assert infinite, "expected at least one infinite-trace candidate"
    for c in infinite:
        assert oracle_check(c, mtrp, phi_trp) is False


def test_oracle_agrees_with_checker_on_all_candidates(mtrp, phi_trp):
    for cand in enumerate_candidates(mtrp, phi_trp).models:
        assert oracle_check(cand, mtrp, phi_trp) == check_asyn_abs(
            cand, mtrp, phi_trp
        ).holds


def test_differential_suite_small_run():
    report = differential_suite(seed=1, count=100)
    assert report["count"] == 100
    assert report["divergences"] == []
    assert 0 < report["both_finite"] <= report["supported"] <= 100
    assert len(report["instances"]) == 100
    # reproduction blobs parse back
    record = report["instances"][0]
    mv2 = parse_model(record["mv2"])
    parse_model(record["mv1"])
    import warnings

    from mvnabs import NonMonotoneMappingWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneMappingWarning)
        parse_mapping(record["mapping"], mv2)


def test_differential_suite_empty():
    report = differential_suite(seed=1, count=0)
    assert report["instances"] == [] and report["divergences"] == []


def test_differential_suite_rejects_negative_count():
    with pytest.raises(ValueError):
        differential_suite(seed=1, count=-3)


def test_differential_suite_deterministic():
    a = differential_suite(seed=42, count=40)
    b = differential_suite(seed=42, count=40)
    assert a == b


def test_differential_suite_records_forward_verdict():
    report = differential_suite(seed=3, count=60)
    assert all(r["forward"] == r["checker"] for r in report["instances"])
    assert not all(r["supported"] for r in report["instances"])


def test_forward_divergence_is_reported(monkeypatch, capsys):
    import mvnabs.oracle

    monkeypatch.setattr(
        mvnabs.oracle, "forward_holds", lambda *args: not forward_holds(*args)
    )
    report = differential_suite(seed=3, count=10)
    assert len(report["divergences"]) == 10
    assert {d["kind"] for d in report["divergences"]} == {"forward"}
    assert main(["fuzz", "--seed", "3", "--count", "10"]) == 1
    assert "divergence (forward) at instance 0:" in capsys.readouterr().out


def wide_triple():
    # The instance of test_class_size_guard: classes of up to 81 states,
    # which the step-term checker refuses to enumerate.
    lines = "\n".join(f"  {v} -> {v}" for v in range(10))
    model = parse_model(
        "mvn Wide\nentity X : 0..9\nentity Y : 0..9\n"
        "neighbourhood X = [X]\nneighbourhood Y = [Y]\n"
        f"table X:\n{lines}\ntable Y:\n{lines}\n"
    )
    abstract = parse_model(
        "mvn W2\nentity X : 0..1\nentity Y : 0..1\n"
        "neighbourhood X = [X]\nneighbourhood Y = [Y]\n"
        "table X:\n  0 -> 0\n  1 -> 1\ntable Y:\n  0 -> 0\n  1 -> 1\n"
    )
    ones = ",".join(f"{v}->1" for v in range(1, 10))
    phi = parse_mapping(f"X: 0->0,{ones}\nY: 0->0,{ones}", model)
    return abstract, model, phi


def test_forward_holds_beyond_the_class_size_cap():
    abstract, model, phi = wide_triple()
    assert forward_holds(abstract, model, phi) is True
    assert oracle_check(abstract, model, phi) is True


def test_reachability_soundness_beyond_the_class_size_cap():
    report = reachability_soundness_suite(*wide_triple())
    # Every abstract state is a fixed point: each reaches only itself.
    assert report == {"pairs_checked": 4, "failures": []}


def test_reachability_soundness_fixtures(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    report = reachability_soundness_suite(apl2, pl2, rho_cro)
    assert report["failures"] == [] and report["pairs_checked"] == 8
    report = reachability_soundness_suite(atrp, mtrp, phi_trp)
    assert report["failures"] == [] and report["pairs_checked"] == 72


def test_reachability_suite_requires_holding_abstraction(pl2, rho_cro):
    from tests.test_checker import SUBSET_MV1  # any non-abstraction would do

    bad = parse_model(SUBSET_MV1.replace("mvn A", "mvn APL2X"))
    with pytest.raises(Exception):
        reachability_soundness_suite(bad, pl2, rho_cro)


def test_attractor_correspondence_fixtures(apl2, pl2, rho_cro, atrp, mtrp, phi_trp):
    report = attractor_correspondence(apl2, pl2, rho_cro)
    assert report["attractors_checked"] == 2 and report["failures"] == []
    report = attractor_correspondence(atrp, mtrp, phi_trp)
    assert report["attractors_checked"] == 2 and report["failures"] == []


def reference_reachability(mv1, mv2, phi):
    """The reachability suite's body as one search per concrete state:
    an abstract pair is realised when some member of the first class
    reaches some member of the second."""
    g1 = build_state_graph(mv1, ASYNC)
    g2 = build_state_graph(mv2, ASYNC)
    reach2 = {s: reachable_set(g2, s) for s in g2.nodes}
    pairs = 0
    failures = []
    for s1 in g1.nodes:
        for s2 in reachable_set(g1, s1):
            pairs += 1
            klass2 = concrete_class(phi, s2)
            if not any(klass2 & reach2[c1] for c1 in concrete_class(phi, s1)):
                failures.append({"from": s1, "to": s2})
    return {"pairs_checked": pairs, "failures": failures}


def reference_attractors(mv1, mv2, phi):
    """The attractor suite's body over concrete classes: a host meets
    the class of every abstract member."""
    a1 = attractors(build_state_graph(mv1, ASYNC))
    a2 = attractors(build_state_graph(mv2, ASYNC))
    failures = []
    for att in a1.attractors:
        if not any(
            all(concrete_class(phi, s) & b.states for s in att.states)
            for b in a2.attractors
        ):
            failures.append({"attractor": sorted(att.states)})
    return {"attractors_checked": len(a1.attractors), "failures": failures}


def _sorted_failures(report):
    return dict(report, failures=sorted(report["failures"], key=repr))


def test_suites_match_their_references(monkeypatch, apl2, pl2, rho_cro, mtrp, phi_trp):
    # The precondition is lifted so refuted triples reach the failure
    # branches too; the references never had one.
    monkeypatch.setattr(oracle, "forward_holds", lambda *args: True)
    triples = [(apl2, pl2, rho_cro)]
    triples += [(c, mtrp, phi_trp) for c in enumerate_candidates(mtrp, phi_trp).models]
    rng = random.Random(17)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneMappingWarning)
        triples += [random_instance(rng) for _ in range(300)]
    reach_failures = attractor_failures = 0
    for triple in triples:
        got = reachability_soundness_suite(*triple)
        assert _sorted_failures(got) == _sorted_failures(reference_reachability(*triple))
        assert got["failures"] == sorted(got["failures"], key=lambda f: (f["from"], f["to"]))
        reach_failures += bool(got["failures"])
        got = attractor_correspondence(*triple)
        assert got == reference_attractors(*triple)
        attractor_failures += bool(got["failures"])
    assert reach_failures > 0 and attractor_failures > 0


def test_suites_start_no_search(monkeypatch, atrp, mtrp, phi_trp):
    # Both suites read each graph's components; no breadth-first search
    # starts from any state, concrete or abstract.
    def refuse(*args):
        raise AssertionError("a search was started")

    monkeypatch.setattr(oracle, "forward_holds", lambda *args: True)
    monkeypatch.setattr(semantics, "bfs", refuse)
    assert reachability_soundness_suite(atrp, mtrp, phi_trp)["pairs_checked"] == 72
    assert attractor_correspondence(atrp, mtrp, phi_trp)["failures"] == []


def test_reachability_soundness_on_the_probe():
    # The ROADMAP's scale probe at n = 8: 6,561 concrete states.
    report = reachability_soundness_suite(*_all_compressed_triple(random.Random(0), 8, 0))
    assert report == {"pairs_checked": 24396, "failures": []}


def test_attractor_correspondence_checks_the_triple(apl2, pl2, mtrp, phi_trp):
    wide = parse_model(
        PL2_SOURCE.replace("Cro : 0..2", "Cro : 0..3").replace(" 2 -> ", " 2,3 -> ")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneMappingWarning)
        phi = parse_mapping("CI: identity\nCro: 0->0, 1->1, 2->1, 3->0", wide)
    with pytest.raises(MappingMismatchError):
        attractor_correspondence(apl2, pl2, phi)
    with pytest.raises(StructureMismatchError):
        attractor_correspondence(apl2, mtrp, phi_trp)


def test_structure_is_checked_before_the_mapping(atrp, pl2, rho_cro):
    # ATRP's entities differ from PL2's, and rho_cro's target ranges
    # differ from ATRP's: every entry point reports the structure.
    entry_points = [
        check_asyn_abs,
        forward_holds,
        oracle_check,
        attractor_correspondence,
        check_sync_abstraction,
        lambda mv1, mv2, phi: witness_path(StepTermFamily(mv1, mv2, phi, {}), [(0, 0)]),
    ]
    for entry_point in entry_points:
        with pytest.raises(StructureMismatchError):
            entry_point(atrp, pl2, rho_cro)
