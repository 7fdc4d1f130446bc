import pytest

from mvnabs import (
    UnsupportedError,
    attractor_correspondence,
    check_asyn_abs,
    differential_suite,
    enumerate_candidates,
    forward_holds,
    oracle_check,
    parse_mapping,
    parse_model,
    reachability_soundness_suite,
)
from mvnabs.cli import main
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


def test_forward_holds_beyond_the_class_size_cap():
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
    assert forward_holds(abstract, model, phi) is True
    assert oracle_check(abstract, model, phi) is True


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
