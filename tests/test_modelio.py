import io
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvnabs import (
    ASYNC,
    SYNC,
    LassoTrace,
    MappingError,
    ModelValidationError,
    Mvn,
    NextStateTable,
    NonMonotoneMappingWarning,
    ParseError,
    async_traces,
    attractors,
    build_state_graph,
    check_asyn_abs,
    enumerate_candidates,
    export_dot,
    export_report,
    parse_mapping,
    parse_model,
    serialize_mapping,
    serialize_model,
    state_space_size,
    validate,
    write_dot,
)
from mvnabs.fixtures import (
    APL2_SOURCE,
    ATRP_SOURCE,
    MTRP_SOURCE,
    PHI_TRP_SOURCE,
    PL2_SOURCE,
    RHO_CRO_SOURCE,
    apl2,
    atrp,
    mtrp,
    phi_trp,
    pl2,
    rho_cro,
)
from mvnabs.modelio import report, state_labeler
from perfbench import workloads

FIG_2B_EDGES = {
    ("00", "01"), ("00", "10"), ("11", "01"), ("11", "10"),
    ("12", "02"), ("12", "11"), ("01", "02"), ("02", "01"),
}


def test_parse_pl2(pl2):
    assert [e.name for e in pl2.entities] == ["CI", "Cro"]
    assert state_space_size(pl2) == 6
    assert pl2.tables[0].rows[(1, 2)] == 0
    assert pl2.tables[1].rows[(0, 1)] == 2


def test_shorthand_rows_expand(mtrp):
    # "0,1 -> 0" in the TrpR block covers two explicit rows.
    trp_r = mtrp.tables[mtrp.entity_index("TrpR")]
    assert trp_r.rows == {(0,): 0, (1,): 0, (2,): 1}
    trp = mtrp.tables[mtrp.entity_index("Trp")]
    assert len(trp.rows) == 18
    assert trp.rows[(0, 0, 1)] == 0
    assert trp.rows[(0, 2, 1)] == 2


def test_zero_range_entity_rejected():
    with pytest.raises(ParseError, match="max level"):
        parse_model("mvn X\nentity A : 0..0\nneighbourhood A = []\n")


def test_missing_table_row_is_a_parse_error():
    text = PL2_SOURCE.replace("  0 2 -> 0\n", "", 1)
    with pytest.raises(ParseError, match=r"row \(0, 2\) missing"):
        parse_model(text)


def test_duplicate_expanded_row_rejected():
    text = MTRP_SOURCE.replace("  2 -> 1\n", "  1,2 -> 1\n", 1)
    with pytest.raises(ParseError, match="more than once"):
        parse_model(text)


def test_input_entity_table_rejected():
    # Reported at the table's own header line, with or without rows.
    header_line = MTRP_SOURCE.count("\n") + 1
    for rows in ["", "  -> 0\n"]:
        with pytest.raises(ParseError, match="must not declare a table") as err:
            parse_model(MTRP_SOURCE + "table TrpExt:\n" + rows)
        assert err.value.line == header_line


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as err:
        parse_model("mvn X\nentity A : 0..1\nwat\n")
    assert err.value.line == 3


ONE = "mvn X\nentity A : 0..1\nneighbourhood A = [A]\ntable A:\n"


@pytest.mark.parametrize(
    "document, message, line",
    [
        ("mvn X\nentity A : 0..1\nentity A : 0..1\n", "duplicate entity A", 3),
        ("mvn X\nentity A : 1..2\n", "entity A: range must start at 0", 2),
        (
            "mvn X\nentity A : 0..1\nneighbourhood A = []\nneighbourhood A = []\n",
            "duplicate neighbourhood for A",
            4,
        ),
        (ONE + "  0 -> 1\n  1 -> 0\ntable A:\n", "duplicate table for A", 7),
        ("mvn X\n", "model declares no entities", 1),
        (
            "mvn X\nentity A : 0..1\nentity B : 0..1\nneighbourhood A = []\n",
            "entity B: missing neighbourhood declaration",
            3,
        ),
        ("mvn X\nentity A : 0..1\nneighbourhood A = [A]\n", "entity A: missing table", 2),
        (ONE + "  0 1 -> 1\n", "entity A: row has 2 input columns, expected 1", 5),
        (ONE + "  0 -> 1\n  1 -> 2\n", "entity A: output level 2 outside 0..1", 6),
        (ONE + "  2 -> 0\n", "entity A: input level 2 outside A's range 0..1", 5),
        ("A: 0->0, 0->1, 1->1, 2->1", "entity A: level 0 mapped twice", 1),
        ("\nB: identity", "unknown entity B", 2),
        ("A: identity\n# two\nA: identity", "entity A has more than one clause", 3),
        ("A: identity; A: identity", "entity A has more than one clause", 1),
        ("\n\nA: 0->0, 1->1", "entity A: mapping is not total on 0..2 (missing [2])", 3),
        ("mvn X\nentity A : 0..1\ntable B:\n", "table for unknown entity B", 3),
        (ONE + "  0 -> x\n", "entity A: output 'x' is not a level", 5),
        ("mvn X\nentity A : 0..1\nneighbourhood A = [A, A]\n", "entity A: input A listed twice", 3),
        (ONE + "  0 -> 0\n  1, -> 1\n", "entity A: bad level list '1,'", 6),
        (ONE + "  ,1 -> 1\n", "entity A: bad level list ',1'", 5),
        (ONE + "  a -> 1\n", "entity A: bad level list 'a'", 5),
        (ONE + "  1,,2 -> 1\n", "entity A: bad level list '1,,2'", 5),
        (ONE + "  0 -> ²\n", "entity A: output '²' is not a level", 5),
    ],
)
def test_parse_error_message_and_line(document, message, line):
    # A document that does not start with "mvn" is a mapping of A : 0..2.
    ternary = parse_model(ONE.replace("0..1", "0..2") + "  0,1,2 -> 0\n")
    with pytest.raises((ParseError, MappingError)) as err:
        if document.startswith("mvn"):
            parse_model(document)
        else:
            parse_mapping(document, ternary)
    assert getattr(err.value, "line", None) == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_missing_rows_reported_lowest_first(mtrp):
    gaps = [(0, 0, 0), (1, 2, 2), (0, 2, 1), (1, 0, 0), (0, 1, 2)]
    trp = mtrp.entity_index("Trp")
    rows = {k: v for k, v in mtrp.tables[trp].rows.items() if k not in gaps}
    tables = tuple(NextStateTable(trp, rows) if i == trp else t for i, t in enumerate(mtrp.tables))
    gappy = Mvn(mtrp.name, mtrp.entities, mtrp.neighbourhoods, tables)
    assert validate(gappy) == [f"entity Trp: table row {key} missing" for key in sorted(gaps)]
    text = serialize_model(gappy)
    line = text.splitlines().index("table Trp:") + 1
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: entity Trp: table row (0, 0, 0) missing"


@pytest.mark.parametrize("document, message", [
    ("CI: identity\nCro: 0->0, 1->0, 2->0",
     "line 2: entity Cro: codomain must be larger than one level"),
    ("CI: 0->0, 1->1", "line 1: entity CI: cannot compress a range of size 2"),
])
def test_mapping_clause_error_names_line_and_entity(pl2, document, message):
    with pytest.raises(MappingError) as err:
        parse_mapping(document, pl2)
    assert str(err.value) == message


@pytest.mark.parametrize("model", [pl2(), apl2(), mtrp(), atrp()])
def test_model_round_trip(model):
    assert parse_model(serialize_model(model)) == model


def test_round_trip_through_mapping(pl2, rho_cro):
    text = serialize_mapping(rho_cro, pl2)
    assert parse_mapping(text, pl2) == rho_cro


def test_parse_mapping_semicolon_form(pl2, rho_cro):
    assert parse_mapping("Cro: 0->0,1->1,2->1; CI: identity", pl2) == rho_cro
    # Empty clauses and items are skipped; a leading comma leaves an
    # empty first item.
    assert parse_mapping("CI: identity;; Cro: 0->0,, 1->1, 2->1", pl2) == rho_cro
    assert parse_mapping("CI: identity;; Cro: ,0->0,, 1->1, 2->1", pl2) == rho_cro


def test_mapping_codomain_of_one_rejected(pl2):
    with pytest.raises(MappingError, match="larger than one"):
        parse_mapping("Cro: 0->0,1->0,2->0\nCI: identity", pl2)


def test_mapping_totality_enforced(pl2):
    with pytest.raises(MappingError, match="not total"):
        parse_mapping("Cro: 0->0,2->1\nCI: identity", pl2)


def test_mapping_surjectivity_enforced():
    model = parse_model(
        "mvn Q\nentity X : 0..3\nneighbourhood X = [X]\n"
        "table X:\n  0 -> 0\n  1 -> 1\n  2 -> 2\n  3 -> 3\n"
    )
    with pytest.raises(MappingError, match="not surjective"):
        parse_mapping("X: 0->0,1->0,2->2,3->2", model)


def test_mapping_must_compress(pl2):
    with pytest.raises(MappingError, match="does not compress"):
        parse_mapping("Cro: 0->1,1->0,2->2\nCI: identity", pl2)


def test_mapping_unknown_entity_rejected(pl2):
    with pytest.raises(MappingError, match="unknown entity"):
        parse_mapping("Gro: 0->0,1->1,2->1\nCI: identity\nCro: identity", pl2)


def test_mapping_missing_clause_rejected(pl2):
    with pytest.raises(MappingError, match="no clause"):
        parse_mapping("Cro: 0->0,1->1,2->1", pl2)


def test_all_identity_mapping_rejected(pl2):
    with pytest.raises(MappingError, match="properly compressed"):
        parse_mapping("Cro: identity\nCI: identity", pl2)


def test_non_monotone_mapping_warns(pl2):
    with pytest.warns(NonMonotoneMappingWarning):
        parse_mapping("Cro: 0->1,1->0,2->1\nCI: identity", pl2)


def test_monotone_mapping_does_not_warn(recwarn, pl2):
    parse_mapping("Cro: 0->0,1->1,2->1\nCI: identity", pl2)
    assert not [w for w in recwarn.list
                if issubclass(w.category, NonMonotoneMappingWarning)]


def test_dot_async_matches_known_graph(pl2):
    dot = export_dot(build_state_graph(pl2, ASYNC))
    nodes = [l for l in dot.splitlines() if l.endswith('";') and "->" not in l]
    edges = [l for l in dot.splitlines() if "->" in l]
    assert len(nodes) == 6
    parsed = {tuple(part.strip(' ";') for part in e.split("->")) for e in edges}
    assert parsed == FIG_2B_EDGES


def test_dot_sync_has_self_loop(pl2):
    dot = export_dot(build_state_graph(pl2, SYNC))
    assert '"10" -> "10";' in dot


def test_dot_nodes_only_when_no_edges():
    model = parse_model(
        "mvn Still\nentity X : 0..1\nneighbourhood X = [X]\n"
        "table X:\n  0 -> 0\n  1 -> 1\n"
    )
    dot = export_dot(build_state_graph(model, ASYNC))
    assert "->" not in dot
    assert '"0";' in dot and '"1";' in dot


def test_dot_deterministic(pl2):
    graph = build_state_graph(pl2, ASYNC)
    assert export_dot(graph) == export_dot(build_state_graph(pl2, ASYNC))


class NullText(io.TextIOBase):
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


def test_write_dot_holds_no_whole_text():
    # A seeded 8-entity ternary net: 6,561 states, about 1 MB of DOT.
    # Built whole, as one list of lines joined twice, the text peaked at
    # about 6x its size.
    spec = workloads.random_tables(random.Random(2), 8)
    graph = build_state_graph(parse_model(workloads.model_text("NET", spec)), ASYNC)
    sink = NullText()
    tracemalloc.start()
    try:
        write_dot(graph, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == len(export_dot(graph)) > 10**6
    assert peak <= 1.5 * sink.chars


def test_state_label_wide():
    assert state_labeler((1, 2))((1, 2)) == "12"
    assert state_labeler((1, 12))((1, 12)) == "1.12"


def test_report_check_result(apl2, pl2, rho_cro):
    report = json.loads(export_report(
        check_asyn_abs(apl2, pl2, rho_cro), apl2.max_levels, pl2.max_levels
    ))
    assert report["holds"] is True
    assert report["witness"] is None
    assert set(report["surviving_terms"]) == {"00", "01", "10", "11"}


def test_report_refutation_witness(mtrp, phi_trp):
    from mvnabs import enumerate_candidates

    failing = [
        c
        for c in enumerate_candidates(mtrp, phi_trp).models
        if not check_asyn_abs(c, mtrp, phi_trp).holds
    ]
    report = json.loads(export_report(
        check_asyn_abs(failing[0], mtrp, phi_trp), failing[0].max_levels, mtrp.max_levels
    ))
    assert report["holds"] is False
    assert report["witness"]["state"]
    assert "reason" in report["witness"]


def test_report_labels_each_side_by_its_own_levels():
    # Concrete X runs to 11, abstract X to 1: abstract 0 steps to 1 only
    # through concrete 10, whose closure never leaves the class of 1.
    concrete = parse_model(
        "mvn C\nentity X : 0..11\nentity Y : 0..1\n"
        "neighbourhood X = [X]\nneighbourhood Y = [Y]\n"
        "table X:\n  0 -> 10\n  1,2,3,4,5,6,7,8,9 -> 0\n  10 -> 11\n  11 -> 11\n"
        "table Y:\n  0 -> 0\n  1 -> 1\n"
    )
    abstract = parse_model(
        "mvn A\nentity X : 0..1\nentity Y : 0..1\n"
        "neighbourhood X = [X]\nneighbourhood Y = [Y]\n"
        "table X:\n  0 -> 1\n  1 -> 0\ntable Y:\n  0 -> 0\n  1 -> 1\n"
    )
    phi = parse_mapping(
        "X: 0->0, " + ", ".join(f"{v}->1" for v in range(1, 12)) + "\nY: identity",
        concrete,
    )
    result = check_asyn_abs(abstract, concrete, phi)
    report = json.loads(
        export_report(result, abstract.max_levels, concrete.max_levels)
    )
    assert report["holds"] is False
    assert report["witness"]["state"] == "00"
    assert report["witness"]["removals"][0] == {
        "state": "00",
        "gamma": ["0.0"],
        "failed_successor": "10",
        "missing_gamma": ["10.0"],
    }
    assert set(report["surviving_terms"]) == {"00", "01", "10", "11"}


def test_report_attractors(pl2):
    report = json.loads(
        export_report(attractors(build_state_graph(pl2, ASYNC)), pl2.max_levels)
    )
    assert report["semantics"] == "async"
    assert [a["states"] for a in report["attractors"]] == [["01", "02"], ["10"]]


def test_report_traces_lasso_shape():
    traces = frozenset({LassoTrace(((0, 0),), ((0, 1), (0, 2)))})
    report = json.loads(export_report(traces, (0, 2)))
    assert report["traces"] == [{"prefix": ["00"], "loop": ["01", "02"]}]


def test_report_empty_trace_set():
    assert json.loads(export_report(frozenset(), ()))["traces"] == []


def test_report_stable_across_runs(mtrp, atrp, phi_trp):
    levels = (atrp.max_levels, mtrp.max_levels)
    a = export_report(check_asyn_abs(atrp, mtrp, phi_trp), *levels)
    b = export_report(check_asyn_abs(atrp, mtrp, phi_trp), *levels)
    assert a == b



def test_export_report_is_the_record_as_json():
    pl2_, mtrp_, phi = pl2(), mtrp(), phi_trp()
    results = [
        (attractors(build_state_graph(model, discipline)), model.max_levels)
        for model in (pl2_, mtrp_) for discipline in (ASYNC, SYNC)
    ]
    results += [(async_traces(model), model.max_levels) for model in (pl2_, mtrp_)]
    results += [(frozenset({LassoTrace(((0, 12),), ())}), (1, 12))]
    results += [
        (check_asyn_abs(mv1, mv2, phi_), mv1.max_levels, mv2.max_levels)
        for mv1, mv2, phi_ in [(apl2(), pl2_, rho_cro())]
        + [(c, mtrp_, phi) for c in enumerate_candidates(mtrp_, phi).models]
    ]
    for r, *levels in results:
        assert json.loads(export_report(r, *levels)) == report(r, *map(state_labeler, levels))


def test_export_report_rejects_an_unknown_result():
    with pytest.raises(TypeError, match="cannot export object"):
        export_report(object())


def test_state_labeler_names_levels():
    assert state_labeler((1, 2))((1, 2)) == "12"
    assert state_labeler((1, 12))((1, 2)) == "1.2"
    assert state_labeler((1, 12), ["A", "B"])((1, 12)) == "A=1,B=12"

# The only errors a document may raise, whatever its text.
DOCUMENT_ERRORS = (ParseError, ModelValidationError, MappingError)
TOKENS = st.sampled_from([
    "", " ", "\n", "#", ":", ",", "..", "->", "[", "]", "=", "-1", "0", "2", "9",
    "99999", "entity", "neighbourhood", "table", "mvn", "identity", "\ufeff",
    "²", "٣", "¹⁰",
])


@st.composite
def mutated(draw, sources):
    """A fixture document with a few spans replaced by random text, a
    token of the formats or a slice of the document itself."""
    text = draw(st.sampled_from(sources))
    original = text
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        k = draw(st.integers(0, len(original)))
        piece = draw(st.one_of(
            TOKENS, st.text(max_size=6), st.just(original[k:k + draw(st.integers(1, 40))])
        ))
        text = text[:i] + piece + text[j:]
    return text


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), mutated([PL2_SOURCE, APL2_SOURCE, MTRP_SOURCE, ATRP_SOURCE])))
def test_parse_model_raises_only_document_errors(text):
    try:
        parse_model(text)
    except DOCUMENT_ERRORS:
        pass


@settings(max_examples=200, deadline=None)
@given(mutated([PL2_SOURCE, APL2_SOURCE, MTRP_SOURCE, ATRP_SOURCE]))
def test_every_parsed_model_is_valid(text):
    try:
        model = parse_model(text)
    except DOCUMENT_ERRORS:
        return
    assert validate(model) == []


@pytest.mark.filterwarnings("ignore::mvnabs.NonMonotoneMappingWarning")
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_mapping_raises_only_document_errors(data):
    source, model = data.draw(st.sampled_from([(RHO_CRO_SOURCE, pl2()), (PHI_TRP_SOURCE, mtrp())]))
    text = data.draw(st.one_of(st.text(), mutated([source])))
    try:
        parse_mapping(text, model)
    except DOCUMENT_ERRORS:
        pass
