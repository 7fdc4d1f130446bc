import pytest

from mvnabs import (
    Entity,
    ModelValidationError,
    Mvn,
    Neighbourhood,
    NextStateTable,
    iter_states,
    require_valid,
    state_space_size,
    validate,
)
from mvnabs.fixtures import mtrp, pl2


def _drop_row(model, entity_name, key):
    i = model.entity_index(entity_name)
    rows = dict(model.tables[i].rows)
    del rows[key]
    tables = tuple(
        NextStateTable(j, rows) if j == i else t for j, t in enumerate(model.tables)
    )
    return Mvn(model.name, model.entities, model.neighbourhoods, tables)


def _set_row(model, entity_name, key, value):
    i = model.entity_index(entity_name)
    rows = dict(model.tables[i].rows)
    rows[key] = value
    tables = tuple(
        NextStateTable(j, rows) if j == i else t for j, t in enumerate(model.tables)
    )
    return Mvn(model.name, model.entities, model.neighbourhoods, tables)


def test_pl2_is_valid():
    assert validate(pl2()) == []


def test_missing_row_reports_totality():
    broken = _drop_row(pl2(), "CI", (0, 2))
    diags = validate(broken)
    assert diags == ["entity CI: table row (0, 2) missing"]


def test_out_of_range_output_reports_range():
    broken = _set_row(pl2(), "Cro", (0, 1), 3)
    diags = validate(broken)
    assert diags == ["entity Cro: table row (0, 1) output 3 outside 0..2"]


@pytest.mark.parametrize("out", [True, 1.0, "1"])
def test_output_that_is_not_an_int_reported(out):
    assert validate(_set_row(pl2(), "CI", (0, 0), out)) == [
        f"entity CI: table row (0, 0) output {out!r} outside 0..1"
    ]


def test_bool_max_level_reported():
    m = pl2()
    entities = (Entity("CI", True),) + m.entities[1:]
    assert validate(Mvn(m.name, entities, m.neighbourhoods, m.tables)) == [
        "entity CI: max_level must be in 1..15, got True"
    ]


def test_state_space_sizes():
    assert state_space_size(pl2()) == 6
    assert state_space_size(mtrp()) == 36
    boolean = Mvn(
        "B",
        (Entity("X", 1),),
        (Neighbourhood(0, (0,)),),
        (NextStateTable(0, {(0,): 0, (1,): 1}),),
    )
    assert state_space_size(boolean) == 2


@pytest.mark.parametrize("model", [pl2(), mtrp()])
def test_iterating_states_matches_size(model):
    states = list(iter_states(model))
    assert len(states) == state_space_size(model)
    assert len(set(states)) == len(states)
    for s in states:
        assert all(0 <= s[i] <= e.max_level for i, e in enumerate(model.entities))


@pytest.mark.parametrize("model", [pl2(), mtrp()])
def test_table_totality_row_counts(model):
    for i, nb in enumerate(model.neighbourhoods):
        expected = 1
        for j in nb.inputs:
            expected *= model.entities[j].max_level + 1
        if nb.inputs:
            assert len(model.tables[i].rows) == expected


def test_level_cap_enforced():
    big = Mvn(
        "Big",
        (Entity("X", 16),),
        (Neighbourhood(0, ()),),
        (NextStateTable(0, {(): 0}),),
    )
    assert any("max_level" in d for d in validate(big))


def test_duplicate_names_reported():
    m = Mvn(
        "Dup",
        (Entity("X", 1), Entity("X", 1)),
        (Neighbourhood(0, ()), Neighbourhood(1, ())),
        (NextStateTable(0, {(): 0}), NextStateTable(1, {(): 0})),
    )
    assert any("duplicate name" in d for d in validate(m))


def test_require_valid_raises_with_diagnostics():
    broken = _drop_row(pl2(), "CI", (1, 1))
    with pytest.raises(ModelValidationError) as err:
        require_valid(broken)
    assert err.value.diagnostics == ["entity CI: table row (1, 1) missing"]


def _rewired(model, neighbourhoods=None, tables=None):
    return Mvn(
        model.name, model.entities,
        model.neighbourhoods if neighbourhoods is None else tuple(neighbourhoods),
        model.tables if tables is None else tuple(tables),
    )


def test_model_without_entities_reported():
    assert validate(Mvn("E", (), (), ())) == ["model has no entities"]


def test_wiring_counts_reported():
    m = pl2()
    assert validate(_rewired(m, m.neighbourhoods[:1], m.tables[:1])) == [
        "expected 2 neighbourhoods, found 1",
        "expected 2 tables, found 1",
    ]


def test_wiring_for_another_entity_reported():
    m = pl2()
    nbs = (Neighbourhood(1, m.neighbourhoods[0].inputs), m.neighbourhoods[1])
    tables = (NextStateTable(1, m.tables[0].rows), m.tables[1])
    assert validate(_rewired(m, nbs, tables)) == [
        "entity CI: neighbourhood indexed for entity 1",
        "entity CI: table indexed for entity 1",
    ]


def test_input_index_out_of_range_reported():
    m = pl2()
    nbs = (Neighbourhood(0, (0, 5)), m.neighbourhoods[1])
    assert validate(_rewired(m, nbs)) == [
        "entity CI: neighbourhood input index 5 out of range"
    ]


def test_bool_input_indices_reported():
    m = pl2()
    nbs = (Neighbourhood(0, (False, True)), m.neighbourhoods[1])
    assert validate(_rewired(m, nbs)) == [
        "entity CI: neighbourhood input index False out of range",
        "entity CI: neighbourhood input index True out of range",
    ]


def test_input_listed_twice_reported():
    # Both columns of a repeated input always hold one level, so a row
    # such as (0, 1) could never be read; the rows are not judged.
    m = pl2()
    nbs = (Neighbourhood(0, (1, 0, 1)), m.neighbourhoods[1])
    assert validate(_rewired(m, nbs)) == ["entity CI: input Cro listed twice"]
    # An index that is not a level is reported as out of range only.
    nbs = (Neighbourhood(0, (5, 5, True, True)), m.neighbourhoods[1])
    assert validate(_rewired(m, nbs)) == [
        "entity CI: neighbourhood input index 5 out of range",
        "entity CI: neighbourhood input index 5 out of range",
        "entity CI: neighbourhood input index True out of range",
        "entity CI: neighbourhood input index True out of range",
    ]


def test_input_entity_with_a_real_row_reported():
    m = mtrp()
    i = m.entity_index("TrpExt")
    # A row keyed by input levels, and the placeholder row with another
    # value; {(): False} and {(): 0.0} both equal {(): 0}.
    for rows in ({(0,): 0, (1,): 1}, {(): 1}, {(): False}, {(): 0.0}):
        tables = list(m.tables)
        tables[i] = NextStateTable(i, rows)
        assert validate(_rewired(m, tables=tables)) == [
            "entity TrpExt: input entity must have the single row () -> 0"
        ]


def test_row_outside_the_input_space_reported():
    assert validate(_set_row(pl2(), "CI", (0, 3), 0)) == [
        "entity CI: table row (0, 3) outside the input space"
    ]


@pytest.mark.parametrize("cell", [True, 1.0])
def test_row_key_that_is_not_an_int_reported(cell):
    # (True, 0) and (1.0, 0) equal and hash as (1, 0), the row they replace.
    broken = _set_row(_drop_row(pl2(), "CI", (1, 0)), "CI", (cell, 0), 1)
    assert validate(broken) == [
        f"entity CI: table row ({cell!r}, 0) outside the input space"
    ]


def test_input_entity_placeholder_checked(mtrp):
    i = mtrp.entity_index("TrpExt")
    assert mtrp.is_input(i)
    assert mtrp.tables[i].rows == {(): 0}


def test_equivalent_ignores_name(pl2):
    renamed = Mvn("Other", pl2.entities, pl2.neighbourhoods, pl2.tables)
    assert renamed.equivalent(pl2)
    assert renamed != pl2
