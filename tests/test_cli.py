import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from mvnabs import abstraction, cli, fixtures, semantics, traces
from mvnabs.checker import check_asyn_abs
from mvnabs.cli import main
from mvnabs.errors import NonMonotoneMappingWarning
from mvnabs.model import iter_states
from mvnabs.modelio import (
    export_dot,
    export_report,
    parse_mapping,
    parse_model,
    report,
    serialize_model,
    state_labeler,
)
from perfbench import workloads
from tests.test_abstraction import MANY_CHOICES_MAP, MANY_CHOICES_SOURCE
from tests.test_oracle import wide_triple
from tests.test_semantics import HUGE_SOURCE
from tests.test_traces import BRANCHY_SOURCE


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("PL2.mvn", fixtures.PL2_SOURCE),
        ("APL2.mvn", fixtures.APL2_SOURCE),
        ("MTRP.mvn", fixtures.MTRP_SOURCE),
        ("ATRP.mvn", fixtures.ATRP_SOURCE),
        ("cro.map", fixtures.RHO_CRO_SOURCE),
        ("trp.map", fixtures.PHI_TRP_SOURCE),
        ("branchy.mvn", BRANCHY_SOURCE),
        ("broken.mvn", fixtures.PL2_SOURCE.replace("  0 2 -> 0\n", "", 1)),
    ]:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_validate_ok(files, capsys):
    assert main(["validate", files["PL2.mvn"]]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_all_diagnostics(files, capsys):
    assert main(["validate", files["broken.mvn"]]) == 2
    assert "missing" in capsys.readouterr().out


def test_output_that_is_not_a_level_exits_2(tmp_path, capsys):
    bad = tmp_path / "superscript.mvn"
    bad.write_text(fixtures.PL2_SOURCE.replace("  0 0 -> 1\n", "  0 0 -> ²\n", 1), encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: line 7: entity CI: output '²' is not a level\n")


@pytest.mark.parametrize("document, message", [
    ("neighbourhood A = [A, A]\n", "line 3: entity A: input A listed twice"),
    *((f"neighbourhood A = [A]\ntable A:\n  0 -> 0\n  {cell} -> 1\n",
       f"line 6: entity A: bad level list {cell!r}") for cell in ["1,", ",1", "a", "1,,2"]),
])
def test_validate_reports_one_parse_error(tmp_path, capsys, document, message):
    bad = tmp_path / "bad.mvn"
    bad.write_text("mvn X\nentity A : 0..1\n" + document, encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_parse_error_exits_2(files, tmp_path, capsys):
    bad = tmp_path / "bad.mvn"
    bad.write_text("entity X : 0..1\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_graph_writes_dot(files, tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert main(["graph", files["PL2.mvn"], "--semantics", "async",
                 "--dot", str(out)]) == 0
    text = out.read_text()
    assert '"12" -> "11";' in text


def test_graph_to_stdout(files, capsys):
    assert main(["graph", files["PL2.mvn"], "--dot", "-"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_attractors_text(files, capsys):
    assert main(["attractors", files["PL2.mvn"]]) == 0
    out = capsys.readouterr().out
    assert "point: {10}" in out
    assert "scc: {01 02}" in out


def test_attractors_json(files, capsys):
    assert main(["attractors", files["MTRP.mvn"], "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    kinds = sorted(a["kind"] for a in report["attractors"])
    assert kinds == ["point", "point", "scc"]


def test_attractors_labels(files, capsys):
    assert main(["attractors", files["PL2.mvn"], "--labels"]) == 0
    assert "CI=1,Cro=0" in capsys.readouterr().out


def test_traces_lists_lassos(files, capsys):
    assert main(["traces", files["PL2.mvn"]]) == 0
    out = capsys.readouterr().out
    assert "<00 (01 02)*>" in out
    assert "<00 10>" in out


# Exact text of the lasso listings, pinned so the shared printer keeps
# the order, the spacing and the ``<(loop)*>`` form of both commands.
PL2_TRACES_TEXT = """\
<00 (01 02)*>
<00 10>
<(01 02)*>
<(02 01)*>
<10>
<11 (01 02)*>
<11 10>
<12 (02 01)*>
<12 11 (01 02)*>
<12 11 10>
"""

PL2_CRO_IMAGE_TEXT = """\
<00 01>
<00 10>
<01>
<10>
<11 01>
<11 10>
"""


def test_traces_text_exact(files, capsys):
    assert main(["traces", files["PL2.mvn"]]) == 0
    assert capsys.readouterr().out == PL2_TRACES_TEXT


def test_traces_labels_text_exact(files, capsys):
    assert main(["traces", files["PL2.mvn"], "--labels"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "<CI=0,Cro=0 (CI=0,Cro=1 CI=0,Cro=2)*>"
    assert out[2] == "<(CI=0,Cro=1 CI=0,Cro=2)*>"
    assert out[-1] == "<CI=1,Cro=2 CI=1,Cro=1 CI=1,Cro=0>"
    assert len(out) == 10


def test_abstract_traces_text_exact(files, capsys):
    assert main(["abstract", files["PL2.mvn"], files["cro.map"], "--traces"]) == 0
    assert capsys.readouterr().out == PL2_CRO_IMAGE_TEXT


def test_abstract_traces_labels(files, capsys):
    assert main(["abstract", files["PL2.mvn"], files["cro.map"], "--traces", "--labels"]) == 0
    assert capsys.readouterr().out == (
        "<CI=0,Cro=0 CI=0,Cro=1>\n"
        "<CI=0,Cro=0 CI=1,Cro=0>\n"
        "<CI=0,Cro=1>\n"
        "<CI=1,Cro=0>\n"
        "<CI=1,Cro=1 CI=0,Cro=1>\n"
        "<CI=1,Cro=1 CI=1,Cro=0>\n"
    )


def test_abstract_states_json_exits_2(files, capsys):
    assert main(["abstract", files["PL2.mvn"], files["cro.map"], "--states", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--json applies to --traces only" in captured.err


def test_traces_infinite_exits_2(files, capsys):
    assert main(["traces", files["branchy.mvn"]]) == 2
    assert "infinite" in capsys.readouterr().err


def test_abstract_states(files, capsys):
    assert main(["abstract", files["PL2.mvn"], files["cro.map"], "--states"]) == 0
    assert "12 -> 11" in capsys.readouterr().out


def test_abstract_states_labels_name_both_sides(files, capsys):
    assert main(["abstract", files["PL2.mvn"], files["cro.map"], "--states", "--labels"]) == 0
    assert capsys.readouterr().out == (
        "CI=0,Cro=0 -> CI=0,Cro=0\n"
        "CI=0,Cro=1 -> CI=0,Cro=1\n"
        "CI=0,Cro=2 -> CI=0,Cro=1\n"
        "CI=1,Cro=0 -> CI=1,Cro=0\n"
        "CI=1,Cro=1 -> CI=1,Cro=1\n"
        "CI=1,Cro=2 -> CI=1,Cro=1\n"
    )


def test_library_warning_is_one_line(files, tmp_path, capsys):
    flip = tmp_path / "flip.map"
    flip.write_text("CI: identity\nCro: 0->1, 1->0, 2->1\n", encoding="utf-8")
    assert main(["abstract", files["PL2.mvn"], str(flip), "--states"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: entity 1: state mapping (1, 0, 1) is not order-preserving\n"
    assert captured.out.startswith("00 -> 01\n")


BIG_SOURCE = """mvn BIG
entity A : 0..12
entity B : 0..12
neighbourhood A = [A]
neighbourhood B = [B]
table A:
  0,1,2,3,4,5,6,7,8,9,10,11,12 -> 0
table B:
  0,1,2,3,4,5,6,7,8,9,10,11,12 -> 0
"""

BIG_MAP = "\n".join(
    f"{e}: " + ", ".join(f"{l}->{min(l, 11)}" for l in range(13)) for e in "AB"
)


# Refuted as an abstraction of BIG: abstract A=11 steps to 10, and no
# concrete step realises that.
ABIG_SOURCE = """mvn ABIG
entity A : 0..11
entity B : 0..11
neighbourhood A = [A]
neighbourhood B = [B]
table A:
  0,1,2,3,4,5,6,7,8,9,10 -> 0
  11 -> 10
table B:
  0,1,2,3,4,5,6,7,8,9,10,11 -> 0
"""


def test_wide_labels_in_text_output(tmp_path, capsys):
    big, big_map, abig = tmp_path / "big.mvn", tmp_path / "big.map", tmp_path / "abig.mvn"
    big.write_text(BIG_SOURCE, encoding="utf-8")
    big_map.write_text(BIG_MAP, encoding="utf-8")
    abig.write_text(ABIG_SOURCE, encoding="utf-8")
    big, big_map, abig = str(big), str(big_map), str(abig)

    assert main(["abstract", big, big_map, "--states"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 169
    assert len({line.split(" -> ")[1] for line in lines}) == 144
    assert "1.11 -> 1.11" in lines
    assert "11.1 -> 11.1" in lines
    assert "12.12 -> 11.11" in lines

    assert main(["abstract", big, big_map, "--traces"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "<1.11 0.11 0.0>" in lines
    assert "<11.1 0.1 0.0>" in lines

    assert main(["check", abig, big, big_map, "--witness"]) == 1
    out = capsys.readouterr().out
    assert "failed at abstract state 11.0: " in out


def test_wide_labels_agree_in_text_and_json(tmp_path, capsys):
    big = tmp_path / "big.mvn"
    big.write_text(BIG_SOURCE, encoding="utf-8")
    assert main(["attractors", str(big)]) == 0
    assert capsys.readouterr().out == "point: {0.0}\n"
    assert main(["attractors", str(big), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [a["states"] for a in report["attractors"]] == [["0.0"]]

    assert main(["traces", str(big)]) == 0
    text = capsys.readouterr().out.replace("<", "").replace(">", "").split()
    assert main(["traces", str(big), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(text) == {s for t in report["traces"] for s in t["prefix"]}
    assert "12.12" in text


def test_abstract_traces_json(files, capsys):
    assert main(["abstract", files["PL2.mvn"], files["cro.map"],
                 "--traces", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"prefix": ["00", "01"], "loop": []} in report["traces"]
    assert len(report["traces"]) == 6


def test_candidates_writes_models(files, capsys):
    out_dir = files["dir"] / "cands"
    assert main(["candidates", files["MTRP.mvn"], files["trp.map"],
                 "--out-dir", str(out_dir)]) == 0
    written = sorted(p.name for p in out_dir.iterdir())
    assert written == [f"candidate_{k}.mvn" for k in range(4)]
    head = (out_dir / "candidate_0.mvn").read_text()
    assert head.startswith("# candidate 0 of 4")
    out = capsys.readouterr().out
    assert "choice: TrpR(1,) in [0, 1]" in out


def test_check_holds_exit_0(files, capsys):
    assert main(["check", files["APL2.mvn"], files["PL2.mvn"], files["cro.map"]]) == 0
    assert "holds" in capsys.readouterr().out


def test_check_refuted_exit_1(files, tmp_path, capsys):
    bad = tmp_path / "bad_abs.mvn"
    bad.write_text(
        fixtures.APL2_SOURCE.replace(
            "table Cro:\n  0 0 -> 1\n  0 1 -> 1\n  1 0 -> 0\n  1 1 -> 0",
            "table Cro:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 0\n  1 1 -> 0",
        ),
        encoding="utf-8",
    )
    assert main(["check", str(bad), files["PL2.mvn"], files["cro.map"],
                 "--witness"]) == 1
    out = capsys.readouterr().out
    assert "refuted" in out and "failed at abstract state 01" in out


def test_check_json_schema(files, capsys):
    assert main(["check", files["ATRP.mvn"], files["MTRP.mvn"], files["trp.map"],
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    assert report["iterations"] >= 1


def test_check_witness_prints_the_removal_chain(files, capsys):
    # MTRP candidate 2 is refuted while pruning, after five removals.
    cands = files["dir"] / "cands"
    assert main(["candidates", files["MTRP.mvn"], files["trp.map"],
                 "--out-dir", str(cands)]) == 0
    argv = ["check", str(cands / "candidate_2.mvn"), files["MTRP.mvn"], files["trp.map"]]
    capsys.readouterr()
    assert main(argv + ["--witness"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "failed at abstract state 1000: all step terms for this state were pruned",
        "  removed (0010, {0010}) — successor 0011 unrealised",
        "  removed (0011, {0011,0012}) — successor 0111 unrealised",
        "  removed (0011, {0012}) — successor 0111 unrealised",
        "  removed (0110, {0110}) — successor 0010 unrealised",
        "  removed (1000, {1000}) — successor 1001 unrealised",
    ]
    assert main(argv + ["--json"]) == 1
    assert len(json.loads(capsys.readouterr().out)["witness"]["removals"]) == 5


def test_check_structure_mismatch_exit_2(files, capsys):
    assert main(["check", files["ATRP.mvn"], files["PL2.mvn"], files["cro.map"]]) == 2
    assert "error" in capsys.readouterr().err


def test_oracle_check_exit_codes(files, capsys):
    assert main(["oracle-check", files["APL2.mvn"], files["PL2.mvn"],
                 files["cro.map"]]) == 0
    capsys.readouterr()
    assert main(["oracle-check", files["ATRP.mvn"], files["MTRP.mvn"],
                 files["trp.map"]]) == 0


def test_oracle_check_unsupported_exit_2(files, tmp_path, capsys):
    # abstract side with matching structure, concrete side infinite
    branchy3 = BRANCHY_SOURCE.replace("entity A : 0..1", "entity A : 0..2").replace(
        "table A:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 1\n  1 1 -> 1",
        "table A:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 1\n  1 1 -> 1\n"
        "  2 0 -> 2\n  2 1 -> 2",
    ).replace(
        "table B:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 0\n  1 1 -> 1",
        "table B:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 0\n  1 1 -> 1\n"
        "  2 0 -> 0\n  2 1 -> 1",
    )
    big = tmp_path / "branchy3.mvn"
    big.write_text(branchy3, encoding="utf-8")
    amap = tmp_path / "a.map"
    amap.write_text("A: 0->0,1->1,2->1\nB: identity\n", encoding="utf-8")
    out_dir = files["dir"] / "bcands"
    assert main(["candidates", str(big), str(amap), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    cand = next(iter(sorted(out_dir.iterdir())))
    assert main(["oracle-check", str(cand), str(big), str(amap)]) == 2
    assert "finite" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["validate", "/nonexistent/model.mvn"]) == 2
    assert "error" in capsys.readouterr().err


def test_state_budget_exits_2(tmp_path, monkeypatch, capsys):
    huge = tmp_path / "huge.mvn"
    huge.write_text(HUGE_SOURCE, encoding="utf-8")

    def enumerate_states(*args):
        raise AssertionError("the state space was enumerated")

    monkeypatch.setattr(semantics, "StateSpace", enumerate_states)
    assert main(["graph", str(huge), "--dot", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: model HUGE: 1152921504606846976 states exceed the budget of 1048576\n"
    )


def test_abstract_states_budget_exits_2(tmp_path, monkeypatch, capsys):
    huge = tmp_path / "huge.mvn"
    huge.write_text(HUGE_SOURCE, encoding="utf-8")
    mapping = tmp_path / "huge.map"
    mapping.write_text(
        "X0: 0->0, " + ", ".join(f"{level}->1" for level in range(1, 16)) + "\n"
        + "".join(f"X{i}: identity\n" for i in range(1, 15)),
        encoding="utf-8",
    )

    def enumerate_states(*args):
        raise AssertionError("the state space was enumerated")

    monkeypatch.setattr(cli, "state_labels", enumerate_states)
    assert main(["abstract", str(huge), str(mapping), "--states"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: model HUGE: 1152921504606846976 states exceed the budget of 1048576\n"
    )


@pytest.mark.parametrize(
    "argv", [["traces", "PL2.mvn"], ["abstract", "PL2.mvn", "cro.map", "--traces"]]
)
def test_trace_budget_exits_2(files, monkeypatch, capsys, argv):
    monkeypatch.setattr(traces, "MAX_TRACES", 9)
    assert main([files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: model PL2: 10 asynchronous traces exceed the budget of 9\n"
    )


def test_candidate_budget_exits_2(tmp_path, monkeypatch, capsys):
    model = tmp_path / "many.mvn"
    model.write_text(MANY_CHOICES_SOURCE, encoding="utf-8")
    mapping = tmp_path / "many.map"
    mapping.write_text(MANY_CHOICES_MAP, encoding="utf-8")

    def build_model(*args, **kwargs):
        raise AssertionError("a candidate model was built")

    monkeypatch.setattr(abstraction, "Mvn", build_model)
    out_dir = tmp_path / "out"
    assert main(["candidates", str(model), str(mapping), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: mapping admits 65536 candidate abstractions of MANY "
        "(16 choice points), over the budget of 16384\n"
    )
    assert not out_dir.exists()


def test_class_size_budget_exits_2(tmp_path, capsys):
    # The W2/Wide triple of test_class_size_guard: class (1, 1) has 81 states.
    abstract, model, _ = wide_triple()
    paths = []
    for name, text in (
        ("w2.mvn", serialize_model(abstract)),
        ("wide.mvn", serialize_model(model)),
        ("wide.map", "".join(f"{e}: 0->0," + ",".join(f"{v}->1" for v in range(1, 10)) + "\n"
                             for e in "XY")),
    ):
        paths.append(tmp_path / name)
        paths[-1].write_text(text, encoding="utf-8")
    assert main(["check", *map(str, paths)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: abstract state (1, 1) has 81 concrete states; subset enumeration is capped at 20\n"
    )


def test_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mvn"
    bad.write_bytes(b"mvn X\n\xff\n")
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(bad) in captured.err and "UTF-8" in captured.err


def test_byte_order_mark_is_skipped(files, tmp_path, capsys):
    bom = {}
    for name in ("PL2.mvn", "APL2.mvn", "cro.map"):
        bom[name] = tmp_path / f"bom-{name}"
        bom[name].write_bytes(b"\xef\xbb\xbf" + Path(files[name]).read_bytes())
    assert main(["validate", str(bom["PL2.mvn"])]) == 0
    assert main(["validate", str(bom["APL2.mvn"])]) == 0
    assert capsys.readouterr().out == "PL2: ok (2 entities)\nAPL2: ok (2 entities)\n"
    argv = ["check", "--json"]
    assert main([*argv, *(str(bom[n]) for n in ("APL2.mvn", "PL2.mvn", "cro.map"))]) == 0
    with_bom = capsys.readouterr()
    assert main([*argv, *(files[n] for n in ("APL2.mvn", "PL2.mvn", "cro.map"))]) == 0
    assert with_bom == capsys.readouterr()
    assert json.loads(with_bom.out)["holds"] is True


def test_abstract_traces_infinite_exits_2(files, tmp_path, capsys):
    amap = tmp_path / "b.map"
    amap.write_text("A: identity\nB: 0->0,1->0\n", encoding="utf-8")
    # B is Boolean, so this mapping is rejected before trace work; use a
    # proper one on a 3-level variant instead.
    branchy3 = (tmp_path / "branchy3.mvn")
    branchy3.write_text(
        BRANCHY_SOURCE.replace("entity A : 0..1", "entity A : 0..2").replace(
            "table A:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 1\n  1 1 -> 1",
            "table A:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 1\n  1 1 -> 1\n"
            "  2 0 -> 2\n  2 1 -> 2",
        ).replace(
            "table B:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 0\n  1 1 -> 1",
            "table B:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 0\n  1 1 -> 1\n"
            "  2 0 -> 0\n  2 1 -> 1",
        ),
        encoding="utf-8",
    )
    goodmap = tmp_path / "g.map"
    goodmap.write_text("A: 0->0,1->1,2->1\nB: identity\n", encoding="utf-8")
    assert main(["abstract", str(branchy3), str(goodmap), "--traces"]) == 2
    assert "infinite" in capsys.readouterr().err


def test_fuzz_exit_0(files, capsys):
    assert main(["fuzz", "--seed", "3", "--count", "40"]) == 0
    out = capsys.readouterr().out
    assert "40 instances" in out and "0 divergences" in out


def test_fuzz_json(files, capsys):
    assert main(["fuzz", "--seed", "3", "--count", "10", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 10 and report["divergences"] == []


def test_fuzz_negative_count_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--count: must be 0 or more" in captured.err


def test_fuzz_non_numeric_count_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--count: invalid int value: 'x'" in captured.err


def _per_state_label(model, max_levels, named):
    """One state's label, formatted state by state."""
    if named:
        return lambda s: ",".join(f"{e.name}={s[i]}" for i, e in enumerate(model.entities))
    sep = "." if any(m > 9 for m in max_levels) else ""
    return lambda s: sep.join(str(v) for v in s)


def per_state_abstract_states(model, phi, named):
    """``abstract --states`` computed state by state through ``phi.apply``."""
    source = _per_state_label(model, model.max_levels, named)
    target = _per_state_label(model, phi.target_max_levels, named)
    return "".join(f"{source(s)} -> {target(phi.apply(s))}\n" for s in iter_states(model))


def per_state_dot(graph, model):
    """``export_dot`` computed from one label per state tuple."""
    label = _per_state_label(model, model.max_levels, False)
    labels = [f'"{label(s)}"' for s in iter_states(model)]
    lines = [f'digraph "{graph.name}_{graph.semantics}" {{']
    lines.extend(f"  {text};" for text in labels)
    for u, vs in enumerate(graph.out):
        lines.extend(f"  {labels[u]} -> {labels[v]};" for v in vs)
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def listing_cases(tmp_path_factory):
    """(model, mapping) paths: the fixtures, a model with 12-level
    entities, and the three seeded 8-entity nets of the benchmark's CLI
    part (seed 1)."""
    root = tmp_path_factory.mktemp("listings")
    cases = []
    for name, model, mapping in [
        ("pl2", fixtures.PL2_SOURCE, fixtures.RHO_CRO_SOURCE),
        ("mtrp", fixtures.MTRP_SOURCE, fixtures.PHI_TRP_SOURCE),
        ("big", BIG_SOURCE, BIG_MAP),
    ]:
        (root / f"{name}.mvn").write_text(model, encoding="utf-8")
        (root / f"{name}.map").write_text(mapping, encoding="utf-8")
        cases.append((str(root / f"{name}.mvn"), str(root / f"{name}.map")))
    items = workloads.Cli().setup(SimpleNamespace(fixtures=fixtures), 1, workloads.Cli.sizes, root)
    nets = [argv[1:3] for argv, _, _ in items if argv[0] == "abstract" and "--states" in argv[1:]]
    nets = [pair for pair in nets if "net" in Path(pair[0]).name]
    assert len(nets) == 3
    return cases + nets


@pytest.mark.parametrize("named", [False, True])
def test_abstract_states_matches_per_state_listing(listing_cases, capsys, named):
    for model_path, map_path in listing_cases:
        model = parse_model(Path(model_path).read_text(encoding="utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonMonotoneMappingWarning)
            phi = parse_mapping(Path(map_path).read_text(encoding="utf-8"), model)
        argv = ["abstract", model_path, map_path, "--states"] + ["--labels"] * named
        assert main(argv) == 0
        assert capsys.readouterr().out == per_state_abstract_states(model, phi, named)


def test_dot_matches_per_state_listing(listing_cases, capsys):
    for model_path, _ in listing_cases:
        model = parse_model(Path(model_path).read_text(encoding="utf-8"))
        for discipline in (semantics.ASYNC, semantics.SYNC):
            graph = semantics.build_state_graph(model, discipline)
            expected = per_state_dot(graph, model)
            assert export_dot(graph) == expected
            assert main(["graph", model_path, "--semantics", discipline, "--dot", "-"]) == 0
            assert capsys.readouterr().out == expected


@pytest.mark.parametrize("discipline", [semantics.ASYNC, semantics.SYNC])
def test_dot_file_matches_stdout_and_per_state_listing(listing_cases, tmp_path, capsys,
                                                       discipline):
    for k, (model_path, _) in enumerate(listing_cases):
        model = parse_model(Path(model_path).read_text(encoding="utf-8"))
        graph = semantics.build_state_graph(model, discipline)
        assert main(["graph", model_path, "--semantics", discipline, "--dot", "-"]) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / f"graph{k}.dot"
        assert main(["graph", model_path, "--semantics", discipline, "--dot", str(target)]) == 0
        assert capsys.readouterr().out == (
            f"wrote {target} ({len(graph.nodes)} nodes, {graph.edge_count} edges)\n"
        )
        assert target.read_bytes() == stdout.encode("utf-8")
        assert stdout == per_state_dot(graph, model)


def _as_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def per_state_attractors(model, discipline, named, as_json):
    """``attractors`` output, each attractor's states sorted and labelled
    one by one; JSON keeps digit labels under ``--labels``."""
    result = semantics.attractors(semantics.build_state_graph(model, discipline))
    label = _per_state_label(model, model.max_levels, named and not as_json)
    if as_json:
        return _as_json({
            "type": "attractors",
            "semantics": discipline,
            "attractors": [
                {"kind": a.kind, "states": [label(s) for s in sorted(a.states)],
                 "terminal": a.terminal}
                for a in result.attractors
            ],
        })
    lines = []
    for a in result.attractors:
        states = " ".join(label(s) for s in sorted(a.states))
        lines.append(f"{a.kind}: {{{states}}}" + ("" if a.terminal else " (has exits)"))
    return "".join(line + "\n" for line in lines)


def per_state_lassos(lassos, model, max_levels, named, as_json):
    """``traces`` and ``abstract --traces`` output: lassos by state
    sequence, then by loop, each state labelled one by one."""
    label = _per_state_label(model, max_levels, named and not as_json)
    ordered = sorted(lassos, key=lambda t: (t.prefix + t.loop, t.loop))
    if as_json:
        return _as_json({"type": "traces", "traces": [
            {"prefix": [label(s) for s in t.prefix], "loop": [label(s) for s in t.loop]}
            for t in ordered
        ]})
    lines = []
    for t in ordered:
        prefix = " ".join(label(s) for s in t.prefix)
        if t.is_finite:
            lines.append(f"<{prefix}>")
        else:
            loop = " ".join(label(s) for s in t.loop)
            lines.append(f"<{prefix} ({loop})*>".replace("< ", "<"))
    return "".join(line + "\n" for line in lines)


def per_state_check(mv1, mv2, phi, witness, as_json):
    """``check`` output, the witness's states labelled one by one."""
    result = check_asyn_abs(mv1, mv2, phi)
    label = _per_state_label(mv1, mv1.max_levels, False)
    concrete = _per_state_label(mv2, mv2.max_levels, False)
    w = result.witness
    if as_json:
        stats = result.stats
        return _as_json({
            "type": "check", "holds": result.holds, "iterations": stats.iterations,
            "abstract_states": stats.abstract_states, "max_class_size": stats.max_class_size,
            "initial_terms": stats.initial_terms, "removed_terms": stats.removed_terms,
            "surviving_terms": {label(s): n for s, n in stats.surviving_terms.items()},
            "witness": None if w is None else {
                "state": label(w.state),
                "reason": w.reason,
                "removals": [
                    {"state": label(r.state), "gamma": [concrete(s) for s in sorted(r.gamma)],
                     "failed_successor": label(r.failed_successor),
                     "missing_gamma": [concrete(s) for s in sorted(r.missing_gamma)]}
                    for r in w.removals
                ],
            },
        })
    lines = [f"{mv1.name} abstracts {mv2.name}: {'holds' if result.holds else 'refuted'} "
             f"({result.stats.iterations} iterations, "
             f"{result.stats.initial_terms} initial step terms)"]
    if witness and w is not None:
        lines.append(f"failed at abstract state {label(w.state)}: {w.reason}")
        for r in w.removals:
            gamma = ",".join(concrete(s) for s in sorted(r.gamma))
            lines.append(f"  removed ({label(r.state)}, {{{gamma}}}) — "
                         f"successor {label(r.failed_successor)} unrealised")
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def report_files(tmp_path_factory):
    """Paths of the fixtures, ``BIG_SOURCE``, ``ABIG_SOURCE`` and the
    four MTRP candidates under the tryptophan mapping."""
    root = tmp_path_factory.mktemp("reports")
    texts = {
        "PL2.mvn": fixtures.PL2_SOURCE, "APL2.mvn": fixtures.APL2_SOURCE,
        "MTRP.mvn": fixtures.MTRP_SOURCE, "ATRP.mvn": fixtures.ATRP_SOURCE,
        "BIG.mvn": BIG_SOURCE, "ABIG.mvn": ABIG_SOURCE,
        "cro.map": fixtures.RHO_CRO_SOURCE, "trp.map": fixtures.PHI_TRP_SOURCE,
        "big.map": BIG_MAP,
    }
    candidates = abstraction.enumerate_candidates(fixtures.mtrp(), fixtures.phi_trp()).models
    assert len(candidates) == 4
    for k, cand in enumerate(candidates):
        texts[f"cand{k}.mvn"] = serialize_model(cand)
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    return {name: str(root / name) for name in texts}


def _model(path):
    return parse_model(Path(path).read_text(encoding="utf-8"))


REPORT_MODELS = ["PL2.mvn", "APL2.mvn", "MTRP.mvn", "ATRP.mvn", "BIG.mvn",
                 "cand0.mvn", "cand1.mvn", "cand2.mvn", "cand3.mvn"]


@pytest.mark.parametrize("flags", [[], ["--labels"], ["--json"], ["--json", "--labels"]])
@pytest.mark.parametrize("discipline", [semantics.ASYNC, semantics.SYNC])
def test_attractors_match_per_state_report(report_files, capsys, discipline, flags):
    for name in REPORT_MODELS:
        path = report_files[name]
        expected = per_state_attractors(
            _model(path), discipline, "--labels" in flags, "--json" in flags
        )
        assert main(["attractors", path, "--semantics", discipline] + flags) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("flags", [[], ["--labels"], ["--json"]])
def test_traces_match_per_state_report(report_files, capsys, flags):
    compared = 0
    for name in REPORT_MODELS:
        model = _model(report_files[name])
        if not traces.trace_set_is_finite(semantics.build_state_graph(model, semantics.ASYNC)):
            continue
        expected = per_state_lassos(traces.async_traces(model), model, model.max_levels,
                                    "--labels" in flags, "--json" in flags)
        assert main(["traces", report_files[name]] + flags) == 0
        assert capsys.readouterr().out == expected
        compared += 1
    assert compared == 8  # candidate 2 has infinitely many traces


@pytest.mark.parametrize("flags", [[], ["--labels"], ["--json"]])
def test_abstract_traces_match_per_state_report(report_files, capsys, flags):
    for name, mapping in [("PL2.mvn", "cro.map"), ("MTRP.mvn", "trp.map"),
                          ("BIG.mvn", "big.map")]:
        model = _model(report_files[name])
        phi = parse_mapping(Path(report_files[mapping]).read_text(encoding="utf-8"), model)
        image = abstraction.abstract_trace_set(phi, traces.async_traces(model))
        expected = per_state_lassos(image, model, phi.target_max_levels,
                                    "--labels" in flags, "--json" in flags)
        argv = ["abstract", report_files[name], report_files[mapping], "--traces"]
        assert main(argv + flags) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("flags", [[], ["--witness"], ["--json"], ["--witness", "--json"]])
def test_check_matches_per_state_report(report_files, capsys, flags):
    triples = [("APL2.mvn", "PL2.mvn", "cro.map"), ("ATRP.mvn", "MTRP.mvn", "trp.map"),
               ("ABIG.mvn", "BIG.mvn", "big.map")]
    triples += [(f"cand{k}.mvn", "MTRP.mvn", "trp.map") for k in range(4)]
    verdicts = []
    for names in triples:
        paths = [report_files[name] for name in names]
        mv1, mv2 = _model(paths[0]), _model(paths[1])
        phi = parse_mapping(Path(paths[2]).read_text(encoding="utf-8"), mv2)
        expected = per_state_check(mv1, mv2, phi, "--witness" in flags, "--json" in flags)
        verdicts.append(main(["check", *paths] + flags))
        assert capsys.readouterr().out == expected
    assert verdicts == [0, 0, 1, 0, 1, 1, 1]


def joined_report(result, *max_levels):
    """The JSON report built whole, as one string, before it was
    written to its stream piece by piece."""
    obj = report(result, *map(state_labeler, max_levels))
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_json_reports_match_the_joined_text(report_files, capsys):
    cases = []
    for name in REPORT_MODELS:
        path, model = report_files[name], _model(report_files[name])
        for discipline in (semantics.ASYNC, semantics.SYNC):
            result = semantics.attractors(semantics.build_state_graph(model, discipline))
            argv = ["attractors", path, "--semantics", discipline, "--json"]
            cases.append((argv, 0, result, [model.max_levels]))
        if traces.trace_set_is_finite(semantics.build_state_graph(model, semantics.ASYNC)):
            cases.append((["traces", path, "--json"], 0, traces.async_traces(model),
                          [model.max_levels]))
    for name, mapping in [("PL2.mvn", "cro.map"), ("MTRP.mvn", "trp.map"),
                          ("BIG.mvn", "big.map")]:
        model = _model(report_files[name])
        phi = parse_mapping(Path(report_files[mapping]).read_text(encoding="utf-8"), model)
        image = abstraction.abstract_trace_set(phi, traces.async_traces(model))
        argv = ["abstract", report_files[name], report_files[mapping], "--traces", "--json"]
        cases.append((argv, 0, image, [phi.target_max_levels]))
    triples = [("APL2.mvn", "PL2.mvn", "cro.map"), ("ATRP.mvn", "MTRP.mvn", "trp.map"),
               ("ABIG.mvn", "BIG.mvn", "big.map")]
    triples += [(f"cand{k}.mvn", "MTRP.mvn", "trp.map") for k in range(4)]
    for names in triples:
        paths = [report_files[name] for name in names]
        mv1, mv2 = _model(paths[0]), _model(paths[1])
        phi = parse_mapping(Path(paths[2]).read_text(encoding="utf-8"), mv2)
        result = check_asyn_abs(mv1, mv2, phi)
        cases.append((["check", *paths, "--json"], 0 if result.holds else 1, result,
                      [mv1.max_levels, mv2.max_levels]))
    assert len(cases) == 9 * 2 + 8 + 3 + 7
    for argv, code, result, max_levels in cases:
        expected = joined_report(result, *max_levels)
        assert export_report(result, *max_levels) == expected
        assert main(argv) == code
        assert capsys.readouterr().out == expected

def test_parser_is_built_once_and_dispatch_reads_the_module(files, monkeypatch, capsys):
    assert main(["validate", files["PL2.mvn"]]) == 0
    assert cli._parser() is cli._parser()
    seen = []

    def replaced(args):
        seen.append(args.model)
        return 0

    monkeypatch.setattr(cli, "cmd_validate", replaced)
    assert main(["validate", files["MTRP.mvn"]]) == 0
    assert seen == [files["MTRP.mvn"]]
    assert "ok" in capsys.readouterr().out  # only from the first call
