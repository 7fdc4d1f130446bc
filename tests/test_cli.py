import json

import pytest

from mvnabs import abstraction, fixtures, semantics
from mvnabs.cli import main
from tests.test_abstraction import MANY_CHOICES_MAP, MANY_CHOICES_SOURCE
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

    def enumerate_states(model):
        raise AssertionError("the state space was enumerated")

    monkeypatch.setattr(semantics, "iter_states", enumerate_states)
    assert main(["graph", str(huge), "--dot", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: model HUGE: 1152921504606846976 states exceed the budget of 1048576\n"
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


def test_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mvn"
    bad.write_bytes(b"mvn X\n\xff\n")
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(bad) in captured.err and "UTF-8" in captured.err


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
