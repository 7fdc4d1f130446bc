"""The README's library quick start runs and its comments hold."""

import ast
from pathlib import Path

from tests.test_checker import _merged_image

README = Path(__file__).resolve().parent.parent / "README.md"


def run_quick_start() -> tuple[dict, dict]:
    """Run the README's ``python`` block one statement at a time.

    Returns the final namespace and the value of every bare expression,
    keyed by its source text.
    """
    text = README.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values: dict = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    return namespace, values


def test_quick_start_runs_as_its_comments_state():
    namespace, values = run_quick_start()
    found = values["M.attractors(graph)"]
    assert {(a.kind, a.states) for a in found.attractors} == {
        ("point", frozenset({(1, 0)})),
        ("scc", frozenset({(0, 1), (0, 2)})),
    }
    assert len(namespace["traces"]) == 10
    assert len(values["M.abstract_trace_set(phi, traces)"]) == 6
    assert values["result.holds"] is True
    path = values["M.witness_path(result.family, ((1, 1), (0, 1)))"]
    assert _merged_image(namespace["phi"], path) == ((1, 1), (0, 1))
    assert values["M.oracle_check(fixtures.apl2(), pl2, phi)"] is True
