"""Every name a module of the package imports is used in that module.

No linter ships with the package, and a deletion can leave its imports
behind.  ``__init__.py`` is skipped: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import mvnabs

MODULES = sorted(p for p in Path(mvnabs.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd()\n"
    tree = ast.parse(source)
    assert _unused_imports(tree) == ["os (line 2)", "c (line 3)"]
