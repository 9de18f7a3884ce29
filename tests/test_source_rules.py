"""Rules the library source keeps, checked on its syntax tree.

No `assert` statement and no `__debug__` name: `python -O` strips both,
so a check written that way vanishes and the run time changes under -O.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gapsets").glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"census.py", "cli.py", "core.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_check_that_python_O_strips(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []
