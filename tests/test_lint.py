"""Source rules that hold for the whole package."""
from __future__ import annotations

import ast
from pathlib import Path

import latmax

SOURCES = sorted(Path(latmax.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statement():
    # `python -O` strips assert statements, so no check may rest on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
