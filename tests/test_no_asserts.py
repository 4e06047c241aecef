"""Library invariants raise errors; ``assert`` statements vanish under ``-O``."""

from __future__ import annotations

import ast
from pathlib import Path

import mialib

SOURCES = sorted(Path(mialib.__file__).parent.glob("*.py"))


def test_library_sources_are_found():
    assert Path(mialib.__file__).parent / "model.py" in SOURCES


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
