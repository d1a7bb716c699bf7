"""Source checks on the library modules, read with ``ast``.

Internal invariants are ``GaleKitError`` raises, never ``assert`` (which
``python -O`` strips), and the library imports only itself and the
standard library (the empty dependency list of ``pyproject.toml``).
"""

import ast
from pathlib import Path
import sys

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "galekit").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}; raise GaleKitError"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_galekit_and_stdlib(path):
    foreign = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "galekit" and top not in sys.stdlib_module_names:
                foreign.append(f"{name} (line {node.lineno})")
    assert not foreign, f"{path.name}: non-stdlib imports {foreign}"
