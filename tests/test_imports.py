"""Every name a wallforge module imports is used in that module.

Each ``src/wallforge/*.py`` is parsed with ``ast``; a name bound by an
``import`` or ``from ... import`` statement, anywhere in the module, must be
read somewhere in the same module (as a bare name, or as the head of an
attribute chain) or be listed in ``__all__``.  ``from __future__`` imports
are compiler directives and exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import wallforge

PACKAGE = Path(wallforge.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of the import that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list:
    """``(line, name)`` for every imported name the source never reads."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport os.path\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == [(1, "field"), (2, "os")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
