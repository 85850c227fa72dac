"""Every name a wallforge module imports is used, and no private helper is dead.

Each ``src/wallforge/*.py`` is parsed with ``ast``; a name bound by an
``import`` or ``from ... import`` statement, anywhere in the module, must be
read somewhere in the same module (as a bare name, or as the head of an
attribute chain) or be listed in ``__all__``.  ``from __future__`` imports
are compiler directives and exempt.

A ``_``-prefixed function, class or method defined at module level (or
directly in a module-level class) is private to the package, so something
in the package must name it: a bare name, an attribute, or a string
constant such as a ``getattr`` key.  Dunder methods are exempt.

Every name that ``bench/tracer.py`` wraps exists where the tracer looks for
it, since its ``Recorder.install`` stops on a missing one.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
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


def _private_definitions(tree: ast.Module) -> list:
    """``(line, name)`` of each private module-level function, class or method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [node for node in tree.body if isinstance(node, kinds)]
    nodes += [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, kinds)
    ]
    return [
        (node.lineno, node.name)
        for node in nodes
        if node.name.startswith("_") and not node.name.endswith("__")
    ]


def _referenced(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced_private_definitions(sources: dict) -> list:
    """``(file, line, name)`` for every private definition nothing names.

    ``sources`` maps file names to their text; a reference in any of them
    counts, the definition's own ``def`` or ``class`` line does not.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set().union(*map(_referenced, trees.values()))
    return sorted(
        (name, line, defined)
        for name, tree in trees.items()
        for line, defined in _private_definitions(tree)
        if defined not in referenced
    )


def test_the_check_sees_an_unreferenced_private_definition():
    source = (
        "def _used():\n    pass\n"
        "def _dead():\n    pass\n"
        "def _by_key():\n    pass\n"
        "class _Box:\n"
        "    def __init__(self):\n        self._seen()\n"
        "    def _seen(self):\n        pass\n"
        "    def _unseen(self):\n        pass\n"
        "def public():\n    def _nested():\n        pass\n"
        "    return _used, _Box, globals()['_by_key']\n"
    )
    assert unreferenced_private_definitions({"m.py": source}) == [
        ("m.py", 3, "_dead"),
        ("m.py", 12, "_unseen"),
    ]
    # a reference from another module of the package counts
    other = "import m\nm._dead()\nm._Box._unseen\n"
    assert unreferenced_private_definitions({"m.py": source, "n.py": other}) == []


def test_every_private_definition_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private_definitions(sources) == []


def test_every_name_the_bench_tracer_wraps_exists():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for entries in tracer.LAYERS.values():
        for mod, qual, _ in entries:
            owner_name, _, attr = qual.rpartition(".")
            owner = importlib.import_module(f"wallforge.{mod}")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            # the tracer reads a method from its class's own namespace
            if owner is None or attr not in vars(owner):
                missing.append(f"{mod}.{qual}")
    assert missing == []
