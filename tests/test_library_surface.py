"""The library holds no public code that the program never names.

Every public module-level function or class in ``src/systolic``, and every
public method of a class there, must be named somewhere under ``src/`` or
``bench/``: as a name, an attribute or a string constant equal to it (the
bench looks some functions up by name).  A definition does not name
itself, and dunders are exempt.  What only the tests use belongs in the
tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "systolic").glob("*.py"))
PROGRAM = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(qualified name, name) of each public top-level def and class, and
    of each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if _public(node.name):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _named(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_definition_is_named_by_the_program():
    named = set().union(*(_named(ast.parse(p.read_text())) for p in PROGRAM))
    unnamed = [f"{path.name}: {qual}" for path in LIBRARY
               for qual, name in _definitions(ast.parse(path.read_text()))
               if name not in named]
    assert unnamed == []


def test_the_scan_sees_an_unnamed_definition():
    tree = ast.parse("def used(): pass\n"
                     "def unused(): used()\n"
                     "class Box:\n"
                     "    def __init__(self): pass\n"
                     "    def get(self): return self.put\n"
                     "    def put(self): pass\n"
                     "    def _hidden(self): pass\n"
                     "getattr(Box, 'looked_up')\n")
    named = _named(tree)
    assert [q for q, n in _definitions(tree) if n not in named] == ["unused", "Box.get"]
