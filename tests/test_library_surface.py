"""The library holds no code that the program never names.

Every module-level function or class in ``src/systolic``, and every method
of a class there, public or private, must be named somewhere under
``src/`` or ``bench/``: as a name, an attribute or a string constant equal
to it (the bench looks some functions up by name).  A definition does not
name itself, and dunders are exempt.  What only the tests use belongs in
the tests.

Likewise every attribute that a class there stores on ``self`` must be
read, as an attribute, somewhere under ``src/`` or ``bench/``; an
augmented assignment such as ``self.n += 1`` stores and does not count as
a read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "systolic").glob("*.py"))
PROGRAM = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level def and class, and of each
    method of a top-level class, but the dunders."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if not _dunder(node.name):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not _dunder(item.name):
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


def _stored(tree: ast.Module):
    """(qualified name, attribute) of each attribute that a top-level class
    stores on ``self``, once each."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            attrs = {sub.attr for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                     and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
            for attr in sorted(attrs):
                yield f"{node.name}.{attr}", attr


def _read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _unnamed(private: bool) -> list[str]:
    """Each public, or each private, definition that the program never names."""
    named = set().union(*(_named(ast.parse(p.read_text())) for p in PROGRAM))
    return [f"{path.name}: {qual}" for path in LIBRARY
            for qual, name in _definitions(ast.parse(path.read_text()))
            if name.startswith("_") == private and name not in named]


def test_every_public_definition_is_named_by_the_program():
    assert _unnamed(private=False) == []


def test_every_private_definition_is_named_by_the_program():
    # a private name the tests alone call is test-only code too
    assert _unnamed(private=True) == []


def test_the_scan_sees_an_unnamed_definition():
    tree = ast.parse("def used(): pass\n"
                     "def unused(): used()\n"
                     "class Box:\n"
                     "    def __init__(self): pass\n"
                     "    def get(self): return self.put\n"
                     "    def put(self): pass\n"
                     "    def _hidden(self): pass\n"
                     "    def _kept(self): return self._hidden\n"
                     "def _helper(): pass\n"
                     "getattr(Box, 'looked_up')\n")
    named = _named(tree)
    assert [q for q, n in _definitions(tree) if n not in named] == \
        ["unused", "Box.get", "Box._kept", "_helper"]


def test_every_stored_attribute_is_read_by_the_program():
    read = set().union(*(_read(ast.parse(p.read_text())) for p in PROGRAM))
    stored = [(f"{path.name}: {qual}", attr) for path in LIBRARY
              for qual, attr in _stored(ast.parse(path.read_text()))]
    assert stored  # the scan sees the engine's plans and arrays
    assert [qual for qual, attr in stored if attr not in read] == []


def test_the_scan_sees_an_unread_attribute():
    tree = ast.parse("class Box:\n"
                     "    def __init__(self):\n"
                     "        self.kept, self.dropped = 1, 2\n"
                     "        self.count = 0\n"
                     "        self._seen: set = set()\n"
                     "    def get(self, other):\n"
                     "        self.count += 1\n"
                     "        other.dropped = 3\n"
                     "        return self.kept, self._seen\n")
    read = _read(tree)
    assert [q for q, attr in _stored(tree) if attr not in read] == ["Box.count", "Box.dropped"]
