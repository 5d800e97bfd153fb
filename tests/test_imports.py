import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mubcert").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(tree: ast.Module) -> set[str]:
    """Names a module imports and never reads, apart from its ``__all__``."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, numpy as np\nfrom a import b, c\n"
                     "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(tree) == {"os", "b"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == set()


def unreferenced_private_names(trees: list[ast.Module]) -> set[str]:
    """Module-private top-level functions and constants no module reads.

    A name is private if it starts with ``_`` and is no dunder.  A read
    inside the name's own definition, such as recursion, does not count.
    """
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                own = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined.update(n for n in own if n.startswith("_") and not n.endswith("__"))
            loads = [sub for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))
                     and isinstance(sub.ctx, ast.Load)]
            read.update({sub.id if isinstance(sub, ast.Name) else sub.attr for sub in loads} - own)
    return defined - read


def test_scan_finds_an_unreferenced_private_helper():
    module = ast.parse("_LIMIT = 3\n__all__ = []\n"
                       "def _dead():\n    return _LIMIT\n"
                       "def _loop(n):\n    return _loop(n - 1)\n"
                       "def _imported():\n    pass\n"
                       "def _by_attribute():\n    pass\n")
    caller = ast.parse("import m\nfrom m import _imported\n"
                       "_imported()\nm._by_attribute()\n")
    assert unreferenced_private_names([module, caller]) == {"_dead", "_loop"}


def test_every_private_helper_is_referenced():
    trees = [ast.parse(path.read_text()) for path in PACKAGE]
    assert unreferenced_private_names(trees) == set()
