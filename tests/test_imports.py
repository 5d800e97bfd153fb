import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mubcert").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def exported(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names a module imports and never reads, apart from its ``__all__``."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - exported(tree)


def test_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, numpy as np\nfrom a import b, c\n"
                     "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(tree) == {"os", "b"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == set()


def top_level_names(trees: list[ast.Module]) -> tuple[set[str], set[str], set[str]]:
    """Top-level functions, top-level constants, and the names any module reads.

    A read is a name or attribute load.  A read inside the name's own
    definition, such as recursion, does not count.
    """
    functions, constants, read = set(), set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                own = {node.name}
                functions.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
                constants.update(own)
            else:
                own = set()
            loads = [sub for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))
                     and isinstance(sub.ctx, ast.Load)]
            read.update({sub.id if isinstance(sub, ast.Name) else sub.attr for sub in loads} - own)
    return functions, constants, read


def unreferenced_private_names(trees: list[ast.Module]) -> set[str]:
    """Module-private top-level functions and constants no module reads.

    A name is private if it starts with ``_`` and is no dunder.
    """
    functions, constants, read = top_level_names(trees)
    return {n for n in functions | constants
            if n.startswith("_") and not n.endswith("__")} - read


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


def unexported_public_helpers(trees: list[ast.Module]) -> set[str]:
    """Public top-level functions no module reads and no ``__all__`` exports."""
    functions, _, read = top_level_names(trees)
    return ({n for n in functions if not n.startswith("_")} - read
            - set().union(*map(exported, trees)))


def test_scan_finds_an_unexported_public_helper():
    module = ast.parse("def used():\n    pass\n"
                       "def stranded():\n    pass\n"
                       "def recursive(n):\n    return recursive(n - 1)\n"
                       "def exported():\n    pass\n"
                       "def by_attribute():\n    pass\n"
                       "def _private():\n    pass\n")
    caller = ast.parse("import m\nfrom m import used, exported\n"
                       "__all__ = ['exported']\nused()\nm.by_attribute()\n")
    assert unexported_public_helpers([module, caller]) == {"stranded", "recursive"}


# Public functions that only tests, acceptance checks or users call.  A
# refactor that strands a helper deletes it or adds it here.
TEST_ONLY_HELPERS = {
    "depolarized_pair",
    "detection_probabilities",
    "noise_averaged_asp",
    "propagate_error",
    "random_unitary",
    "sample_source",
    "validate_povm",
}


def test_public_helpers_no_module_reads_are_pinned():
    trees = [ast.parse(path.read_text()) for path in PACKAGE]
    assert unexported_public_helpers(trees) == TEST_ONLY_HELPERS


def calls_of(tree: ast.Module, module: str, name: str) -> list[ast.Call]:
    """Calls of ``module.name`` in a tree, however the module is aliased on import."""
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == module}
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == name
            and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases]


def test_scan_finds_calls_through_an_alias():
    tree = ast.parse("import json as j, numpy as np\nimport numpy\n"
                     "j.dumps(1, indent=2)\nnp.loadtxt(f)\nnumpy.loadtxt(g)\nloadtxt(h)\n")
    assert len(calls_of(tree, "json", "dumps")) == 1
    assert len(calls_of(tree, "numpy", "loadtxt")) == 2


def test_one_json_writer_and_one_counts_parser():
    # every indented document is written by counts.document_json, and every
    # counts body is parsed by the accept test's np.fromstring or the per-line loop
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        indented = [call.lineno for call in calls_of(tree, "json", "dumps")
                    if any(k.arg == "indent" for k in call.keywords)]
        assert indented == [], f"{path.name}: json.dumps(indent=...) at lines {indented}"
        loadtxt = [call.lineno for call in calls_of(tree, "numpy", "loadtxt")]
        assert loadtxt == [], f"{path.name}: np.loadtxt at lines {loadtxt}"
