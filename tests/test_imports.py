"""Every name a cpdist module imports is used there (or re-exported), and
every module-level private name and UPPER_CASE constant is read somewhere
other than its definition."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cpdist"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom x import a, b\n__all__ = ['b']\n"
    assert unused_imports(source) == [(1, "os"), (2, "a")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_names(sources: dict, wanted) -> list:
    """(module, line, name) of each module-level name, defined by a top-level
    statement `node` with wanted(node, name) true, that no top-level
    statement of any module other than its own definition reads (an AST
    load of the name or of an attribute by that name)."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                names = set()
            defined.extend((module, node.lineno, name)
                           for name in names if wanted(node, name))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    ref = sub.id
                elif (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Load)):
                    ref = sub.attr
                else:
                    continue
                if ref not in names:
                    used.add(ref)
    return sorted(entry for entry in defined if entry[2] not in used)


def dead_privates(sources: dict) -> list:
    """Module-level private names (one leading underscore) left unread."""
    return unread_names(sources, lambda node, name: (
        name.startswith("_") and not name.startswith("__")))


def unread_constants(sources: dict) -> list:
    """Module-level UPPER_CASE constants left unread."""
    return unread_names(sources, lambda node, name: (
        isinstance(node, (ast.Assign, ast.AnnAssign)) and name.isupper()))


def test_the_check_sees_a_dead_private():
    sources = {"a": "def _loop():\n    return _loop()\n_LIMIT = 3\n"
                    "def _kept():\n    return 1\n",
               "b": "from a import _kept\nX = _kept() + _kept()\n"}
    assert dead_privates(sources) == [("a", 1, "_loop"), ("a", 3, "_LIMIT")]


def test_the_check_sees_a_constant_left_behind():
    sources = {"a": "RTOL = 1e-8\nCUTOFF = 1e-10\nLIMIT = LIMIT_BASE = 2\n"
                    "__all__ = ['RTOL']\n",
               "b": "from a import RTOL, CUTOFF\nimport a\n"
                    "def f(x):\n    return x > CUTOFF * a.LIMIT\n"}
    assert unread_constants(sources) == [("a", 1, "RTOL"),
                                         ("a", 3, "LIMIT_BASE")]


def sources_of_the_package() -> dict:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py"))}


def test_no_dead_private_helpers():
    assert dead_privates(sources_of_the_package()) == []


def test_no_constant_left_unread():
    assert unread_constants(sources_of_the_package()) == []
