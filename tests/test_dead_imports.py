"""Every module of the package uses what it imports and defines what it exports.

Read from the source with ``ast``: a name a module imports must be read
somewhere in it (or listed in its ``__all__``), and every name in a literal
``__all__`` must be bound at module level.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "orbit_kahler").glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Name bound by each module-level import -> its line; star imports bind none."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update((alias.asname or alias.name, node.lineno)
                       for alias in node.names if alias.name != "*")
    return out


def _exported(tree: ast.Module):
    """The names of a literal ``__all__``, or None."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            try:
                return ast.literal_eval(node.value)
            except ValueError:
                return None
    return None


def _bound(tree: ast.Module) -> set:
    """Names a module binds at module level."""
    out = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _read(tree: ast.Module) -> set:
    """Names the module reads, those of string annotations included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            out |= _read(ast.parse(annotation.value, mode="eval"))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _read(tree) | set(_exported(tree) or ())
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text())
    assert sorted(set(_exported(tree) or ()) - _bound(tree)) == []
