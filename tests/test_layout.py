"""Module layout: no module reaches into a sibling's private names or
imports a name it never uses."""

import ast
from pathlib import Path

import pytest

_SOURCES = sorted(
    path for path in (Path(__file__).resolve().parents[1] / "src" / "qtraj").glob("*.py")
    if path.name != "__init__.py"
)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _imports(tree: ast.Module):
    """(bound name, imported name, node) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), alias.name, node


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_private_sibling_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        name
        for _, name, node in _imports(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and _is_private(name)
    ]
    assert not private, f"{path.name} imports private names {private}"


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [bound for bound, _, _ in _imports(tree) if bound not in used]
    assert not unused, f"{path.name} imports unused names {unused}"
