"""Every name a package module imports is used in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "centaut"


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_import(path):
    """An imported name must be read somewhere in the module, on its own
    or as the base of an attribute (a Name node either way); __init__
    imports to re-export, so it is left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, sorted(imported - used)
