"""Every name a module of the package imports is read in that module.

The package's __init__.py re-exports what it imports and is exempt, as are
`from __future__` imports.
"""
import ast
from pathlib import Path

import pytest

import bubbletower

MODULES = sorted(p for p in Path(bubbletower.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert not imported - read, f"{path.name} imports but never reads {sorted(imported - read)}"
