"""No module of the package imports a name it never uses.

A name counts as used when the module reads it anywhere, annotations
included, or lists it in its ``__all__``. Only the standard library's ast
is needed, so the check runs wherever the tests do.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import palatogram

SOURCES = sorted(Path(palatogram.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_name():
    source = "from .dome import DomeSlice, slice_at\nimport os\n__all__ = ['os']\nslice_at\n"
    assert unused_imports(source) == ["DomeSlice (line 1)"]


def test_every_module_is_checked():
    assert {"__init__.py", "epg.py", "shaping.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
