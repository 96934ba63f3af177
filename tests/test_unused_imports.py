"""No module of the package imports a name it never uses, or defines a private one none reads.

Nor does any module but ``_frozen.py`` call ``object.__setattr__``: how a
frozen value stores its fields is decided there alone.

A name counts as used when the module reads it anywhere, annotations
included, or lists it in its ``__all__``. A module-level name with one
leading underscore counts as read when some module of the package reads it,
as a name, an attribute or an import, so a simplification leaves no helper
behind. Only the standard library's ast is needed, so the checks run
wherever the tests do.
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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level names with one leading underscore that no module reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [
                f"{module}: {name} (line {node.lineno})"
                for name in bound
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return dead


def test_the_check_sees_a_dead_private_name():
    sources = {
        "a.py": "_ON, _OFF = 1, 2\n_KEPT: int = 3\ndef _helper():\n    return _ON\n__all__ = []\n",
        "b.py": "from . import a\nfrom .a import _helper\n_helper(a._KEPT)\n",
    }
    assert dead_private_names(sources) == ["a.py: _OFF (line 1)"]


def test_no_dead_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert dead_private_names(sources) == []


def frozen_writes(source: str) -> list[int]:
    """The lines that call object.__setattr__, which writes past a Frozen value's __setattr__."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]


def test_the_check_sees_a_frozen_write():
    source = (
        "class A(Frozen):\n"
        "    def __init__(self, x, y):\n"
        "        self._set(x, y)\n"
        "        object.__setattr__(self, 'y', abs(y))\n"
        "        setattr(self, 'x', x)\n"
    )
    assert frozen_writes(source) == [4]


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "_frozen.py"], ids=lambda path: path.name
)
def test_only_frozen_writes_fields(path):
    # a constructor stores its fields through Frozen._set
    assert frozen_writes(path.read_text(encoding="utf-8")) == []
