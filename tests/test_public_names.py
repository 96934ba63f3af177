"""Every name a module exports exists, and is exported once.

A name cut from the package but left in an ``__all__`` would break
``from palatogram import *`` only when someone runs it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import palatogram

MODULES = [palatogram] + [
    importlib.import_module(f"palatogram.{info.name}")
    for info in pkgutil.iter_modules(palatogram.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_the_package_and_its_modules_export_names():
    names = {module.__name__ for module in EXPORTING}
    assert {"palatogram", "palatogram.render", "palatogram.dome", "palatogram.cli"} <= names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_exported_names_exist_once(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(module.__all__) == len(set(module.__all__))
