"""The code README.md shows runs as written.

Every ```python block is executed in a namespace of its own, and every JSON
sound target document (an object with a "name") builds through
``sounds.target_from_dict``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from palatogram.sounds import target_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)


PYTHON_BLOCKS = blocks("python")
TARGET_DOCS = [doc for doc in map(json.loads, blocks("json")) if "name" in doc]


def test_readme_shows_code_and_a_target_document():
    assert PYTHON_BLOCKS and TARGET_DOCS


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("doc", TARGET_DOCS, ids=lambda doc: doc["name"])
def test_target_document_builds(doc):
    target = target_from_dict(doc)
    assert target.name == doc["name"]
    assert len(target.contour.points) == len(doc["contour"])
