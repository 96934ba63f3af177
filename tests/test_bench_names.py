"""Every ``pg.<name>`` that bench/workloads.py reads exists on the package.

The benchmark's replays and ``bench/run.py --smoke`` call the package through
``import palatogram as pg``; a name cut from the public API would break them
only when the benchmark runs, so it is checked here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import palatogram

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_benchmark_reads_only_names_the_package_has():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "palatogram"
    }
    assert aliases, "bench/workloads.py no longer imports palatogram as a module"
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    assert "compute_epg" in names  # the collection sees the workloads' calls
    assert [name for name in sorted(names) if not hasattr(palatogram, name)] == []
