"""The benchmark's own check, ``python3 bench/run.py --smoke``, passes.

The benchmark reads frame and parameter attributes as well as ``pg.<name>``
functions, so a change to a value class could break it only when it runs.
The smoke run writes its temporary files under the gitignored ``.bench_out/``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke problem" not in proc.stdout
