"""Every seed-0 op of the raster, animate and figures workloads matches bench/golden.json.

``python3 bench/run.py --smoke`` checks the first two ops of each workload,
so a byte change in a later op would show only when the benchmark runs and
counts it as a failed op. This runs each op once, untraced, through the
benchmark's own ``run_op`` against the digests ``load_golden`` reads. The
cli workload starts one interpreter an op and is left to the smoke run.
Temporary files go under the gitignored ``.bench_out/``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["raster", "animate", "figures"])
def test_every_seed_0_op_matches_its_golden_digests(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports tracing and workloads from there
    run = importlib.import_module("run")

    def failed_ops(workloads, env):
        wl = workloads.WORKLOADS[workload]
        ops = wl.make_ops(run.DEFAULT_SEED, env)
        golden = run.load_golden(run.DEFAULT_SEED, workload)
        assert len(ops) == len(golden)
        failed = []
        for i, (op, digests) in enumerate(zip(ops, golden)):
            _timing, failures, _sums = run.run_op(wl, env, op, run.tracing.NullTracer(), digests)
            if failures:
                failed.append((i, failures))
        return failed

    assert run.with_env(failed_ops) == []
