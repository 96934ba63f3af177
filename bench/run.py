"""palatogram benchmark: end-to-end latency per workload, and a traced per-layer run.

Run from the root of a source checkout (stdlib only; ``src/`` is used in place):

    python3 bench/run.py --workload raster --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seconds 15     # every workload, both modes
    python3 bench/run.py --smoke                         # the benchmark's own checks
    python3 bench/run.py --write-golden                  # refresh bench/golden.json

Workloads are closed loops with one client: each operation starts when the
previous one has been checked. Before every operation a fixed reference loop
is timed, and the workload's reference: the loop itself, the loop plus a few
file writes for ``animate``, a bare ``python -c pass`` child for ``cli``.
``op_p50_ref``/``op_p90_ref`` divide each op's wall time by the median of the
references timed around it, which cancels most of the drift of a shared
machine. Raw wall times drift by tens of percent between runs there, so they
are printed but not gated.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it spends half its time untraced and half traced (whole cycles of the
operation list, so per-op counts are exact) and reports the per-layer
metrics. Layers a workload never calls get their per-call cost from a probe
operation of the workloads that do; their per-op counts stay 0.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Context (seed, commit, Python, CPU,
load) goes to the line before it and, with all metrics and per-layer self
times, to ``.bench_out/``; the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden.json"

DEFAULT_SEED = 0
MIN_OPS = 100  # so that at least ten samples lie beyond p90
RUN_CAP_S = 140.0  # a run stops measuring this long after it starts
SETUP_RUNS = 12  # fresh-interpreter set-up samples per run
SETUP_RUNS_BEFORE = 2  # of which taken before measuring
REF_ROWS = 250
REF_WINDOW = 5  # reference timings around an op that normalise it
ERROR_LAYERS = ("cli", "sounds", "dome", "shaping", "contact", "epg", "render", "io")
clock = time.perf_counter

# A fresh interpreter's set-up: import, both built-in palates, the preset
# library. It reports readiness, then times the CLI module's import.
SETUP_CODE = r"""
import json, time
t0 = time.perf_counter()
import palatogram
t1 = time.perf_counter()
palatogram.default_palate(palatogram.DomeShape.COSINE)
palatogram.default_palate(palatogram.DomeShape.HALF_ELLIPSE)
t2 = time.perf_counter()
palatogram.default_library()
t3 = time.perf_counter()
print("ready", flush=True)
import palatogram.cli
t4 = time.perf_counter()
print(json.dumps({"import_palatogram": t1 - t0, "default_palate": (t2 - t1) / 2,
                  "default_library": t3 - t2, "import_cli": t4 - t3}))
"""


@dataclass(frozen=True)
class _RefPoint:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.x):
            raise ValueError("x must be finite")

    @property
    def s(self) -> float:
        return self.x + self.y


def _ref_term(p: _RefPoint, z: float) -> float:
    return math.cos(p.s * z) + abs(z - p.x)


def reference_loop() -> float:
    """Fixed pure-Python work of about 1 ms; never change this code.

    Float math, tuples, small function calls, a frozen dataclass and a
    property: the same kinds of work as the library's inner loops, so that
    an op's time over this loop's follows the program rather than the load
    on the machine.
    """
    acc, rows = 0.0, []
    for i in range(REF_ROWS):
        p = _RefPoint(i * 0.01, 0.5)
        row = []
        for j in range(8):
            z = j * 0.125
            row.append(_ref_term(p, z) >= acc)
            acc = 0.5 * acc + p.s * 0.001
        rows.append(tuple(row))
    return acc + len(rows)


def time_reference() -> float:
    t0 = clock()
    reference_loop()
    return clock() - t0


# ---------------------------------------------------------------- metrics

# (name, unit, source, key, scale). Sources: "setup" median of the fresh
# interpreters' self-timings; "per_call" span time per call; "self_per_call"
# span time minus its children per call; "calls" span calls per op; "counter"
# counter per op; "ratio" counter over counter; "errors" failed calls of a
# layer in the traced run; "ref" and "overhead" as named.
PER_LAYER = [
    ("import.palatogram_ms", "ms", "setup", "import_palatogram", 1e3),
    ("import.cli_ms", "ms", "setup", "import_cli", 1e3),
    ("cli.interp_floor_ms", "ms", "setup", "interp_floor", 1e3),
    ("cli.run_epg_ms", "ms", "per_call", "cli.run_epg", 1e3),
    ("cli.run_slice_ms", "ms", "per_call", "cli.run_slice", 1e3),
    ("cli.run_mesh_ms", "ms", "per_call", "cli.run_mesh", 1e3),
    ("cli.run_list_sounds_ms", "ms", "per_call", "cli.run_list_sounds", 1e3),
    ("cli.startup_ms", "ms", "self_per_call", "cli.child", 1e3),
    ("sounds.default_library_ms", "ms", "setup", "default_library", 1e3),
    ("dome.default_palate_ms", "ms", "setup", "default_palate", 1e3),
    ("sounds.animate_ms", "ms", "per_call", "sounds.animate", 1e3),
    ("sounds.interpolate_us", "us", "per_call", "sounds.interpolate", 1e6),
    ("sounds.interpolate_calls", "count/op", "calls", "sounds.interpolate", 1),
    ("sounds.frames", "count/op", "counter", "sounds.frames", 1),
    ("sounds.distinct_frame_ratio", "ratio", "ratio", ("sounds.distinct_frames", "sounds.frames"), 1),
    ("dome.slice_at_us", "us", "per_call", "dome.slice_at", 1e6),
    ("dome.slice_at_calls", "count/op", "calls", "dome.slice_at", 1),
    ("dome.dome_elevation_us", "us", "per_call", "dome.dome_elevation", 1e6),
    ("dome.dome_elevation_calls", "count/op", "calls", "dome.dome_elevation", 1),
    ("shaping.midsagittal_height_us", "us", "per_call", "shaping.midsagittal_height", 1e6),
    ("shaping.midsagittal_height_calls", "count/op", "calls", "shaping.midsagittal_height", 1),
    ("shaping.deltas_us", "us", "per_call", "shaping.deltas", 1e6),
    ("shaping.deltas_calls", "count/op", "calls", "shaping.deltas", 1),
    ("epg.compute_epg_ms", "ms", "per_call", "epg.compute_epg", 1e3),
    ("epg.self_ms", "ms", "self_per_call", "epg.compute_epg", 1e3),
    ("epg.cells", "count/op", "counter", "epg.cells", 1),
    ("epg.contacted_cells", "count/op", "counter", "epg.contacted_cells", 1),
    ("epg.rows_outside_contour", "count/op", "counter", "epg.rows_outside_contour", 1),
    ("epg.epg_text_us", "us", "per_call", "epg.epg_text", 1e6),
    ("dome.sample_surface_ms", "ms", "per_call", "dome.sample_surface", 1e3),
    ("dome.surface_vertices", "count/op", "counter", "dome.surface_vertices", 1),
    ("contact.classify_slice_us", "us", "per_call", "contact.classify_slice", 1e6),
    ("contact.classify_slice_calls", "count/op", "calls", "contact.classify_slice", 1),
    ("render.palatal_ppm_ms", "ms", "per_call", "render.palatal_ppm", 1e3),
    ("render.coronal_svg_ms", "ms", "per_call", "render.coronal_svg", 1e3),
    ("render.export_obj_ms", "ms", "per_call", "render.export_obj", 1e3),
    ("render.palatal_svg_ms", "ms", "per_call", "render.palatal_svg", 1e3),
    ("render.bytes_out", "count/op", "counter", "render.bytes_out", 1),
    ("io.write_ms", "ms", "per_call", "io.write", 1e3),
    ("io.files_written", "count/op", "counter", "io.files_written", 1),
    ("io.bytes_written", "count/op", "counter", "io.bytes_written", 1),
    *[(f"{layer}.errors", "count", "errors", layer, 1) for layer in ERROR_LAYERS],
    ("ref.loop_ms", "ms", "ref", None, 1e3),
    ("trace.overhead_ratio", "ratio", "overhead", None, 1),
]

# The gated end-to-end metrics (BENCHMARK.json). success_rate is
# 1 - error_rate, so that no gated metric is 0 on a healthy run.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ref": "ratio",
    "op_p90_ref": "ratio",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


# ---------------------------------------------------------------- context


def git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_context(seed: int, workload: str, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------- set-up


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # children start the way an installed package does: from cached bytecode
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class SetupSampler:
    """Fresh-interpreter set-up times, and the bare interpreter beside them.

    A run takes SETUP_RUNS samples: a few before measuring and the rest
    spread over the untraced phase, so that their median reflects the whole
    run rather than the load on the machine in its first second.
    """

    def __init__(self, env: dict) -> None:
        self.env = env
        self.walls: list[float] = []
        self.floors: list[float] = []
        self.reports: list[dict] = []
        self._spawn()  # fills the bytecode cache; not counted

    def _spawn(self) -> tuple[float, dict]:
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, cwd=ROOT, env=self.env
        )
        try:
            ready = proc.stdout.readline()
            wall = clock() - t0
            report = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if ready != b"ready\n" or proc.returncode != 0:
            raise RuntimeError("set-up child failed: palatogram does not import or load")
        return wall, json.loads(report)

    def sample(self) -> None:
        wall, report = self._spawn()
        self.walls.append(wall)
        self.reports.append(report)
        t0 = clock()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env, check=True, timeout=60)
        self.floors.append(clock() - t0)

    def summary(self) -> dict:
        out = {key: statistics.median(r[key] for r in self.reports) for key in self.reports[0]}
        out["setup"] = statistics.median(self.walls)
        out["interp_floor"] = statistics.median(self.floors)
        return out


# ---------------------------------------------------------------- operations


def digests(outputs: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, (_layer, data) in sorted(outputs.items())}


def corrupt(outputs: dict) -> None:
    """Flip one bit of the middle byte of the first non-empty output."""
    name = next(n for n in sorted(outputs) if outputs[n][1])
    layer, data = outputs[name]
    mid = len(data) // 2
    outputs[name] = (layer, data[:mid] + bytes([data[mid] ^ 0x01]) + data[mid + 1:])


def run_op(wl, env, op, tr, golden: dict | None = None, flip: bool = False):
    """One operation: reference timings, timed body, then replay and checks.

    Returns (timing, failures, output digests); timing is (wall seconds,
    reference loop seconds, seconds of the workload's reference).
    """
    wl.prepare(op, env)
    loop = time_reference()
    ref = wl.reference(env, loop)
    tr.error_span = None
    t0 = clock()
    try:
        with tr.span("bench.op"):
            result = wl.run(op, env, tr)
    except Exception as exc:  # the op failed: count it, keep measuring
        layer = (tr.error_span or "bench").split(".", 1)[0]
        return (clock() - t0, loop, ref), [(layer, f"{type(exc).__name__}: {exc}")], {}
    timing = (clock() - t0, loop, ref)
    try:
        failures = wl.replay(op, result, env, tr) if tr.enabled else []
        outputs = wl.outputs(op, result, env)
        if flip:
            corrupt(outputs)
        failures += wl.check(op, result, outputs, env)
        sums = digests(outputs)
        if golden is not None:
            for name, digest in sums.items():
                if golden.get(name) != digest:
                    failures.append((outputs[name][0], f"{name} differs from the golden digest"))
    except Exception as exc:  # a check that cannot run is a failed op
        return timing, [("bench", f"check raised {type(exc).__name__}: {exc}")], {}
    return timing, failures, sums


class Phase:
    """Samples of one measuring loop."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.loops: list[float] = []  # reference loop seconds before each op
        self.refs: list[float] = []  # the workload's reference seconds before each op
        self.failed = 0
        self.errors: Counter = Counter()
        self.messages: list[str] = []

    def add(self, timing: tuple[float, float, float], failures: list) -> None:
        wall, loop, ref = timing
        self.walls.append(wall)
        self.loops.append(loop)
        self.refs.append(ref)
        if failures:
            self.failed += 1
            for layer, message in failures:
                self.errors[layer] += 1
                if len(self.messages) < 5:
                    self.messages.append(f"{layer}: {message}")

    def ratios(self) -> list[float]:
        """Each op's wall time over the median of the REF_WINDOW reference
        timings around it: one preempted reference run is dropped, while
        drift over a second or so is still followed."""
        half = REF_WINDOW // 2
        return [
            wall / statistics.median(self.refs[max(0, i - half): i + half + 1])
            for i, wall in enumerate(self.walls)
        ]


def measure(
    wl, env, ops, tr, seconds: float, min_ops: int, golden, deadline: float,
    whole_cycles=False, setup=None,
) -> Phase:
    """Run ops in a closed loop for ``seconds`` (time spent sampling set-up
    excluded), and at least ``min_ops`` of them, unless ``deadline`` passes."""
    phase = Phase()
    start = clock()
    paused = 0.0
    samples_due = SETUP_RUNS - len(setup.walls) if setup else 0
    step = seconds / (samples_due + 1)  # set-up samples at even intervals
    next_sample = step
    i = 0
    while True:
        elapsed = clock() - start - paused
        if samples_due and elapsed >= next_sample:
            t0 = clock()
            setup.sample()
            paused += clock() - t0
            samples_due -= 1
            next_sample += step
            continue
        done = elapsed >= seconds and i >= min_ops and (not whole_cycles or i % len(ops) == 0)
        if done or clock() >= deadline:
            break
        tr.op = i
        entry = golden[i % len(golden)] if golden else None
        timing, failures, _ = run_op(wl, env, ops[i % len(ops)], tr, entry)
        phase.add(timing, failures)
        i += 1
    while samples_due:  # a phase capped early still takes every sample
        setup.sample()
        samples_due -= 1
    return phase


def end_to_end(wl_name: str, phase: Phase, setup: dict, env) -> tuple[dict, dict]:
    """Gated metrics, and the raw wall-time figures printed beside them."""
    n = len(phase.walls)
    ratios = phase.ratios()
    if wl_name == "cli":
        rss_kb = env.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gated = {
        "setup_s": setup["setup"],
        "op_p50_ref": statistics.median(ratios),
        "op_p90_ref": p90(ratios),
        "peak_rss_mb": rss_kb / 1024.0,
        "success_rate": 1.0 - phase.failed / n,
    }
    raw = {
        "op_p50_ms": (statistics.median(phase.walls) * 1e3, "ms"),
        "op_p90_ms": (p90(phase.walls) * 1e3, "ms"),
        "ops_per_s": (n / sum(phase.walls), "1/s"),
        "error_rate": (phase.failed / n, "ratio"),
        "samples": (n, "count"),
        "ref_loop_ms": (statistics.median(phase.loops) * 1e3, "ms"),
    }
    return gated, raw


def per_layer(tracer, main_ops: int, setup: dict, refs, overhead: float, errors: Counter) -> dict:
    main = tracing.span_stats([s for s in tracer.spans if s[5] >= 0])
    probe = tracing.span_stats([s for s in tracer.spans if s[5] < 0])
    out = {}
    for name, _unit, source, key, scale in PER_LAYER:
        if source == "setup":
            value = setup[key] * scale
        elif source in ("per_call", "self_per_call"):
            stats = main if main.get(key, (0, 0, 0))[1] else probe
            total, calls, self_s = stats.get(key, (0.0, 0, 0.0))
            value = (total if source == "per_call" else self_s) / calls * scale if calls else 0.0
        elif source == "calls":
            value = main.get(key, (0.0, 0, 0.0))[1] / main_ops
        elif source == "counter":
            value = tracer.counts.get(key, 0.0) / main_ops
        elif source == "ratio":
            num, den = (tracer.counts.get(k, 0.0) for k in key)
            value = num / den if den else 0.0
        elif source == "errors":
            value = errors.get(key, 0)
        elif source == "ref":
            value = statistics.median(refs) * scale
        else:
            value = overhead
        out[name] = value
    return out


# ---------------------------------------------------------------- one run


def import_program():
    """Put the checkout's ``src`` first on the path and import the workloads."""
    if not (SRC / "palatogram" / "__init__.py").is_file():
        raise SystemExit(f"error: no palatogram sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def load_golden(seed: int, workload: str):
    if seed != DEFAULT_SEED or not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text())[workload]


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    deadline = clock() + RUN_CAP_S
    workloads = import_program()
    context = run_context(seed, workload, trace)
    env_vars = child_env()
    sampler = SetupSampler(env_vars)
    for _ in range(SETUP_RUNS_BEFORE):
        sampler.sample()
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = workloads.Env.create(ROOT, tmp, sys.executable, env_vars)
        wl = workloads.WORKLOADS[workload]
        ops = wl.make_ops(seed, env)
        golden = load_golden(seed, workload)
        if not trace:
            phase = measure(
                wl, env, ops, tracing.NullTracer(), seconds, MIN_OPS, golden, deadline, setup=sampler
            )
            setup = sampler.summary()
            metrics, extra = end_to_end(workload, phase, setup, env)
            phases = [phase]
        else:
            plain = measure(
                wl, env, ops, tracing.NullTracer(), seconds / 2, 0, golden, deadline, setup=sampler
            )
            setup = sampler.summary()
            tracer = tracing.Tracer()
            traced = measure(wl, env, ops, tracer, seconds / 2, 1, golden, deadline, whole_cycles=True)
            probes = run_probes(workloads, wl, env, seed, tracer)
            phases = [plain, traced, probes]
            overhead = statistics.median(traced.walls) / statistics.median(plain.walls)
            errors = traced.errors + probes.errors
            metrics = per_layer(
                tracer, len(traced.walls), setup, plain.loops + traced.loops, overhead, errors
            )
            stats = tracing.span_stats([s for s in tracer.spans if s[5] >= 0])
            extra = {
                "samples_untraced": (len(plain.walls), "count"),
                "samples_traced": (len(traced.walls), "count"),
                **{
                    f"self.{layer}": (v * 1e3 / len(traced.walls), "ms/op")
                    for layer, v in tracing.layer_self_times(stats).items()
                },
            }
            tracer.dump(OUT_DIR / f"{workload}-seed{seed}.spans.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    context["loadavg_end"] = list(os.getloadavg())
    attempted = sum(len(p.walls) for p in phases)
    failed = sum(p.failed for p in phases)
    report = {
        "context": context,
        "metrics": metrics,
        "extra": extra,
        "setup": setup,
        "failures": [m for p in phases for m in p.messages][:10],
        "samples": {"wall_s": phases[0].walls, "loop_s": phases[0].loops, "ref_s": phases[0].refs},
    }
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def run_probes(workloads, wl, env, seed: int, tracer):
    """A few traced ops of every other workload, as negative op ids."""
    phase = Phase()
    op_id = 0
    for other in workloads.WORKLOADS.values():
        if other is wl:
            continue
        for op in other.make_ops(seed, env)[: other.probe_ops]:
            op_id -= 1
            tracer.op = op_id
            timing, failures, _ = run_op(other, env, op, tracer)
            phase.add(timing, failures)
    return phase


def units_of(metrics: dict, trace: int) -> dict:
    if trace:
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        units = END_TO_END_UNITS
    return {name: units[name] for name in metrics}


def print_result(result: dict, report: dict, trace: int) -> None:
    units = units_of(result["metrics"], trace)
    for name, value in result["metrics"].items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    for name, (value, unit) in report["extra"].items():
        print(f"{name:34s} {value:16.6f} {unit}")
    for message in report["failures"]:
        print(f"failure: {message}")
    print(json.dumps({"context": report["context"]}))
    metrics = {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()}
    print(json.dumps({**result, "metrics": metrics}))


# ---------------------------------------------------------------- other modes


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    workloads = import_program()
    code = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {name} trace={trace}: exit {proc.returncode}")
                code = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {name} trace={trace}: attempted {result['attempted']} failed {result['failed']}")
            for line in lines[:-2]:  # every metric line; the last two are JSON
                print(f"{name:8s} {line}")
            if not result["correct"]:
                code = 1
    return code


def with_env(fn):
    """Run ``fn(workloads, env)`` with a temporary directory under .bench_out."""
    workloads = import_program()
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = workloads.Env.create(ROOT, tmp, sys.executable, child_env())
        return fn(workloads, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def write_golden() -> int:
    def body(workloads, env):
        golden = {}
        for name, wl in workloads.WORKLOADS.items():
            golden[name] = []
            for op in wl.make_ops(DEFAULT_SEED, env):
                _timing, failures, sums = run_op(wl, env, op, tracing.NullTracer())
                if failures:
                    print(f"error: {name}: {failures}", file=sys.stderr)
                    return 1
                golden[name].append(sums)
        GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0

    return with_env(body)


def smoke() -> int:
    """Check the checks: clean ops pass, traced ops pass, a flipped byte fails."""

    def body(workloads, env):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        problems = []
        if [m["name"] for m in bench["per_layer"]] != [m[0] for m in PER_LAYER]:
            problems.append("BENCHMARK.json per_layer names differ from PER_LAYER")
        if {m["name"]: m["unit"] for m in bench["end_to_end"]} != END_TO_END_UNITS:
            problems.append("BENCHMARK.json end_to_end names or units differ")
        if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ")
        golden = json.loads(GOLDEN.read_text())
        for name, wl in workloads.WORKLOADS.items():
            for seed in (DEFAULT_SEED, 7):
                ops = wl.make_ops(seed, env)[:2]
                entries = golden[name][:2] if seed == DEFAULT_SEED else [None, None]
                clean = [run_op(wl, env, op, tracing.NullTracer(), g)[1] for op, g in zip(ops, entries)]
                traced = [run_op(wl, env, op, tracing.Tracer(), g)[1] for op, g in zip(ops, entries)]
                flipped = run_op(wl, env, ops[0], tracing.NullTracer(), entries[0], flip=True)[1]
                ok = not any(clean) and not any(traced) and bool(flipped)
                print(f"smoke {name:8s} seed {seed}: clean {clean} traced {traced} "
                      f"flipped byte -> {flipped[:1]} {'ok' if ok else 'FAILED'}")
                if not ok:
                    problems.append(f"{name} seed {seed}")
        for problem in problems:
            print(f"smoke problem: {problem}")
        return 1 if problems else 0

    return with_env(body)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["raster", "animate", "figures", "cli", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="check that the checks catch a flipped byte")
    parser.add_argument("--write-golden", action="store_true", help="rewrite bench/golden.json")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.write_golden:
        return write_golden()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, report = bench_run(args.workload, args.seed, args.seconds, args.trace)
    print_result(result, report, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
