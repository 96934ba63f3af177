"""The four benchmark workloads: operations, their timed bodies, replays and checks.

Each workload loads one layer heavily and bypasses the others:

* ``raster``  - ``compute_epg`` + ``epg_text`` on large grids; the per-cell
  loop (epg, shaping, ``dome.dome_elevation``) is nearly all the work.
* ``animate`` - one whole animation per op: ``sounds.animate``, an 8x8 grid
  and a palatal SVG per frame, each frame written to a file. Hold frames
  repeat, so this is where a frame cache would show.
* ``figures`` - one figure set per op: palatal PPM, coronal SVG and an OBJ
  mesh with per-slice contact markers; ``dome`` is used as a surface sampler.
* ``cli``     - one fresh ``python -m palatogram.cli`` child per op, so
  interpreter start-up and import are most of the cost.

A workload object offers ``make_ops(seed, env)`` (all inputs, made before
timing), ``prepare`` (untimed), ``run`` (the timed body, with spans around
each layer call), ``replay`` (traced runs only: re-issues calls made inside
library functions so their cost and count can be measured from outside),
``outputs`` (the bytes a user receives, read back from disk where written)
and ``check``. Failures are ``(layer, message)`` pairs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import palatogram as pg
from palatogram import DomeShape
from palatogram.errors import DomainError

MODELS = (DomeShape.COSINE, DomeShape.HALF_ELLIPSE)
CHILD_TIMEOUT_S = 60.0


@dataclass
class Env:
    """Inputs shared by all workloads of one run."""

    root: Path
    tmp: Path
    python: str
    child_env: dict
    palates: dict
    library: pg.SoundLibrary
    sounds: list[str]  # canonical preset names
    stems: list[str]  # ASCII preset file stems, used on the command line
    child_rss_kb: int = 0  # largest peak RSS of any CLI child so far

    @classmethod
    def create(cls, root: Path, tmp: Path, python: str, child_env: dict) -> "Env":
        library = pg.default_library()
        stems = sorted(
            p.stem for p in (root / "src" / "palatogram" / "presets").glob("*.json")
            if p.name != "palate.json"
        )
        return cls(
            root=root,
            tmp=tmp,
            python=python,
            child_env=child_env,
            palates={m: pg.default_palate(m) for m in MODELS},
            library=library,
            sounds=library.names(),
            stems=stems,
        )


def spread_sizes(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n sizes spread evenly over [lo, hi], in a seeded order.

    Every seed gets the same set of sizes, so the latency percentiles do not
    depend on which sizes a seed happens to draw; the seed decides which
    input each size goes with.
    """
    values = [lo + int((hi - lo + 1) * (k + 0.5) / n) for k in range(n)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------- checks


def row_failures(cells, layer: str = "epg") -> list[tuple[str, str]]:
    """Every EPG row must read the same mirrored (the model is symmetric)."""
    bad = [i for i, row in enumerate(cells) if tuple(row) != tuple(row[::-1])]
    return [(layer, f"rows {bad} are not mirror-symmetric")] if bad else []


def text_failures(text: bytes, cells) -> list[tuple[str, str]]:
    expected = "".join("".join("#" if c else "." for c in row) + "\n" for row in cells)
    if text != expected.encode("ascii"):
        return [("epg", "grid text does not match the contact cells")]
    return []


def grid_text_failures(text: bytes, rows: int, cols: int) -> list[tuple[str, str]]:
    lines = text.split(b"\n")
    if lines[-1] != b"" or len(lines) != rows + 1:
        return [("epg", "grid text has the wrong number of lines")]
    if any(len(line) != cols or line.strip(b"#.") for line in lines[:-1]):
        return [("epg", "grid text has a malformed row")]
    return row_failures([line.decode("ascii") for line in lines[:-1]])


def svg_failures(data: bytes, circles: int | None = None) -> list[tuple[str, str]]:
    out = []
    if not data.startswith(b'<?xml version="1.0" encoding="UTF-8"?>\n<svg ') or not data.endswith(
        b"</svg>\n"
    ):
        out.append(("render", "SVG is not a complete document"))
    if circles is not None and data.count(b"<circle ") != circles:
        out.append(("render", f"SVG has {data.count(b'<circle ')} circles, expected {circles}"))
    return out


_PPM_CHANNELS = (  # byte values the four palette colours use, per channel
    bytes({0xFF, 0x44, 0xCC, 0xEE}),
    bytes({0xFF, 0x55, 0x22, 0xCC}),
    bytes({0xFF, 0x66, 0x22, 0x44}),
)


def ppm_failures(data: bytes, width: int, height: int) -> list[tuple[str, str]]:
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + 3 * width * height:
        return [("render", "PPM header or length is wrong")]
    body = memoryview(data)[len(header):]
    for channel, allowed in enumerate(_PPM_CHANNELS):
        if bytes(body[channel::3]).translate(None, allowed):
            return [("render", "PPM holds a colour outside the palette")]
    return []


def obj_failures(data: bytes, nx: int, nz: int, markers: int) -> list[tuple[str, str]]:
    text = b"\n" + data
    vertices, faces = text.count(b"\nv "), text.count(b"\nf ")
    out = []
    if vertices != (nx + 1) * (nz + 1) + markers:
        out.append(("render", f"OBJ has {vertices} vertices, expected {(nx + 1) * (nz + 1) + markers}"))
    if faces != 2 * nx * nz:
        out.append(("render", f"OBJ has {faces} faces, expected {2 * nx * nz}"))
    if not data.endswith(b"\n"):
        out.append(("render", "OBJ is truncated"))
    return out


def marker_count(contacts) -> int:
    return sum(1 if isinstance(c, pg.FullContact) else 2 for c in contacts)


def write_file(tr, path: Path, data: bytes) -> None:
    with tr.span("io.write"):
        path.write_bytes(data)
    tr.count("io.files_written", 1)
    tr.count("io.bytes_written", len(data))


def readback_failures(paths_and_data) -> list[tuple[str, str]]:
    bad = [p.name for p, data in paths_and_data if p.read_bytes() != data]
    return [("io", f"files {bad} differ from the bytes written")] if bad else []


# ---------------------------------------------------------------- replays


def replay_epg(tr, geometry, target, frame, parent) -> list[tuple[str, str]]:
    """Re-issue the per-row and per-cell calls ``compute_epg`` makes.

    Each function is timed as one batch over the same (x, z) arguments, so
    the cost per call carries little timer overhead. The replayed values
    must rebuild the frame cell for cell.
    """
    contour, params = target.contour, target.params
    xs = frame.x_of_row
    with tr.span("dome.slice_at", len(xs), parent):
        slices = [pg.slice_at(geometry, x) for x in xs]
    rows_in = []
    with tr.span("shaping.midsagittal_height", len(xs), parent):
        for i, x in enumerate(xs):
            try:
                rows_in.append((i, x, slices[i], pg.midsagittal_height(contour, x)))
            except DomainError:
                pass
    cells = [
        (i, x, sl, u, sl.z_center + (f - 0.5) * sl.span)
        for i, x, sl, u in rows_in
        for f in frame.z_frac_of_col
    ]
    edge, groove, lateral = pg.edge_elevation_delta, pg.groove_delta, pg.lateral_lowering_delta
    with tr.span("shaping.deltas", 3 * len(cells), parent):
        heights = [
            u + edge(params, sl, x, z) + groove(params, sl, z) + lateral(params, sl, z)
            for _i, x, sl, u, z in cells
        ]
    with tr.span("dome.dome_elevation", len(cells), parent):
        domes = [pg.dome_elevation(sl, z) for _i, _x, sl, _u, z in cells]
    rebuilt = [[False] * frame.cols for _ in range(frame.rows)]
    for k, (i, *_rest) in enumerate(cells):
        rebuilt[i][k % frame.cols] = heights[k] >= domes[k]
    tr.count("epg.cells", frame.rows * frame.cols)
    tr.count("epg.contacted_cells", frame.contact_count)
    tr.count("epg.rows_outside_contour", frame.rows - len(rows_in))
    if [tuple(r) for r in rebuilt] != list(frame.cells):
        return [("epg", "replayed cell tests disagree with compute_epg")]
    return []


def frame_count(spec) -> int:
    """Frames sounds.animate makes: one per 1/fps over the whole spec.

    The clock is summed segment by segment, as the documented timing has it.
    """
    clock = 0.0
    for i, hold in enumerate(spec.hold_ms):
        clock += hold
        if i < len(spec.transition_ms):
            clock += spec.transition_ms[i]
    return math.ceil(clock * spec.fps / 1000.0)


def animation_plan(spec) -> list[tuple]:
    """Per frame, the hold target or the (a, b, lam) blend sounds.animate makes.

    Follows the documented timing: frame k sits at k/fps, each target is
    held for its hold time and then blended linearly into the next.
    """
    segments, clock = [], 0.0
    for i, target in enumerate(spec.targets):
        segments.append((clock, spec.hold_ms[i], (target,)))
        clock += spec.hold_ms[i]
        if i < len(spec.targets) - 1:
            segments.append((clock, spec.transition_ms[i], (target, spec.targets[i + 1])))
            clock += spec.transition_ms[i]
    plan = []
    for k in range(frame_count(spec)):
        t = k * 1000.0 / spec.fps
        start, duration, payload = next((s for s in segments if t < s[0] + s[1]), segments[-1])
        if len(payload) == 1:
            plan.append(payload)
        else:
            plan.append((*payload, min(max((t - start) / duration, 0.0), 1.0)))
    return plan


class Workload:
    """Defaults: nothing to prepare, ops normalised by the reference loop alone."""

    probe_ops = 1  # ops of this workload a traced run of another one replays

    def prepare(self, op, env: Env) -> None:
        pass

    def reference(self, env: Env, loop: float) -> float:
        """Seconds of the reference an op is normalised by, given the
        reference loop's time just measured; by default the loop itself."""
        return loop


# ---------------------------------------------------------------- raster

RASTER_GRIDS = ((48, 48), (62, 62), (64, 48), (80, 64), (100, 64))


class Raster(Workload):
    name = "raster"

    def make_ops(self, seed: int, env: Env) -> list:
        # every preset x model x grid once per cycle, in a seeded order
        ops = [(s, m, r, c) for s in env.sounds for m in MODELS for r, c in RASTER_GRIDS]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, op, env: Env, tr):
        sound, model, rows, cols = op
        target = env.library.get(sound)
        with tr.span("epg.compute_epg") as span:
            frame = pg.compute_epg(env.palates[model], target.contour, target.params, rows=rows, cols=cols)
        with tr.span("epg.epg_text"):
            text = pg.epg_text(frame)
        return frame, text.encode("ascii"), span

    def replay(self, op, result, env: Env, tr):
        frame, _text, span = result
        return replay_epg(tr, env.palates[op[1]], env.library.get(op[0]), frame, span)

    def outputs(self, op, result, env: Env) -> dict:
        return {"grid.txt": ("epg", result[1])}

    def check(self, op, result, outputs, env: Env):
        frame = result[0]
        _sound, _model, rows, cols = op
        if (frame.rows, frame.cols) != (rows, cols):
            return [("epg", "frame has the wrong shape")]
        return row_failures(frame.cells) + text_failures(outputs["grid.txt"][1], frame.cells)


# ---------------------------------------------------------------- animate

ANIMATE_SPECS_PER_SIZE = 24  # specs per target count (3..6) in one cycle
HOLD_MS, TRANSITION_MS, FPS = 120.0, 300.0, 25.0


REF_FILES = 4  # frame-sized files the animate reference overwrites
REF_FILE_BYTES = bytes(range(256)) * 17


class Animate(Workload):
    name = "animate"

    def reference(self, env: Env, loop: float) -> float:
        """The reference loop plus overwriting REF_FILES frame-sized files.

        A fifth or more of an animate op is writing files, whose cost
        follows the file system rather than the processor; a reference with
        both parts in similar shares keeps the ratio steady.
        """
        directory = env.tmp / "animate-ref"
        directory.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        for k in range(REF_FILES):
            (directory / f"ref_{k}.svg").write_bytes(REF_FILE_BYTES)
        return loop + time.perf_counter() - t0

    def make_ops(self, seed: int, env: Env) -> list:
        rng = random.Random(seed)
        specs = []
        n_per = ANIMATE_SPECS_PER_SIZE
        for n in (3, 4, 5, 6):
            for length_scale in spread_sizes(rng, 800, 1200, n_per):
                names = [rng.choice(env.sounds)]
                while len(names) < n:
                    name = rng.choice(env.sounds)
                    if name != names[-1]:
                        names.append(name)
                # jitter each hold and transition, then scale the spec to a
                # total from a fixed set, so frame counts are the same per seed
                nominal = [HOLD_MS] * n + [TRANSITION_MS] * (n - 1)
                weights = [v * rng.uniform(0.6, 1.4) for v in nominal]
                scale = sum(nominal) * length_scale / 1000.0 / sum(weights)
                durations = [w * scale for w in weights]
                specs.append(
                    pg.AnimationSpec(
                        targets=tuple(env.library.get(s) for s in names),
                        hold_ms=tuple(durations[:n]),
                        transition_ms=tuple(durations[n:]),
                        fps=FPS,
                    )
                )
        rng.shuffle(specs)
        return specs

    def _dir(self, env: Env) -> Path:
        return env.tmp / "animate"

    def prepare(self, op, env: Env) -> None:
        """Keep frame files 0..n-1 of earlier ops, for this op to overwrite.

        Creating and deleting dozens of files per op ties the op's time to
        the file system's metadata load rather than to the program; an
        output directory that is written again is also the common case.
        """
        directory = self._dir(env)
        directory.mkdir(parents=True, exist_ok=True)
        n = frame_count(op)
        for path in directory.iterdir():
            if int(path.stem.rpartition("_")[2]) >= n:
                path.unlink()

    def run(self, op, env: Env, tr):
        geometry = env.palates[MODELS[0]]
        directory = self._dir(env)
        with tr.span("sounds.animate") as anim_span:
            frames = pg.animate(op)
        written = []
        for k, target in enumerate(frames):
            with tr.span("epg.compute_epg") as span:
                frame = pg.compute_epg(geometry, target.contour, target.params, rows=8, cols=8)
            with tr.span("render.palatal_svg"):
                svg = pg.render_palatal_svg(frame)
            write_file(tr, directory / f"frame_{k:05d}.svg", svg)
            written.append((target, frame, span, svg))
        return frames, written, anim_span

    def replay(self, op, result, env: Env, tr):
        frames, written, anim_span = result
        plan = animation_plan(op)
        blends = [p for p in plan if len(p) == 3]
        with tr.span("sounds.interpolate", len(blends), anim_span):
            blended = iter([pg.interpolate(a, b, lam) for a, b, lam in blends])
        expected = [p[0] if len(p) == 1 else next(blended) for p in plan]
        failures = []
        if expected != frames:
            failures.append(("sounds", "animate frames differ from the holds and blends of the spec"))
        geometry = env.palates[MODELS[0]]
        for target, frame, span, _svg in written:
            failures += replay_epg(tr, geometry, target, frame, span)
        tr.count("sounds.frames", len(frames))
        tr.count("sounds.distinct_frames", len(set(frames)))
        tr.count("render.bytes_out", sum(len(svg) for *_x, svg in written))
        return failures

    def outputs(self, op, result, env: Env) -> dict:
        paths = sorted(self._dir(env).iterdir())
        return {"frames.svg": ("render", b"".join(p.read_bytes() for p in paths))}

    def check(self, op, result, outputs, env: Env):
        frames, written, _span = result
        failures = []
        if len(frames) != frame_count(op):
            failures.append(("sounds", f"{len(frames)} frames for {frame_count(op)} frame times"))
        files = len(list(self._dir(env).iterdir()))
        if files != len(frames) or len(written) != len(frames):
            failures.append(("io", f"{files} frame files for {len(frames)} frames"))
        if outputs["frames.svg"][1] != b"".join(svg for *_x, svg in written):
            failures.append(("io", "frame files differ from the rendered frames"))
        for _target, frame, _span, svg in written:
            failures += row_failures(frame.cells) + svg_failures(svg, circles=64)
            if failures:
                break
        return failures


# ---------------------------------------------------------------- figures

FIGURES_MESH = (96, 128)


class Figures(Workload):
    name = "figures"

    def make_ops(self, seed: int, env: Env) -> list:
        rng = random.Random(seed)
        combos = [(s, m) for s in env.sounds for m in MODELS]
        rng.shuffle(combos)
        sizes = sorted(spread_sizes(rng, *FIGURES_MESH, len(combos)))
        # a fixed pairing of sizes (7 is coprime to 24), dealt out in seeded order
        meshes = [(sizes[k], sizes[(7 * k + 3) % len(sizes)]) for k in range(len(sizes))]
        rng.shuffle(meshes)
        ops = []
        for (sound, model), (nx, nz) in zip(combos, meshes):
            geometry, contour = env.palates[model], env.library.get(sound).contour
            lo, hi = max(geometry.x_min, contour.x_min), min(geometry.x_max, contour.x_max)
            ops.append((sound, model, lo + (hi - lo) * rng.random(), nx, nz))
        return ops

    def _dir(self, env: Env) -> Path:
        return env.tmp / "figures"

    def prepare(self, op, env: Env) -> None:
        self._dir(env).mkdir(parents=True, exist_ok=True)

    def run(self, op, env: Env, tr):
        sound, model, x, nx, nz = op
        geometry, target = env.palates[model], env.library.get(sound)
        contour = target.contour
        directory = self._dir(env)
        with tr.span("epg.compute_epg") as epg_span:
            frame = pg.compute_epg(geometry, contour, target.params, rows=8, cols=8)
        with tr.span("render.palatal_ppm"):
            ppm = pg.render_palatal_ppm(frame)
        with tr.span("dome.slice_at"):
            coronal_slice = pg.slice_at(geometry, x)
        with tr.span("shaping.midsagittal_height"):
            u = pg.midsagittal_height(contour, x)
        with tr.span("render.coronal_svg"):
            svg = pg.render_coronal_svg(coronal_slice, u)
        # one classification per mesh row, as `palatogram mesh --sound` makes
        xs = [(1.0 - i / nx) * geometry.x_min + i / nx * geometry.x_max for i in range(nx + 1)]
        with tr.span("dome.slice_at", len(xs)):
            slices = [pg.slice_at(geometry, xi) for xi in xs]
        inside = [contour.x_min <= xi <= contour.x_max for xi in xs]
        with tr.span("shaping.midsagittal_height", sum(inside)):
            heights = [pg.midsagittal_height(contour, xi) if ok else None for xi, ok in zip(xs, inside)]
        with tr.span("contact.classify_slice", sum(inside)):
            contacts = [
                pg.classify_slice(sl, h) if h is not None else pg.NoContact()
                for sl, h in zip(slices, heights)
            ]
        with tr.span("render.export_obj") as obj_span:
            obj = pg.export_obj(geometry, nx, nz, contacts)
        files = [
            (directory / "palatal.ppm", ppm),
            (directory / "coronal.svg", svg),
            (directory / "mesh.obj", obj),
        ]
        for path, data in files:
            write_file(tr, path, data)
        return frame, coronal_slice, u, contacts, files, epg_span, obj_span

    def replay(self, op, result, env: Env, tr):
        sound, model, _x, nx, nz = op
        frame, _sl, _u, _contacts, files, epg_span, obj_span = result
        geometry = env.palates[model]
        failures = replay_epg(tr, geometry, env.library.get(sound), frame, epg_span)
        with tr.span("dome.sample_surface", 1, obj_span):
            grid = pg.sample_surface(geometry, nx, nz)
        tr.count("dome.surface_vertices", sum(len(row) for row in grid))
        tr.count("render.bytes_out", sum(len(data) for _path, data in files))
        return failures

    def outputs(self, op, result, env: Env) -> dict:
        return {path.name: ("render", path.read_bytes()) for path, _data in result[4]}

    def check(self, op, result, outputs, env: Env):
        _sound, _model, _x, nx, nz = op
        frame, coronal_slice, u, contacts, files, _e, _o = result
        failures = readback_failures((p, outputs[p.name][1]) for p, _data in files)
        failures += row_failures(frame.cells)
        failures += ppm_failures(outputs["palatal.ppm"][1], 420, 480)
        svg = outputs["coronal.svg"][1]
        failures += svg_failures(svg)
        case = pg.classify_slice(coronal_slice, u)
        lines, circles = svg.count(b"<line "), svg.count(b"<circle ")
        expected = {pg.NoContact: (2, 2), pg.Intersection: (6, 0), pg.FullContact: (2, 1)}[type(case)]
        if (lines, circles) != expected:
            failures.append(("render", f"coronal SVG markers {lines, circles} do not match {case}"))
        failures += obj_failures(outputs["mesh.obj"][1], nx, nz, marker_count(contacts))
        return failures


# ---------------------------------------------------------------- cli

CLI_KINDS = ("epg-txt", "epg-svg", "epg-json", "slice-json", "slice-svg", "mesh", "list-sounds")
CLI_ROUNDS = 4


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout()


def _spawn(env: Env, cmd: list[str], stdout, stderr) -> tuple[int, int]:
    """Run a child to completion; returns (exit code, peak RSS in KiB)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=env.root, env=env.child_env)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child timed out after {CHILD_TIMEOUT_S} s: {cmd}") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Cli(Workload):
    name = "cli"
    probe_ops = len(CLI_KINDS)  # one round covers every subcommand

    def make_ops(self, seed: int, env: Env) -> list:
        from palatogram import cli

        rng = random.Random(seed)
        directory = env.tmp / "cli"
        directory.mkdir(parents=True, exist_ok=True)
        ops = []
        for _round in range(CLI_ROUNDS):
            for kind in rng.sample(CLI_KINDS, len(CLI_KINDS)):
                command, _, fmt = kind.partition("-")
                i = len(ops)
                out = directory / f"op{i}.{fmt or 'obj'}"
                if kind == "list-sounds":
                    argv, out = ["list-sounds"], None
                else:
                    stem, model = rng.choice(env.stems), rng.choice(MODELS).value
                    argv = [command, "--sound", stem, "--model", model]
                    if command == "slice":
                        argv += ["--x", f"{0.5 + 39.0 * rng.random():.3f}"]
                    if fmt:
                        argv += ["--format", fmt]
                    argv += ["--out", str(out)]
                expected = self._run_in_process(cli, argv, out, directory / f"expected{i}")
                ops.append((kind, argv, out, expected))
        return ops

    @staticmethod
    def _run_in_process(cli, argv, out, alt_out):
        """Run ``cli.run`` here, writing to ``alt_out``; returns (code, stdout, file bytes)."""
        if out is not None:
            argv = argv[:-1] + [str(alt_out)]
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(argv)
        stdout.flush()
        data = alt_out.read_bytes() if out is not None and code == 0 else b""
        return code, stdout.buffer.getvalue(), data

    def prepare(self, op, env: Env) -> None:
        if op[2] is not None:
            op[2].unlink(missing_ok=True)

    def reference(self, env: Env, loop: float) -> float:
        """Wall time of a bare ``python -c pass`` child.

        Interpreter start-up and the in-process reference loop respond
        differently to load on the machine, so CLI ops are normalised by
        the start-up they consist of: the ratio counts interpreter starts.
        """
        t0 = time.perf_counter()
        code, _rss = _spawn(env, [env.python, "-c", "pass"], subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError("the bare interpreter failed to start")
        return time.perf_counter() - t0

    def run(self, op, env: Env, tr):
        _kind, argv, _out, _expected = op
        directory = env.tmp / "cli"
        cmd = [env.python, "-m", "palatogram.cli", *argv]
        with tr.span("cli.child") as span, open(directory / "stdout", "wb") as so, open(
            directory / "stderr", "wb"
        ) as se:
            code, rss_kb = _spawn(env, cmd, so, se)
        env.child_rss_kb = max(env.child_rss_kb, rss_kb)
        return code, span

    def replay(self, op, result, env: Env, tr):
        from palatogram import cli

        kind, argv, out, expected = op
        name = "cli.run_" + kind.partition("-")[0].replace("list", "list_sounds")
        with tr.span(name, 1, result[1]):
            got = self._run_in_process(cli, argv, out, env.tmp / "cli" / "replay")
        return [] if got == expected else [("cli", f"in-process {kind} run changed its output")]

    def outputs(self, op, result, env: Env) -> dict:
        directory = env.tmp / "cli"
        out = op[2]
        data = {
            "stdout": ("cli", (directory / "stdout").read_bytes()),
            "stderr": ("cli", (directory / "stderr").read_bytes()),
        }
        if out is not None:
            data[out.suffix[1:]] = ("cli", out.read_bytes() if out.exists() else b"")
        return data

    def check(self, op, result, outputs, env: Env):
        kind, _argv, out, (code, stdout, data) = op
        if result[0] != 0 or outputs["stderr"][1]:
            return [("cli", f"{kind} exited {result[0]}: {outputs['stderr'][1][:200]!r}")]
        if code != 0:
            return [("cli", f"in-process {kind} exited {code}")]
        if outputs["stdout"][1] != stdout:
            return [("cli", f"{kind} stdout differs from the in-process run")]
        if kind == "list-sounds":
            expected = "".join(name + "\n" for name in env.sounds).encode("utf-8")
            return [] if stdout == expected else [("cli", "list-sounds output is wrong")]
        got = outputs[out.suffix[1:]][1]
        if got != data:
            return [("cli", f"{kind} output differs from the in-process run")]
        if kind == "epg-txt":
            return grid_text_failures(got, 8, 8)
        if kind == "epg-svg":
            return svg_failures(got, circles=64)
        if kind == "epg-json":
            doc = json.loads(got)
            if (doc["rows"], doc["cols"], len(doc["cells"])) != (8, 8, 8):
                return [("cli", "epg json has the wrong shape")]
            return row_failures(doc["cells"])
        if kind == "slice-json":
            doc = json.loads(got)
            ok = doc.get("case") in ("none", "full") or (
                doc.get("case") == "intersection" and doc["z_left"] < doc["z_right"]
            )
            return [] if ok else [("cli", f"slice json is not a valid classification: {doc}")]
        if kind == "slice-svg":
            return svg_failures(got)
        # mesh: 40 x 32 grid, one classification (one or two markers) per row
        text = b"\n" + got
        markers = text.count(b"\nv ") - 41 * 33
        if not 41 <= markers <= 82:
            return [("render", f"mesh has {markers} marker vertices")]
        return obj_failures(got, 40, 32, markers)


WORKLOADS = {wl.name: wl for wl in (Raster(), Animate(), Figures(), Cli())}
