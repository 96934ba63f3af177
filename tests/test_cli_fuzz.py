"""The command line under random input: it works or prints one error line.

Every subcommand is run through ``cli.run`` with argv and JSON palates,
contours and animation specs drawn around the edges of the input domain:
lengths at and just past MAX_MM, subnormals, -0.0, integers too large for a
float, values of the wrong type, and non-finite ``--x`` values. Each run must
return 0, 1 or 2 without an exception escaping; a failing run prints exactly
one ``error:`` line; a run that succeeds writes no NaN or infinity.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from palatogram.cli import run
from palatogram.errors import MAX_MM

NON_FINITE_WORD = re.compile(rb"\b(nan|inf|infinity)\b", re.IGNORECASE)
PAST_MM = math.nextafter(MAX_MM, math.inf)
HUGE_INT = 10**400  # written by json.dumps as 401 digits

# numbers at the edges of the domain (json.dumps writes math.nan as NaN, which
# every reader rejects), then ordinary lengths of a palate
edge_numbers = st.sampled_from(
    [0, -0.0, 5e-324, -5e-324, 1e-300, MAX_MM, -MAX_MM, PAST_MM, -PAST_MM, 1e308, -1e308,
     HUGE_INT, -HUGE_INT, 2**53 + 1, math.nan]
)
lengths = st.one_of(edge_numbers, st.floats(-60.0, 60.0), st.integers(-60, 60))
wrong_types = st.sampled_from(["1", None, True, [1], {}])
values = st.one_of(edge_numbers, edge_numbers, edge_numbers, lengths, wrong_types)
# lateral ends of one slice: widths that round to nothing, ends at and past the bound
ends = st.sampled_from(
    [(0, 5e-324), (0, 5e-324), (-5e-324, 5e-324), (0, 1e-300), (-MAX_MM, MAX_MM),
     (-PAST_MM, PAST_MM), (-1e200, 1e200), (-1e200, 1e200), (-1e308, 1e308), (1e5, 1e5 + 1e-9),
     (10, -10)]
)


@st.composite
def palates(draw) -> object:
    """A valid palate document with up to two of its values replaced."""
    slices = [{"x": 15.0 * i, "z_min": -10.0, "z_max": 10.0, "h": 5.0}
              for i in range(draw(st.integers(2, 4)))]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        item = draw(st.sampled_from([slices[0], *slices]))  # the first is read most
        key = draw(st.sampled_from(["x", "z_min", "z_max", "h", "h", "w", "-h", *["ends"] * 4]))
        if key == "ends":
            item["z_min"], item["z_max"] = draw(ends)
        elif key == "-h":
            item.pop("h", None)
        else:
            item[key] = draw(values)
    doc = {"shape": draw(st.sampled_from(["cosine", "half_ellipse", "half_ellipse"])),
           "slices": slices}
    return draw(st.sampled_from([doc, doc, doc, doc, doc, slices, {**doc, "shape": "oval"}]))


@st.composite
def contours(draw) -> object:
    """A valid contour document, bare or with params, with up to two values replaced."""
    points = [[0.0, draw(st.floats(-5.0, 25.0))], [20.0, 8.0], [45.0, draw(st.floats(-5.0, 25.0))]]
    params = {"tt_manner": "full", "tth": 1, "posterior_onset_x": 0}
    params.update(draw(st.sampled_from(
        [{}, {"groove_enabled": True}, {"lateral_lower_enabled": True}, {"td_manner": "full"}]
    )))
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(["point", "point", "param", "param", "extra point"]))
        if where == "point":
            draw(st.sampled_from(points[:3]))[draw(st.integers(0, 1))] = draw(values)
        elif where == "param":
            key = draw(st.sampled_from(
                ["tth", "edge_elev_max", "posterior_onset_x", "groove_width", "groove_depth",
                 "lateral_lower_width", "tt_manner", "groove_enabled", "tilt"]
            ))
            params[key] = draw(values)
        else:
            points.append(draw(st.sampled_from([[60.0, 1.0], [1.0], "x"])))
    return draw(st.sampled_from([points, {"contour": points, "params": params}]))


@st.composite
def specs(draw) -> object:
    """A valid animation spec of at most about 20 frames, with up to one value replaced."""
    doc = {"targets": draw(st.lists(st.sampled_from(["t", "s", "a:"]), min_size=1, max_size=3)),
           "hold_ms": 40, "transition_ms": 100, "fps": 25}
    if draw(st.booleans()):
        key = draw(st.sampled_from(["targets", "hold_ms", "transition_ms", "fps", "loop"]))
        doc[key] = draw(st.sampled_from(
            [0, -5, 0.5, 1e308, HUGE_INT, 5e8, "25", None, True, [], ["zz"], [40, 40]]
        ))
    return doc


# grid sizes: small valid ones, a cap reached on one side only, and rejections
epg_grids = st.sampled_from(
    [("1", "2"), ("3", "5"), ("8", "8"), ("8", "8"), ("8", "8"), ("1024", "2"), ("1", "1024"),
     ("1025", "2"), ("2", "1025"), ("0", "8"), ("8", "1"), ("100000000", "8")]
)
mesh_grids = st.sampled_from(
    [("1", "1"), ("4", "8"), ("4", "8"), ("4", "8"), ("512", "1"), ("1", "512"), ("513", "2"),
     ("2", "0")]
)
xs = st.one_of(
    st.floats(0.0, 45.0).map(str),
    st.sampled_from(["0", "0", "15", "45"]),
    lengths.map(str),
    st.sampled_from(["nan", "inf", "-inf", "infinity", "1e400", "abc", "0x10"]),
)


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, str]]:
    """argv for one run and the files it names, as {name: text}."""
    files: dict[str, str] = {}
    command = draw(st.sampled_from(["epg", "slice", "mesh", "animate", "other"]))
    if command == "other":
        return draw(st.sampled_from(
            [["list-sounds"], ["bogus"], [], ["--help"], ["epg", "--sound"], ["epg", "--sound", "t",
             "--sound", "s"], ["epg", "--contour", "{dir}/none.json"], ["mesh", "--nx", "1.5"]]
        )), files
    argv = [command]
    if draw(st.sampled_from([True, True, True, False])):
        files["palate.json"] = json.dumps(draw(palates()))
        argv += ["--palate", "{dir}/palate.json"]
    model = draw(st.sampled_from([None, None, None, "cosine", "half_ellipse"]))
    if model:
        argv += ["--model", model]
    if command == "animate":
        files["spec.json"] = json.dumps(draw(specs()))
        rows, cols = draw(st.sampled_from([("1", "2"), ("8", "8"), ("8", "8"), ("0", "2")]))
        fmt = draw(st.sampled_from(["txt", "json", "svg", "ppm"]))
        return argv + ["--spec", "{dir}/spec.json", "--rows", rows, "--cols", cols,
                       "--format", fmt, "--outdir", "{dir}/frames"], files
    tongue = draw(st.sampled_from(["sound", "contour", "contour", "contour", "contour"]))
    if tongue in ("sound", "both"):
        argv += ["--sound", draw(st.sampled_from(["t", "s", "l", "a:", "zz"]))]
    if tongue in ("contour", "both"):
        files["contour.json"] = json.dumps(draw(contours()))
        argv += ["--contour", "{dir}/contour.json"]
    if command == "epg":
        rows, cols = draw(epg_grids)
        fmt = draw(st.sampled_from(["txt", "json", "svg", "ppm"]))
        argv += ["--rows", rows, "--cols", cols, "--format", fmt]
    elif command == "slice":
        argv += [f"--x={draw(xs)}", "--format", draw(st.sampled_from(["svg", "json"]))]
    else:
        nx, nz = draw(mesh_grids)
        argv += ["--nx", nx, "--nz", nz]
    argv += ["--out", draw(st.sampled_from(["-", "{dir}/out"]))]
    return argv, files


def written_text(data: bytes, name: str) -> bytes:
    """What a NaN could be printed in: all of a text file, a PPM's header."""
    return b"\n".join(data.split(b"\n", 3)[:3]) if name.endswith(".ppm") else data


@settings(max_examples=400, deadline=None)
@given(invocation=invocations())
def test_cli_run_exits_cleanly(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        stdout.flush()
        out, err = stdout.buffer.getvalue(), stderr.getvalue()
        assert code in (0, 1, 2)
        event(f"{argv[:1]} exits {code}")
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
        written = [(p.name, p.read_bytes()) for p in Path(tmp).rglob("*") if p.is_file()]
        for name, data in [("stdout", out), *written]:
            if name not in files:
                assert not NON_FINITE_WORD.search(written_text(data, name)), (argv, name)
