from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import palatogram
from palatogram import cli, compute_epg, epg_text, render_palatal_svg, sound_names, sounds
from palatogram.cli import run
from palatogram.errors import parse_json

SOUND_NAMES_UTF8 = "".join(f"{name}\n" for name in sound_names()).encode("utf-8")


def test_epg_txt_a_is_empty(capsys):
    assert run(["epg", "--sound", "a:", "--model", "cosine", "--format", "txt"]) == 0
    out = capsys.readouterr().out
    assert out == ("." * 8 + "\n") * 8


def test_epg_txt_t_anterior_closure(capsys):
    assert run(["epg", "--sound", "t", "--format", "txt"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "########"


def test_list_sounds(capsys):
    assert run(["list-sounds"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert len(names) == 12
    assert "t" in names and "θ" in names


def test_sound_flag_repeated_is_usage_error(capsys):
    assert run(["epg", "--sound", "t", "--sound", "i:"]) == 1
    assert capsys.readouterr().err.startswith("error: usage:")


def test_sound_and_contour_conflict(tmp_path, capsys):
    contour = tmp_path / "c.json"
    contour.write_text("[[0, 1], [40, 1]]", encoding="utf-8")
    assert run(["epg", "--sound", "t", "--contour", str(contour)]) == 1
    assert run(["epg"]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run(["epg", "--sound", "t", "--frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error: usage:")


def test_unknown_sound_is_validation_error(capsys):
    assert run(["epg", "--sound", "zz"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1


def test_missing_palate_file(capsys):
    assert run(["epg", "--sound", "t", "--palate", "/nonexistent/p.json"]) == 2
    assert capsys.readouterr().err.startswith("error: io:")


def test_invalid_palate_json(tmp_path, capsys):
    bad = tmp_path / "p.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["epg", "--sound", "t", "--palate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_model_override_changes_pattern(capsys):
    run(["epg", "--sound", "i:", "--model", "cosine", "--format", "txt"])
    cosine = capsys.readouterr().out
    run(["epg", "--sound", "i:", "--model", "half_ellipse", "--format", "txt"])
    ellipse = capsys.readouterr().out
    assert cosine != ellipse


def test_contour_file_bare_array(tmp_path, capsys):
    contour = tmp_path / "c.json"
    contour.write_text("[[0, 50], [40, 50]]", encoding="utf-8")
    assert run(["epg", "--contour", str(contour), "--format", "txt"]) == 0
    assert capsys.readouterr().out == ("#" * 8 + "\n") * 8


def test_epg_over_an_overlap_of_fewer_floats_than_rows(tmp_path, capsys):
    # 8 rows over [0, 5e-324] share the two positions there
    palate = tmp_path / "p.json"
    slices = [{"x": x, "z_min": -10, "z_max": 10, "h": 5} for x in (0, 5e-324)]
    palate.write_text(json.dumps({"shape": "cosine", "slices": slices}), encoding="utf-8")
    assert run(["epg", "--sound", "t", "--palate", str(palate), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(set(doc["x_of_row"])) == [0.0, 5e-324]


def test_epg_svg_idempotent(tmp_path):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(["epg", "--sound", "s", "--format", "svg", "--out", str(out1)]) == 0
    assert run(["epg", "--sound", "s", "--format", "svg", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_epg_json_structure(tmp_path):
    out = tmp_path / "f.json"
    assert run(["epg", "--sound", "k", "--rows", "4", "--cols", "6", "--out", str(out),
                "--format", "json"]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["rows"] == 4 and doc["cols"] == 6
    assert len(doc["cells"]) == 4


def test_slice_classification_json(capsys):
    assert run(["slice", "--x", "6", "--sound", "t", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"case": "full", "z_apex": 0.0}


def test_slice_svg_out(tmp_path):
    out = tmp_path / "s.svg"
    assert run(["slice", "--x", "25", "--sound", "i:", "--format", "svg",
                "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"<?xml")


def test_slice_outside_palate(capsys):
    assert run(["slice", "--x", "99", "--sound", "t", "--format", "json"]) == 2
    assert capsys.readouterr().err.startswith("error: domain:")


def test_mesh_counts(tmp_path):
    out = tmp_path / "m.obj"
    assert run(["mesh", "--nx", "4", "--nz", "8", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 45
    assert sum(1 for l in text.splitlines() if l.startswith("f ")) == 64


def test_mesh_with_sound_markers(tmp_path):
    out = tmp_path / "m.obj"
    assert run(["mesh", "--sound", "t", "--nx", "10", "--nz", "8", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "g full_contact" in text
    assert "g no_contact" in text


def test_mesh_zero_rows_is_one_error_line(capsys):
    for argv in (["mesh", "--sound", "t", "--nx", "0"], ["mesh", "--nx", "0"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: domain:") and "nx" in err
        assert err.count("\n") == 1


def test_animate_frames(tmp_path):
    spec = tmp_path / "anim.json"
    spec.write_text(
        json.dumps(
            {"targets": ["a:", "t"], "hold_ms": 100, "transition_ms": 100, "fps": 10}
        ),
        encoding="utf-8",
    )
    outdir = tmp_path / "frames"
    assert run(["animate", "--spec", str(spec), "--format", "txt",
                "--outdir", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["frame_00000.txt", "frame_00001.txt", "frame_00002.txt"]
    assert (outdir / "frame_00000.txt").read_text() == ("." * 8 + "\n") * 8


@pytest.mark.parametrize("fmt", ["txt", "svg"])
def test_animate_rasters_a_hold_once(tmp_path, capsys, monkeypatch, fmt):
    # a hold frame repeats its target object, so its rendered bytes are
    # reused: one raster per run of repeated targets, and still one file per
    # frame, each the bytes its own raster would give
    doc = {"targets": ["a:", "t", "s"], "hold_ms": [120, 80, 200], "transition_ms": 100, "fps": 25}
    spec = tmp_path / "anim.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    targets = sounds.animate(sounds.animation_spec_from_dict(parse_json(spec.read_bytes(), spec)))
    runs = 1 + sum(b is not a for a, b in zip(targets, targets[1:]))
    assert runs < len(targets)
    calls = []
    monkeypatch.setattr(cli, "compute_epg", lambda *a, **k: calls.append(a) or compute_epg(*a, **k))
    outdir = tmp_path / "frames"
    assert run(["animate", "--spec", str(spec), "--format", fmt, "--outdir", str(outdir)]) == 0
    assert len(calls) == runs
    assert capsys.readouterr().err == f"wrote {len(targets)} frames to {outdir}\n"
    geometry = palatogram.default_palate()
    for k, target in enumerate(targets):
        frame = compute_epg(geometry, target.contour, target.params)
        want = epg_text(frame).encode("utf-8") if fmt == "txt" else render_palatal_svg(frame)
        assert (outdir / f"frame_{k:05d}.{fmt}").read_bytes() == want


def test_animate_rejects_bad_spec(tmp_path, capsys):
    spec = tmp_path / "anim.json"
    spec.write_text(json.dumps({"targets": [], "fps": 10}), encoding="utf-8")
    assert run(["animate", "--spec", str(spec), "--outdir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize(
    "spec_text",
    [
        '{"targets": ["t"], "fps": NaN}',
        '{"targets": ["t", "s"], "hold_ms": [Infinity, 100]}',
    ],
    ids=["fps-nan", "hold-infinity"],
)
def test_animate_rejects_non_finite_timing(tmp_path, capsys, spec_text):
    spec = tmp_path / "anim.json"
    spec.write_text(spec_text, encoding="utf-8")
    outdir = tmp_path / "o"
    assert run(["animate", "--spec", str(spec), "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not outdir.exists() or not any(outdir.iterdir())


def test_animate_rejects_too_many_frames(tmp_path, capsys, monkeypatch):
    from palatogram import sounds

    def no_frames(spec):
        raise AssertionError("frames built for a rejected spec")

    monkeypatch.setattr(sounds, "animate", no_frames)
    spec = tmp_path / "anim.json"
    outdir = tmp_path / "o"
    for doc, count in (
        ('{"targets": ["t", "s"], "fps": 5e8}', "320000000"),
        # 100000.4 frame times, which animate makes 100001 frames of
        ('{"targets": ["t"], "hold_ms": 4000016, "fps": 25}', "100001"),
        # a count too long to print whole
        ('{"targets": ["t", "s"], "fps": 1e300}', "6.4e+299"),
    ):
        spec.write_text(doc, encoding="utf-8")
        assert run(["animate", "--spec", str(spec), "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: config: animation would need {count} frames, more than 100000\n"
        )
        assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["epg", "--sound", "t"],
    ["slice", "--sound", "t", "--x", "20", "--format", "json"],
    ["mesh"],
    ["list-sounds"],
])
def test_closed_stdout_is_one_io_error(capsys, monkeypatch, argv):
    # as with `palatogram ... >&-`: Python then starts with sys.stdout None
    monkeypatch.setattr(sys, "stdout", None)
    assert run(argv) == 2
    assert assert_one_error_line(capsys, "io") == "error: io: standard output is closed\n"


def test_closed_stderr_drops_its_lines(capsys, monkeypatch, tmp_path):
    # as with `palatogram ... 2>&-` when Python starts with sys.stderr None:
    # print(file=None) would write the line to stdout instead
    monkeypatch.setattr(sys, "stderr", None)
    assert run(["epg", "--sound", "zz"]) == 2
    assert run(["epg", "--sound", "t", "--frobnicate"]) == 1
    spec = tmp_path / "anim.json"
    spec.write_text('{"targets": ["t"], "fps": 10}', encoding="utf-8")
    assert run(["animate", "--spec", str(spec), "--outdir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == ""


def test_closed_stderr_keeps_the_exit_code():
    # a process started under `2>&-` has sys.stderr None, or one on a file it
    # opened for reading as fd 2, which fails to write; printing the error
    # line put it on stdout in the first case and exited 1 in the second
    src = str(Path(palatogram.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    script = '"$0" -m palatogram.cli epg --sound zz 2>&-'
    proc = subprocess.run(
        ["sh", "-c", script, sys.executable], env=env, capture_output=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"")


def test_list_sounds_writes_utf8_whatever_the_stdout_encoding(capsys, monkeypatch):
    assert run(["list-sounds"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == SOUND_NAMES_UTF8
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["list-sounds"]) == 0
    stdout.flush()
    assert stdout.buffer.getvalue() == SOUND_NAMES_UTF8


def test_list_sounds_under_an_ascii_locale():
    src = str(Path(palatogram.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(
        [sys.executable, "-m", "palatogram.cli", "list-sounds"],
        env=env, capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == SOUND_NAMES_UTF8


def test_help_exits_zero():
    assert run(["--help"]) == 0


def test_no_command_is_usage_error():
    assert run([]) == 1


def assert_one_error_line(capsys, code: str) -> str:
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}:") and err.count("\n") == 1, err
    return err


HUGE_INT = "1" + "0" * 400  # an integer too large for a float


@pytest.mark.parametrize(
    "argv_of, text",
    [
        (lambda f, tmp: ["animate", "--spec", f, "--outdir", str(tmp / "o")],
         '{"targets": ["t"], "fps": ' + HUGE_INT + "}"),
        (lambda f, tmp: ["epg", "--contour", f], "[[0, 1], [" + HUGE_INT + ", 2]]"),
        (lambda f, tmp: ["epg", "--sound", "t", "--palate", f],
         '{"shape": "cosine", "slices": [{"x": 0, "z_min": -1, "z_max": 1, "h": ' + HUGE_INT
         + '}, {"x": 1, "z_min": -1, "z_max": 1, "h": 2}]}'),
        (lambda f, tmp: ["epg", "--contour", f], "[[0, 1], [40, NaN]]"),
        (lambda f, tmp: ["epg", "--contour", f], '{"contour": [[0, 1], [40, 1]], '
         '"params": {"tth": -Infinity}}'),
        (lambda f, tmp: ["epg", "--contour", f], "[[0, 1], [40, 1e400]]"),
        (lambda f, tmp: ["epg", "--contour", f], "[" * 100_000),
        (lambda f, tmp: ["epg", "--contour", f], "[[0, 1], [40, 1" + "0" * 5000 + "]]"),
    ],
    ids=["fps-overflow", "contour-overflow", "palate-overflow", "nan", "infinity",
         "float-overflow", "deep-nesting", "too-many-digits"],
)
def test_json_numbers_outside_floats_are_one_config_error(tmp_path, capsys, argv_of, text):
    doc = tmp_path / "doc.json"
    doc.write_text(text, encoding="utf-8")
    assert run(argv_of(str(doc), tmp_path)) == 2
    assert_one_error_line(capsys, "config")


def test_contour_file_not_utf8_is_one_config_error(tmp_path, capsys):
    doc = tmp_path / "c.json"
    doc.write_bytes(b"[[0, 1], [40, \xff]]")
    assert run(["epg", "--contour", str(doc)]) == 2
    assert_one_error_line(capsys, "config")


def test_grid_sizes_are_bounded(tmp_path, capsys, monkeypatch):
    from palatogram import epg
    from palatogram.dome import MAX_SURFACE_STEPS

    def no_grid(cols):
        raise AssertionError("grid built for a rejected size")

    monkeypatch.setattr(epg, "column_fractions", no_grid)
    spec = tmp_path / "anim.json"
    spec.write_text('{"targets": ["t"], "fps": 10}', encoding="utf-8")
    too_many = str(epg.MAX_EPG_SIDE + 1)
    for argv in (
        ["epg", "--sound", "t", "--rows", "100000000"],
        ["epg", "--sound", "t", "--cols", too_many],
        ["animate", "--spec", str(spec), "--outdir", str(tmp_path / "o"), "--rows", too_many],
        ["mesh", "--nx", str(MAX_SURFACE_STEPS + 1)],
        ["mesh", "--nz", str(MAX_SURFACE_STEPS + 1)],
        ["mesh", "--sound", "t", "--nx", str(MAX_SURFACE_STEPS + 1)],
    ):
        assert run(argv) == 2, argv
        assert_one_error_line(capsys, "domain")


@pytest.mark.parametrize(
    "z_min, z_max",
    [(-1e308, 1e308), (1.7e308, 1.75e308)],
    ids=["span-overflow", "center-overflow"],
)
@pytest.mark.parametrize(
    "argv",
    [["slice", "--sound", "t", "--x", "0", "--format", "svg"], ["mesh", "--sound", "t"]],
    ids=["slice", "mesh"],
)
def test_palate_whose_span_overflows_is_one_config_error(tmp_path, capsys, z_min, z_max, argv):
    # each number is finite, but z_max - z_min or z_min + z_max is not
    palate = tmp_path / "p.json"
    palate.write_text(json.dumps({"shape": "cosine", "slices": [
        {"x": 0, "z_min": z_min, "z_max": z_max, "h": 1},
        {"x": 40, "z_min": -1, "z_max": 1, "h": 1},
    ]}), encoding="utf-8")
    assert run([*argv, "--palate", str(palate)]) == 2
    out = capsys.readouterr()
    assert "nan" not in out.out and "nan" not in out.err
    assert out.err.startswith("error: config:") and out.err.count("\n") == 1, out.err


def palate_doc(shape: str, *slices: dict) -> str:
    return json.dumps({"shape": shape, "slices": [{"x": 20.0 * i, **item}
                                                  for i, item in enumerate(slices)]})


WIDE = {"z_min": -10, "z_max": 10, "h": 5}
SUBNORMAL_WIDTH = {"z_min": 0, "z_max": 5e-324, "h": 1}


@pytest.mark.parametrize(
    "palate, argv",
    [
        (palate_doc("half_ellipse", SUBNORMAL_WIDTH, WIDE),
         ["slice", "--x", "0", "--format", "svg"]),
        (palate_doc("half_ellipse", SUBNORMAL_WIDTH, WIDE), ["mesh"]),
        (palate_doc("cosine", WIDE, SUBNORMAL_WIDTH, WIDE), ["epg", "--rows", "1"]),
        (palate_doc("half_ellipse", {**WIDE, "h": 1e308}, WIDE), ["mesh"]),
        (palate_doc("half_ellipse", {"z_min": 0, "z_max": 1e-200, "h": 5}, WIDE), ["epg"]),
    ],
    ids=["subnormal-width-slice", "subnormal-width-mesh", "subnormal-width-epg",
         "huge-height-mesh", "underflow-width-epg"],
)
def test_palate_past_the_length_bounds_is_one_config_error(tmp_path, capsys, palate, argv):
    # each of these used to raise ZeroDivisionError, print a 300-digit vertex,
    # or raster a half-ellipse whose midline elevation underflowed to 0.0
    palate_file, contour_file = tmp_path / "p.json", tmp_path / "c.json"
    palate_file.write_text(palate, encoding="utf-8")
    contour_file.write_text(json.dumps({"contour": [[0, 3], [40, 3]], "params": {
        "tt_manner": "full", "tth": 1, "posterior_onset_x": 0}}), encoding="utf-8")
    assert run([*argv, "--palate", str(palate_file), "--contour", str(contour_file)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert not re.search(r"\b(nan|inf)\b", out.err)
    assert out.err.startswith("error: config:") and out.err.count("\n") == 1, out.err


@pytest.mark.parametrize(
    "params, message",
    [
        ({"groove_enabled": "no"}, "groove_enabled must be a boolean"),
        ({"tt_manner": "bogus"},
         "tt_manner must be one of ['full', 'near', 'lateral'], got 'bogus'"),
    ],
    ids=["groove-str", "tip-name"],
)
def test_contour_params_of_the_wrong_type_are_one_config_error(tmp_path, capsys, params, message):
    # "no" used to switch the groove on, and an unknown manner name passed as
    # neither manner
    contour = tmp_path / "c.json"
    doc = {"contour": [[0, 3], [40, 3]], "params": params}
    contour.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["epg", "--contour", str(contour)]) == 2
    assert assert_one_error_line(capsys, "config") == f"error: config: {message}\n"


@pytest.mark.parametrize(
    "x, code",
    [("-1e-3", 2), ("-inf", 2), ("-Infinity", 2), ("-nan", 2), ("-1E+2", 2), ("-.5", 2),
     ("-0e0", 0), ("-1e", 1)],
)
def test_negative_x_in_any_float_form_is_a_value(capsys, x, code):
    # argparse alone reads only -12 and -1.5 as negative numbers, so these
    # used to fail with "argument --x: expected one argument"
    assert run(["slice", "--sound", "t", "--x", x, "--format", "json"]) == code
    if code == 0:
        assert json.loads(capsys.readouterr().out)["case"] in ("none", "intersection", "full")
    elif code == 2:
        assert "outside palate range" in assert_one_error_line(capsys, "domain")
    else:
        assert "expected one argument" in assert_one_error_line(capsys, "usage")
