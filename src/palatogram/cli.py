"""Command-line interface.

Subcommands:
    epg         contact grid for one sound (txt, json, svg, ppm)
    slice       coronal cross-section at a given x (svg or classification json)
    mesh        annotated 3D dome surface (obj)
    animate     frame sequence for a timed target animation
    list-sounds available preset names

Exit codes: 0 success, 1 usage error, 2 validation or domain error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import sounds
from .contact import classify_slice, contact_to_dict, surface_contacts
from .dome import DomeShape, PalateGeometry, default_palate, load_palate, slice_at, with_shape
from .epg import compute_epg, epg_text, epg_to_dict
from .errors import PalatogramError, parse_json
from .render import (
    export_obj,
    render_coronal_svg,
    render_palatal_ppm,
    render_palatal_svg,
)
from .shaping import midsagittal_height
from .sounds import SoundTarget

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:  # subparsers are _Parsers too
        super().__init__(*args, **kwargs)
        # argparse alone takes -12 and -1.5, but not -1e-3 or -inf, as a value
        self._negative_number_matcher = re.compile(
            r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message: str):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="palatogram", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_palate_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--palate", metavar="FILE", help="palate config JSON (default: built-in)")
        p.add_argument(
            "--model",
            choices=[s.value for s in DomeShape],
            help="dome model override (takes precedence over the palate file)",
        )

    def add_tongue_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sound", action="append", metavar="NAME", help="preset sound name")
        p.add_argument("--contour", metavar="FILE", help="tongue contour JSON file")

    epg = sub.add_parser("epg", help="EPG-style contact grid")
    add_palate_opts(epg)
    add_tongue_opts(epg)
    epg.add_argument("--rows", type=int, default=8)
    epg.add_argument("--cols", type=int, default=8)
    epg.add_argument("--format", choices=["txt", "json", "svg", "ppm"], default="txt")
    epg.add_argument("--out", default="-", metavar="PATH", help="output path, '-' for stdout")

    slc = sub.add_parser("slice", help="coronal slice view and contact classification")
    add_palate_opts(slc)
    add_tongue_opts(slc)
    slc.add_argument("--x", type=float, required=True, metavar="MM")
    slc.add_argument("--format", choices=["svg", "json"], default="svg")
    slc.add_argument("--out", default="-", metavar="PATH")

    mesh = sub.add_parser("mesh", help="3D dome surface as OBJ")
    add_palate_opts(mesh)
    add_tongue_opts(mesh)
    mesh.add_argument("--nx", type=int, default=40)
    mesh.add_argument("--nz", type=int, default=32)
    mesh.add_argument("--out", default="-", metavar="PATH")

    anim = sub.add_parser("animate", help="render animation frames")
    add_palate_opts(anim)
    anim.add_argument("--spec", required=True, metavar="FILE", help="animation spec JSON")
    anim.add_argument("--rows", type=int, default=8)
    anim.add_argument("--cols", type=int, default=8)
    anim.add_argument("--format", choices=["txt", "json", "svg", "ppm"], default="svg")
    anim.add_argument("--outdir", required=True, metavar="DIR")

    sub.add_parser("list-sounds", help="list preset sound names")
    return parser


def _load_geometry(ns: argparse.Namespace) -> PalateGeometry:
    geometry = load_palate(ns.palate) if ns.palate else default_palate()
    if ns.model:
        geometry = with_shape(geometry, ns.model)
    return geometry


def _load_target(ns: argparse.Namespace) -> SoundTarget:
    sound_args = ns.sound or []
    if len(sound_args) > 1:
        raise UsageError("--sound given more than once")
    if bool(sound_args) == bool(ns.contour):
        raise UsageError("exactly one of --sound or --contour is required")
    if sound_args:
        return sounds.get_target(sound_args[0])
    return sounds.load_target(ns.contour)


def _write(out: str, data: bytes | str) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    if out == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(data)


def _render_frame(frame, fmt: str) -> bytes:
    if fmt == "txt":
        return epg_text(frame).encode("utf-8")
    if fmt == "json":
        return (json.dumps(epg_to_dict(frame), indent=2) + "\n").encode("utf-8")
    if fmt == "svg":
        return render_palatal_svg(frame)
    return render_palatal_ppm(frame)


def _cmd_epg(ns: argparse.Namespace) -> int:
    geometry = _load_geometry(ns)
    target = _load_target(ns)
    frame = compute_epg(geometry, target.contour, target.params, rows=ns.rows, cols=ns.cols)
    _write(ns.out, _render_frame(frame, ns.format))
    return 0


def _cmd_slice(ns: argparse.Namespace) -> int:
    geometry = _load_geometry(ns)
    target = _load_target(ns)
    sl = slice_at(geometry, ns.x)
    u = midsagittal_height(target.contour, ns.x)
    if ns.format == "svg":
        _write(ns.out, render_coronal_svg(sl, u))
    else:
        doc = contact_to_dict(classify_slice(sl, u))
        _write(ns.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_mesh(ns: argparse.Namespace) -> int:
    geometry = _load_geometry(ns)
    contacts = None
    if ns.sound or ns.contour:
        contacts = surface_contacts(geometry, _load_target(ns).contour, ns.nx)
    _write(ns.out, export_obj(geometry, ns.nx, ns.nz, contacts))
    return 0


def _cmd_animate(ns: argparse.Namespace) -> int:
    geometry = _load_geometry(ns)
    spec = sounds.animation_spec_from_dict(parse_json(Path(ns.spec).read_bytes(), ns.spec))
    outdir = Path(ns.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    frames = sounds.animate(spec)
    for k, target in enumerate(frames):
        frame = compute_epg(geometry, target.contour, target.params, rows=ns.rows, cols=ns.cols)
        path = outdir / f"frame_{k:05d}.{ns.format}"
        path.write_bytes(_render_frame(frame, ns.format))
    print(f"wrote {len(frames)} frames to {outdir}", file=sys.stderr)
    return 0


def _cmd_list_sounds(_: argparse.Namespace) -> int:
    for name in sounds.sound_names():
        print(name)
    return 0


_COMMANDS = {
    "epg": _cmd_epg,
    "slice": _cmd_slice,
    "mesh": _cmd_mesh,
    "animate": _cmd_animate,
    "list-sounds": _cmd_list_sounds,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except PalatogramError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
