"""Command-line interface.

Subcommands:
    epg         contact grid for one sound, in one of the frame formats
    slice       coronal cross-section at a given x (view or classification)
    mesh        annotated 3D dome surface (obj)
    animate     frame sequence for a timed target animation
    list-sounds available preset names

Exit codes: 0 success, 1 usage error, 2 validation, domain or io error.
Output is bytes, UTF-8 whatever the locale; a closed stdout is an io error.
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
from .render import export_obj, render_coronal_svg, render_palatal_ppm, render_palatal_svg
from .shaping import midsagittal_height
from .sounds import SoundTarget

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# format name -> bytes of one EPG frame, for epg and every animate frame
_FRAME_FORMATS = {
    "txt": lambda frame: epg_text(frame).encode("utf-8"),
    "json": lambda frame: _json_bytes(epg_to_dict(frame)),
    "svg": render_palatal_svg,
    "ppm": render_palatal_ppm,
}
# format name -> bytes of one coronal slice under a midline tongue height
_SLICE_FORMATS = {
    "svg": render_coronal_svg,
    "json": lambda sl, u: _json_bytes(contact_to_dict(classify_slice(sl, u))),
}


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

    def add_frame_opts(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument("--rows", type=int, default=8)
        p.add_argument("--cols", type=int, default=8)
        p.add_argument("--format", choices=_FRAME_FORMATS, default=default_format)

    epg = sub.add_parser("epg", help="EPG-style contact grid")
    add_palate_opts(epg)
    add_tongue_opts(epg)
    add_frame_opts(epg, "txt")
    epg.add_argument("--out", default="-", metavar="PATH", help="output path, '-' for stdout")

    slc = sub.add_parser("slice", help="coronal slice view and contact classification")
    add_palate_opts(slc)
    add_tongue_opts(slc)
    slc.add_argument("--x", type=float, required=True, metavar="MM")
    slc.add_argument("--format", choices=_SLICE_FORMATS, default="svg")
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
    add_frame_opts(anim, "svg")
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


def _write(out: str | Path, data: bytes) -> None:
    """Write a command's output to the file out, or to standard output for '-'."""
    if out != "-":
        Path(out).write_bytes(data)
    elif sys.stdout is None:  # the process started with it closed, as under `>&-`
        raise OSError("standard output is closed")
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _say(line: str) -> None:
    """Write a line to standard error, or drop it when standard error is closed.

    A process started under `2>&-` has sys.stderr None, or a sys.stderr on
    whatever file the interpreter opened next as descriptor 2, which fails
    to write.
    """
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        pass


def _cmd_epg(ns: argparse.Namespace) -> int:
    geometry = _load_geometry(ns)
    target = _load_target(ns)
    frame = compute_epg(geometry, target.contour, target.params, rows=ns.rows, cols=ns.cols)
    _write(ns.out, _FRAME_FORMATS[ns.format](frame))
    return 0


def _cmd_slice(ns: argparse.Namespace) -> int:
    geometry = _load_geometry(ns)
    target = _load_target(ns)
    sl = slice_at(geometry, ns.x)
    u = midsagittal_height(target.contour, ns.x)
    _write(ns.out, _SLICE_FORMATS[ns.format](sl, u))
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
    render = _FRAME_FORMATS[ns.format]
    held = data = None
    for k, target in enumerate(frames):
        if target is not held:  # a hold frame repeats its target object, and its bytes
            frame = compute_epg(geometry, target.contour, target.params, rows=ns.rows, cols=ns.cols)
            held, data = target, render(frame)
        _write(outdir / f"frame_{k:05d}.{ns.format}", data)
    _say(f"wrote {len(frames)} frames to {outdir}")
    return 0


def _cmd_list_sounds(_: argparse.Namespace) -> int:
    _write("-", "".join(f"{name}\n" for name in sounds.sound_names()).encode("utf-8"))
    return 0


_COMMANDS = {
    "epg": _cmd_epg,
    "slice": _cmd_slice,
    "mesh": _cmd_mesh,
    "animate": _cmd_animate,
    "list-sounds": _cmd_list_sounds,
}


def run(argv: list[str]) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        _say(f"error: usage: {exc}")
        return 1
    except PalatogramError as exc:
        _say(f"error: {exc.code}: {exc}")
        return 2
    except OSError as exc:
        _say(f"error: io: {exc}")
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
