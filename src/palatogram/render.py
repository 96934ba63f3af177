"""Deterministic emitters: palatal-view SVG/PPM, coronal-slice SVG, OBJ mesh.

Every builder is a pure function of its inputs. Output bytes are stable
across runs: fixed attribute order, fixed decimal precision, no timestamps.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

from ._frozen import Frozen
from .contact import ContactClass, FullContact, Intersection, NoContact, classify_slice
from .dome import (
    DomeSlice,
    PalateGeometry,
    dome_elevation,
    dome_elevations,
    sample_surface,
    slice_at,
)
from .epg import EPGFrame, column_fractions
from .errors import ConfigError, DomainError

__all__ = [
    "RenderStyle",
    "render_palatal_svg",
    "render_coronal_svg",
    "render_palatal_ppm",
    "export_obj",
]

_HEX_COLOR = re.compile(r"^#[0-9a-fA-F]{6}$")


class RenderStyle(Frozen):
    """Canvas size and marker colors for documents."""

    __slots__ = ("width", "height", "contact_color", "no_contact_color", "outline_color")

    def __init__(
        self,
        width: int = 420,
        height: int = 480,
        contact_color: str = "#cc2222",
        no_contact_color: str = "#eecc44",
        outline_color: str = "#445566",
    ) -> None:
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "contact_color", contact_color)
        object.__setattr__(self, "no_contact_color", no_contact_color)
        object.__setattr__(self, "outline_color", outline_color)
        # whole pixels only: 420.0 would print as "420.0" yet equal 420, and
        # equal styles share one cached palatal layout
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (width, height)):
            raise ConfigError("canvas dimensions must be integers")
        if width <= 0 or height <= 0:
            raise ConfigError("canvas dimensions must be positive")
        for name in ("contact_color", "no_contact_color", "outline_color"):
            if not _HEX_COLOR.match(getattr(self, name)):
                raise ConfigError(f"{name} must be a 6-digit hex color like #rrggbb")

    @staticmethod
    def fmt(value: float) -> str:
        """A document coordinate: fixed 3 decimals, never ``-0.000``."""
        text = f"{value:.3f}"
        return "0.000" if text == "-0.000" else text


def _svg_open(style: RenderStyle) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{style.width}" '
        f'height="{style.height}" viewBox="0 0 {style.width} {style.height}">',
        f'<rect x="0" y="0" width="{style.width}" height="{style.height}" fill="#ffffff"/>',
    ]


def _palatal_layout(rows: int, cols: int, style: RenderStyle):
    """Dot centers and radius for a rows x cols palatal lattice, anterior at the top."""
    w, h = float(style.width), float(style.height)
    margin = 0.08 * min(w, h)
    arch_top = margin
    arch_bottom = h - margin
    usable_h = arch_bottom - arch_top
    y0 = arch_top + 0.22 * usable_h
    y1 = arch_bottom - 0.08 * usable_h
    radius = min((y1 - y0) / rows, (w - 2 * margin) / cols) * 0.30
    fracs = column_fractions(cols)
    centers = []
    for i in range(rows):
        cy = y0 + (i + 0.5) * (y1 - y0) / rows
        # the palate narrows toward the incisors; shrink anterior rows
        narrow = 0.58 + 0.42 * (i + 0.5) / rows
        row = []
        for f in fracs:
            cx = 0.5 * w + (f - 0.5) * (w - 2 * margin - 2 * radius) * narrow
            row.append((cx, cy))
        centers.append(row)
    return centers, radius, margin


def _horseshoe(style: RenderStyle, margin: float) -> tuple[float, float, float]:
    """Radii rx, ry of the palatal outline's arch and the y of its shoulders."""
    w, h = float(style.width), float(style.height)
    rx = 0.5 * w - margin
    ry = 0.42 * (h - 2 * margin)
    return rx, ry, margin + ry


def _horseshoe_path(style: RenderStyle, margin: float) -> str:
    w, h = float(style.width), float(style.height)
    rx, ry, shoulder_y = _horseshoe(style, margin)
    f = style.fmt
    return (
        f"M {f(margin)} {f(h - margin)} "
        f"L {f(margin)} {f(shoulder_y)} "
        f"A {f(rx)} {f(ry)} 0 0 1 {f(w - margin)} {f(shoulder_y)} "
        f"L {f(w - margin)} {f(h - margin)}"
    )


# The frames of one animation share a canvas and a lattice; a few entries
# cover the lattices one process renders at a time.
@functools.lru_cache(maxsize=16)
def _palatal_svg_layout(style: RenderStyle, rows: int, cols: int) -> tuple[str, tuple[str, ...]]:
    """The palatal SVG up to its first dot, and each dot's text up to its fill color."""
    parts = _svg_open(style)
    centers, radius, margin = _palatal_layout(rows, cols, style)
    parts.append(
        f'<path d="{_horseshoe_path(style, margin)}" fill="none" '
        f'stroke="{style.outline_color}" stroke-width="2"/>'
    )
    f = style.fmt
    r = f(radius)
    dots = []
    for row in centers:
        cy = f(row[0][1])
        dots.extend(f'<circle cx="{f(cx)}" cy="{cy}" r="{r}" fill="' for cx, _cy in row)
    return "\n".join(parts), tuple(dots)


def render_palatal_svg(frame: EPGFrame, style: RenderStyle = RenderStyle()) -> bytes:
    """Palatal view: one dot per grid cell inside a horseshoe outline.

    The layout is computed once per canvas, style and lattice; a frame only
    adds its fill colors.
    """
    head, dots = _palatal_svg_layout(style, frame.rows, frame.cols)
    on, off = style.contact_color + '"/>', style.no_contact_color + '"/>'
    cells = itertools.chain.from_iterable(frame.cells)
    parts = [head]
    parts += [dot + (on if contacted else off) for dot, contacted in zip(dots, cells)]
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


CORONAL_CURVE_SAMPLES = 256


def render_coronal_svg(
    slice_: DomeSlice, u: float, style: RenderStyle = RenderStyle()
) -> bytes:
    """Coronal view: dome profile, flat tongue line at u, contact markers."""
    w, h = float(style.width), float(style.height)
    margin = 0.10 * min(w, h)
    u_lo = min(0.0, u) - 0.15 * slice_.h
    u_hi = slice_.h + 0.15 * slice_.h
    if u > slice_.h:
        u_hi = u + 0.15 * slice_.h

    def sx(z: float) -> float:
        return margin + (z - slice_.z_min) / slice_.span * (w - 2 * margin)

    def sy(elev: float) -> float:
        return h - margin - (elev - u_lo) / (u_hi - u_lo) * (h - 2 * margin)

    f = style.fmt
    parts = _svg_open(style)
    # occlusal baseline
    parts.append(
        f'<line x1="{f(sx(slice_.z_min))}" y1="{f(sy(0.0))}" '
        f'x2="{f(sx(slice_.z_max))}" y2="{f(sy(0.0))}" '
        f'stroke="#999999" stroke-width="1"/>'
    )
    ts = [k / (CORONAL_CURVE_SAMPLES - 1) for k in range(CORONAL_CURVE_SAMPLES)]
    zs = [(1.0 - t) * slice_.z_min + t * slice_.z_max for t in ts]
    pts = [f"{f(sx(z))},{f(sy(y))}" for z, y in zip(zs, dome_elevations(slice_, zs))]
    parts.append(
        f'<polyline points="{" ".join(pts)}" fill="none" '
        f'stroke="{style.outline_color}" stroke-width="2"/>'
    )
    # flat coronal tongue line
    parts.append(
        f'<line x1="{f(sx(slice_.z_min))}" y1="{f(sy(u))}" '
        f'x2="{f(sx(slice_.z_max))}" y2="{f(sy(u))}" '
        f'stroke="#227722" stroke-width="2"/>'
    )
    contact = classify_slice(slice_, u)
    marker = min(w, h) * 0.018
    if isinstance(contact, NoContact):
        for z in (slice_.z_min, slice_.z_max):
            parts.append(
                f'<circle cx="{f(sx(z))}" cy="{f(sy(0.0))}" r="{f(marker)}" '
                f'fill="{style.no_contact_color}"/>'
            )
    elif isinstance(contact, Intersection):
        for z in (contact.z_left, contact.z_right):
            cx, cy = sx(z), sy(u)
            for dx0, dy0, dx1, dy1 in (
                (-marker, -marker, marker, marker),
                (-marker, marker, marker, -marker),
            ):
                parts.append(
                    f'<line x1="{f(cx + dx0)}" y1="{f(cy + dy0)}" '
                    f'x2="{f(cx + dx1)}" y2="{f(cy + dy1)}" '
                    f'stroke="{style.contact_color}" stroke-width="2"/>'
                )
    else:
        parts.append(
            f'<circle cx="{f(sx(contact.z_apex))}" cy="{f(sy(slice_.h))}" '
            f'r="{f(marker)}" fill="{style.contact_color}"/>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


_GROUP_OF_CLASS = {
    NoContact: "no_contact",
    Intersection: "intersection",
    FullContact: "full_contact",
}

_OBJ_VERTEX = "v %.6f %.6f %.6f"


def export_obj(
    geometry: PalateGeometry,
    nx: int,
    nz: int,
    contacts: list[ContactClass] | None = None,
) -> bytes:
    """Triangulated dome surface, plus optional per-slice contact markers.

    Markers are emitted as extra vertices inside named groups (no_contact,
    intersection, full_contact); they are not referenced by any face.
    """
    grid = sample_surface(geometry, nx, nz)
    if contacts is not None and len(contacts) != nx + 1:
        raise DomainError(
            f"contacts list must have nx+1 = {nx + 1} entries, got {len(contacts)}"
        )
    lines = [_OBJ_VERTEX % point for row in grid for point in row]
    lines.append("g palate")
    # two triangles per quad; v is the 1-based index of the quad's corner at
    # (row i, column j), and base that of the row's first vertex
    stride = nz + 1
    lines += [
        f"f {v} {v + stride} {v + stride + 1}\nf {v} {v + stride + 1} {v + 1}"
        for base in range(1, nx * stride + 1, stride)
        for v in range(base, base + nz)
    ]
    if contacts is not None:
        for i, contact in enumerate(contacts):
            x = grid[i][0][0]
            sl = slice_at(geometry, x)
            group = _GROUP_OF_CLASS.get(type(contact))
            if group is None:
                raise DomainError(f"contacts[{i}] is not a contact classification")
            lines.append(f"g {group}")
            if isinstance(contact, NoContact):
                markers = [(sl.z_min, 0.0), (sl.z_max, 0.0)]
            elif isinstance(contact, Intersection):
                markers = [
                    (contact.z_left, dome_elevation(sl, contact.z_left)),
                    (contact.z_right, dome_elevation(sl, contact.z_right)),
                ]
            else:
                markers = [(contact.z_apex, sl.h)]
            lines.extend(_OBJ_VERTEX % (x, y, z) for z, y in markers)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _hex_rgb(color: str) -> bytes:
    return bytes((int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16)))


def _disc_runs(cx: float, cy: float, r: float, w: int, h: int) -> list[tuple[int, int, int]]:
    """The pixels of a w x h canvas inside a disc, as (row, first, last) runs.

    Pixel (px, py) is inside when ``(px + 0.5 - cx) ** 2 + (py + 0.5 - cy) ** 2
    <= r * r``, tested over the disc's bounding box widened by one pixel.
    """
    x0, x1 = max(0, int(cx - r) - 1), min(w - 1, int(cx + r) + 1)
    y0, y1 = max(0, int(cy - r) - 1), min(h - 1, int(cy + r) + 1)
    rr = r * r
    runs = []
    for py in range(y0, y1 + 1):
        dy2 = (py + 0.5 - cy) ** 2
        if dy2 > rr:
            continue
        # The pixels passing the test form one run: fl(px + 0.5 - cx) is
        # monotone in px, and squaring and adding dy2 keep its order on each
        # side of cx. The exact circle, widened by a pixel on each side for
        # rounding, covers that run; trim both ends with the test itself.
        half = math.sqrt(rr - dy2)
        a = max(x0, math.ceil(cx - 0.5 - half) - 1)
        b = min(x1, math.floor(cx - 0.5 + half) + 1)
        while a <= b and (a + 0.5 - cx) ** 2 + dy2 > rr:
            a += 1
        while b >= a and (b + 0.5 - cx) ** 2 + dy2 > rr:
            b -= 1
        if a <= b:
            runs.append((py, a, b))
    return runs


def render_palatal_ppm(frame: EPGFrame, style: RenderStyle = RenderStyle()) -> bytes:
    """Raster fallback of the palatal view (binary PPM, P6).

    Discs are painted in order, later ones over earlier ones, each as one
    slice assignment per pixel row.
    """
    w, h = style.width, style.height
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    raster = bytearray(header)
    raster += b"\xff" * (3 * w * h)
    origin = len(header)

    def put_disc(cx: float, cy: float, r: float, rgb: bytes) -> None:
        for py, a, b in _disc_runs(cx, cy, r, w, h):
            start = origin + 3 * (py * w + a)
            raster[start : start + 3 * (b - a + 1)] = rgb * (b - a + 1)

    centers, radius, margin = _palatal_layout(frame.rows, frame.cols, style)
    outline = _hex_rgb(style.outline_color)
    # trace the horseshoe outline with small discs along its three segments
    rx, ry, shoulder_y = _horseshoe(style, margin)
    steps = 160
    for k in range(steps + 1):
        t = k / steps
        put_disc(margin, h - margin + t * (shoulder_y - (h - margin)), 1.2, outline)
        put_disc(w - margin, h - margin + t * (shoulder_y - (h - margin)), 1.2, outline)
        angle = math.pi * (1.0 - t)
        put_disc(0.5 * w + rx * math.cos(angle), shoulder_y - ry * math.sin(angle), 1.2, outline)
    contact_rgb = _hex_rgb(style.contact_color)
    open_rgb = _hex_rgb(style.no_contact_color)
    for i, row in enumerate(frame.cells):
        for j, contacted in enumerate(row):
            cx, cy = centers[i][j]
            put_disc(cx, cy, radius, contact_rgb if contacted else open_rgb)
    return bytes(raster)
