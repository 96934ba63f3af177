"""Deterministic emitters: palatal-view SVG/PPM, coronal-slice SVG, OBJ mesh.

Every builder is a pure function of its inputs. Output bytes are stable
across runs: fixed attribute order, fixed decimal precision, no timestamps.
"""

from __future__ import annotations

import functools
import io
import itertools
import math

from .contact import ContactClass, FullContact, Intersection, NoContact, classify_slice
from .dome import DomeSlice, PalateGeometry, dome_elevation, _surface_rows, _unit_profile
from .epg import EPGFrame, _per_lattice, column_fractions
from .errors import DomainError

__all__ = [
    "render_palatal_svg",
    "render_coronal_svg",
    "render_palatal_ppm",
    "export_obj",
]

# the one canvas, in pixels, and palette every palatal and coronal view uses
WIDTH = 420
HEIGHT = 480
CONTACT_COLOR = "#cc2222"
NO_CONTACT_COLOR = "#eecc44"
OUTLINE_COLOR = "#445566"

_SVG_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
    f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>'
)


def fmt(value: float) -> str:
    """A document coordinate: fixed 3 decimals, never ``-0.000``."""
    text = f"{value:.3f}"
    return "0.000" if text == "-0.000" else text


# The palatal view: a horseshoe outline inside a margin, its arch of radii
# rx, ry meeting straight sides at the shoulders; the SVG up to its first dot.
_MARGIN = 0.08 * min(WIDTH, HEIGHT)
_ARCH_RX = 0.5 * WIDTH - _MARGIN
_ARCH_RY = 0.42 * (HEIGHT - 2 * _MARGIN)
_SHOULDER_Y = _MARGIN + _ARCH_RY
_OUTLINE_PATH = (
    f"M {fmt(_MARGIN)} {fmt(HEIGHT - _MARGIN)} L {fmt(_MARGIN)} {fmt(_SHOULDER_Y)} "
    f"A {fmt(_ARCH_RX)} {fmt(_ARCH_RY)} 0 0 1 {fmt(WIDTH - _MARGIN)} {fmt(_SHOULDER_Y)} "
    f"L {fmt(WIDTH - _MARGIN)} {fmt(HEIGHT - _MARGIN)}"
)
_PALATAL_SVG_HEAD = (
    f'{_SVG_HEAD}\n<path d="{_OUTLINE_PATH}" fill="none" '
    f'stroke="{OUTLINE_COLOR}" stroke-width="2"/>\n'
).encode("ascii")


def _palatal_layout(rows: int, cols: int):
    """The (cx, cy) of each dot, a tuple per row made as it is read, anterior row first, and their radius."""
    arch_bottom = HEIGHT - _MARGIN
    usable_h = arch_bottom - _MARGIN
    y0 = _MARGIN + 0.22 * usable_h
    y1 = arch_bottom - 0.08 * usable_h
    radius = min((y1 - y0) / rows, (WIDTH - 2 * _MARGIN) / cols) * 0.30
    row_span = WIDTH - 2 * _MARGIN - 2 * radius
    fracs = column_fractions(cols)

    def centers(i: int) -> tuple:
        cy = y0 + (i + 0.5) * (y1 - y0) / rows
        # the palate narrows toward the incisors; shrink anterior rows
        narrow = 0.58 + 0.42 * (i + 0.5) / rows
        return tuple((0.5 * WIDTH + (f - 0.5) * row_span * narrow, cy) for f in fracs)

    return map(centers, range(rows)), radius


# The largest lattice, in cells, whose palatal dots are kept, for the last 16
# lattices drawn. A dot's PPM runs and SVG text cost about 30 times a cell's
# kept dome row (see epg._CACHED_CELLS): 32 x 32, the costliest lattice
# within the bound, holds 0.6 MB of runs and 0.05 MB of text, so the kept
# dots of both views hold at most about 10.5 MB.
_CACHED_DOT_CELLS = 32 * 32


def _svg_band_rows(cols: int) -> int:
    """Rows of dots per SVG band: up to _CACHED_DOT_CELLS dots, and at least one row."""
    return max(1, _CACHED_DOT_CELLS // cols)


@_per_lattice(_CACHED_DOT_CELLS)
def _palatal_svg_bands(rows: int, cols: int):
    """The SVG text of each band of rows, anterior first, a %s where each dot's fill goes.

    A kept lattice is one band, so its frames are one % each.
    """
    centers, radius = _palatal_layout(rows, cols)
    f = fmt
    r = f(radius)

    def row_text(row: tuple) -> str:
        cy = f(row[0][1])
        return "".join([f'<circle cx="{f(cx)}" cy="{cy}" r="{r}" fill="%s' for cx, _cy in row])

    texts, band_rows = map(row_text, centers), _svg_band_rows(cols)
    while band := "".join(itertools.islice(texts, band_rows)):
        yield band.encode("ascii")


# the rest of a dot's line, for a contacted cell and for one without contact
_ON, _OFF = f'{CONTACT_COLOR}"/>\n'.encode("ascii"), f'{NO_CONTACT_COLOR}"/>\n'.encode("ascii")


def render_palatal_svg(frame: EPGFrame) -> bytes:
    """Palatal view: one dot per grid cell inside a horseshoe outline.

    The document is written a band of rows at a time. The bands' text is
    kept per lattice (see _CACHED_DOT_CELLS); a frame only adds its fill
    colors.
    """
    rows, cols, cells = frame.rows, frame.cols, frame.cells
    band_rows = _svg_band_rows(cols)
    out = io.BytesIO()
    out.write(_PALATAL_SVG_HEAD)
    for i, band in zip(range(0, rows, band_rows), _palatal_svg_bands(rows, cols)):
        fills = [_ON if c else _OFF for row in cells[i : i + band_rows] for c in row]
        out.write(band % tuple(fills))
    out.write(b"</svg>\n")
    return out.getvalue()


CORONAL_CURVE_SAMPLES = 256
# the coronal plot's inset from the canvas edges, and its marker size
_INSET = 0.10 * min(WIDTH, HEIGHT)
_MARKER = min(WIDTH, HEIGHT) * 0.018
# the dome profile's points, "x,y" each, as fmt writes them but for "-0.000"
_CORONAL_POINTS = " ".join(["%.3f,%.3f"] * CORONAL_CURVE_SAMPLES)


def render_coronal_svg(slice_: DomeSlice, u: float) -> bytes:
    """Coronal view: dome profile, flat tongue line at u, contact markers.

    Every point is placed by one z -> x map and one elevation -> y map, each
    over a list. The profile's elevations are h times one mirrored unit
    profile, as the mesh rows are, so its y values read the same reversed.
    """
    z_min, z_max, span, h = slice_.z_min, slice_.z_max, slice_.span, slice_.h
    u_lo = min(0.0, u) - 0.15 * h
    u_span = (u if u > h else h) + 0.15 * h - u_lo

    def sx(zs: list[float]) -> list[float]:
        return [_INSET + (z - z_min) / span * (WIDTH - 2 * _INSET) for z in zs]

    def sy(elevs: list[float]) -> list[float]:
        return [HEIGHT - _INSET - (e - u_lo) / u_span * (HEIGHT - 2 * _INSET) for e in elevs]

    ts = [k / (CORONAL_CURVE_SAMPLES - 1) for k in range(CORONAL_CURVE_SAMPLES)]
    zs = [(1.0 - t) * z_min + t * z_max for t in ts]
    xy = [0.0] * (2 * CORONAL_CURVE_SAMPLES)
    xy[::2] = sx(zs)
    xy[1::2] = sy([h * p for p in _unit_profile(slice_.shape, CORONAL_CURVE_SAMPLES - 1)])
    points = _CORONAL_POINTS % tuple(xy)
    if "-0.000" in points:
        points = points.replace("-0.000", "0.000")
    f = fmt
    x_ends, (y_base, y_tongue) = sx([z_min, z_max]), sy([0.0, u])
    # the occlusal baseline and the flat tongue line, which share their ends in x
    line = f'<line x1="{f(x_ends[0])}" y1="%s" x2="{f(x_ends[1])}" y2="%s" '
    parts = [
        _SVG_HEAD,
        line % (f(y_base), f(y_base)) + 'stroke="#999999" stroke-width="1"/>',
        f'<polyline points="{points}" fill="none" stroke="{OUTLINE_COLOR}" stroke-width="2"/>',
        line % (f(y_tongue), f(y_tongue)) + 'stroke="#227722" stroke-width="2"/>',
    ]
    # the contact markers: a circle at each (cx, cy) of markers, or two crosses
    contact = classify_slice(slice_, u)
    markers, fill = [], CONTACT_COLOR
    if isinstance(contact, NoContact):
        markers, fill = [(x, y_base) for x in x_ends], NO_CONTACT_COLOR
    elif isinstance(contact, Intersection):
        for cx in sx([contact.z_left, contact.z_right]):
            for dy in (_MARKER, -_MARKER):
                parts.append(
                    f'<line x1="{f(cx - _MARKER)}" y1="{f(y_tongue - dy)}" '
                    f'x2="{f(cx + _MARKER)}" y2="{f(y_tongue + dy)}" '
                    f'stroke="{CONTACT_COLOR}" stroke-width="2"/>'
                )
    else:
        markers = list(zip(sx([contact.z_apex]), sy([h])))
    for cx, cy in markers:
        parts.append(f'<circle cx="{f(cx)}" cy="{f(cy)}" r="{f(_MARKER)}" fill="{fill}"/>')
    parts.append("</svg>\n")
    return "\n".join(parts).encode("utf-8")


# each class's group line, before its markers
_GROUP_OF_CLASS = {
    NoContact: b"g no_contact\n",
    Intersection: b"g intersection\n",
    FullContact: b"g full_contact\n",
}


# The most vertices, those of a 128 x 128 mesh, whose 1-based number strings
# export_obj keeps: at most 16,641 strings, about 1 MB. The kept list grows
# to the largest mesh drawn so far, so a 40 x 32 mesh makes 1,353 of them; a
# mesh past the bound makes its own numbers for the call.
_KEPT_VERTEX_NUMBERS = 129 * 129
_kept_numbers: list[str] = []


def _vertex_numbers(n: int) -> list[str]:
    """The strings of 1 to at least n, kept across calls for n within the bound.

    A kept list is never changed: growing it makes a new one, so a call that
    holds the old list, in this thread or another, still reads it whole.
    """
    global _kept_numbers
    if n > _KEPT_VERTEX_NUMBERS:
        return list(map(str, range(1, n + 1)))
    kept = _kept_numbers
    if len(kept) < n:
        kept = _kept_numbers = kept + list(map(str, range(len(kept) + 1, n + 1)))
    return kept


def export_obj(
    geometry: PalateGeometry,
    nx: int,
    nz: int,
    contacts: list[ContactClass] | None = None,
) -> bytes:
    """Triangulated dome surface, plus optional per-slice contact markers.

    The bytes are one ``v x y z`` line per surface point, row by row, then
    two ``f`` lines per quad. The rows are sampled as they are formatted,
    each by one bytes ``%`` over the row with its x formatted once, keeping
    only each row's x and slice for the markers; each row of faces is one
    join of slices of the vertex numbers (kept up to _KEPT_VERTEX_NUMBERS)
    into pieces made once per call. The document is one join of its rows,
    never held as text. Markers are emitted as extra vertices inside named
    groups (no_contact, intersection, full_contact); they are not
    referenced by any face.
    """
    rows = _surface_rows(geometry, nx, nz)
    if contacts is not None and len(contacts) != nx + 1:
        raise DomainError(
            f"contacts list must have nx+1 = {nx + 1} entries, got {len(contacts)}"
        )
    stride = nz + 1
    out = []
    row_slices = []
    yz = [0.0] * (2 * stride)
    for x, sl, zs, ys in rows:
        yz[::2] = ys
        yz[1::2] = zs
        out.append((b"v %.6f %%.6f %%.6f\n" % x) * stride % tuple(yz))
        row_slices.append((x, sl))
    out.append(b"g palate\n")
    # two triangles per quad (v, v+stride, v+stride+1) and (v, v+stride+1, v+1),
    # v the 1-based number of the quad's corner at (row i, column j): a row
    # of quads is 12 pieces a quad, "f ", v, " ", v+stride, " ", v+stride+1,
    # "\nf ", v, " ", v+stride+1, " ", v+1, each quad after the first opening
    # with "\nf ", and a closing "\n"; each corner is a slice of the vertex
    # numbers
    numbers = _vertex_numbers((nx + 1) * stride)
    pieces = ["\nf ", "", " ", "", " ", "", "\nf ", "", " ", "", " ", ""] * nz + ["\n"]
    pieces[0] = "f "
    for base in range(0, nx * stride, stride):
        pieces[1::12] = pieces[7::12] = numbers[base : base + nz]
        pieces[3::12] = numbers[base + stride : base + stride + nz]
        pieces[5::12] = pieces[9::12] = numbers[base + stride + 1 : base + 2 * stride]
        pieces[11::12] = numbers[base + 1 : base + stride]
        out.append("".join(pieces).encode("ascii"))
    if contacts is not None:
        for i, ((x, sl), contact) in enumerate(zip(row_slices, contacts)):
            group = _GROUP_OF_CLASS.get(type(contact))
            if group is None:
                raise DomainError(f"contacts[{i}] is not a contact classification")
            out.append(group)
            if isinstance(contact, NoContact):
                markers = [(sl.z_min, 0.0), (sl.z_max, 0.0)]
            elif isinstance(contact, Intersection):
                markers = [
                    (contact.z_left, dome_elevation(sl, contact.z_left)),
                    (contact.z_right, dome_elevation(sl, contact.z_right)),
                ]
            else:
                markers = [(contact.z_apex, sl.h)]
            out.extend(b"v %.6f %.6f %.6f\n" % (x, y, z) for z, y in markers)
    return b"".join(out)


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


_PPM_HEADER = f"P6\n{WIDTH} {HEIGHT}\n255\n".encode("ascii")
_CONTACT_RGB = bytes.fromhex(CONTACT_COLOR[1:])
_NO_CONTACT_RGB = bytes.fromhex(NO_CONTACT_COLOR[1:])


def _disc_slices(cx: float, cy: float, r: float) -> list[tuple[int, int]]:
    """A disc on the canvas as (byte offset, pixel count) runs of its PPM."""
    head = len(_PPM_HEADER)
    return [
        (head + 3 * (py * WIDTH + a), b - a + 1)
        for py, a, b in _disc_runs(cx, cy, r, WIDTH, HEIGHT)
    ]


def _paint(raster: bytearray, runs, rgb: bytes) -> None:
    """Paint (byte offset, pixel count) runs of a PPM in one color."""
    for start, n in runs:
        raster[start : start + 3 * n] = rgb * n


@functools.cache
def _outlined_canvas() -> bytes:
    """The PPM of the white canvas with the outline traced on it, painted on first use."""
    raster = bytearray(_PPM_HEADER) + b"\xff" * (3 * WIDTH * HEIGHT)
    rgb = bytes.fromhex(OUTLINE_COLOR[1:])
    # small discs along the outline's three segments
    steps = 160
    for k in range(steps + 1):
        t = k / steps
        side_y = HEIGHT - _MARGIN + t * (_SHOULDER_Y - (HEIGHT - _MARGIN))
        _paint(raster, _disc_slices(_MARGIN, side_y, 1.2), rgb)
        _paint(raster, _disc_slices(WIDTH - _MARGIN, side_y, 1.2), rgb)
        angle = math.pi * (1.0 - t)
        arch_x = 0.5 * WIDTH + _ARCH_RX * math.cos(angle)
        _paint(raster, _disc_slices(arch_x, _SHOULDER_Y - _ARCH_RY * math.sin(angle), 1.2), rgb)
    return bytes(raster)


@_per_lattice(_CACHED_DOT_CELLS)
def _palatal_ppm_dots(rows: int, cols: int):
    """Each dot's runs in the PPM, anterior row first."""
    centers, radius = _palatal_layout(rows, cols)
    return (_disc_slices(cx, cy, radius) for row in centers for cx, cy in row)


def render_palatal_ppm(frame: EPGFrame) -> bytes:
    """Raster fallback of the palatal view (binary PPM, P6).

    A copy of the outlined canvas gets one disc per cell, painted in order,
    later ones over earlier ones. The discs' runs are kept per lattice (see
    _CACHED_DOT_CELLS); a frame only picks their colors.
    """
    raster = bytearray(_outlined_canvas())
    rows, cols = frame.rows, frame.cols
    dots = _palatal_ppm_dots(rows, cols)
    for runs, contacted in zip(dots, itertools.chain.from_iterable(frame.cells)):
        _paint(raster, runs, _CONTACT_RGB if contacted else _NO_CONTACT_RGB)
    return bytes(raster)
