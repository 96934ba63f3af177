"""Independent numeric oracles used to freeze expected test values."""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

from palatogram import (
    AnimationSpec,
    ConfigError,
    DomainError,
    DomeShape,
    DomeSlice,
    DorsumManner,
    EPGFrame,
    FullContact,
    Intersection,
    NoContact,
    PalateGeometry,
    ShapingParams,
    SoundTarget,
    TipManner,
    TongueContour,
    classify_slice,
    dome_elevation,
    edge_elevation_delta,
    groove_delta,
    lateral_lowering_delta,
    slice_at,
)
from palatogram.dome import MAX_SURFACE_STEPS, surface_xs
from palatogram.epg import column_fractions
from palatogram.errors import MAX_MM, MIN_MM
from palatogram.render import (
    CONTACT_COLOR,
    HEIGHT,
    NO_CONTACT_COLOR,
    OUTLINE_COLOR,
    WIDTH,
    _SVG_HEAD,
    fmt,
)
from palatogram.shaping import _FLOAT_FIELDS, row_constants
from palatogram.sounds import BLEND_GRID_POINTS, MAX_FRAMES


def bisect_crossings(slice_: DomeSlice, u: float, tol: float = 1e-12) -> tuple[float, float]:
    """Find both z where the dome profile crosses elevation u, by bisection.

    Works on the forward dome equation only; independent of the analytic
    inversion it is used to check.
    """

    def solve(lo: float, hi: float, rising: bool) -> float:
        for _ in range(200):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            below = dome_elevation(slice_, mid) < u
            if below == rising:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    center = slice_.z_center
    return (
        solve(slice_.z_min, center, rising=True),
        solve(center, slice_.z_max, rising=False),
    )


def bisect_ellipse_elevation(slice_: DomeSlice, z: float, tol: float = 1e-12) -> float:
    """Solve the implicit half-ellipse equation for the elevation at z.

    Root of ((z - z_center)/a)^2 + (u/h)^2 - 1 in u over [0, h]; the implicit
    form is increasing in u, so bisection brackets the unique root.
    """
    e2 = ((z - slice_.z_center) / slice_.half_width) ** 2

    def implicit(u: float) -> float:
        return e2 + (u / slice_.h) ** 2 - 1.0

    lo, hi = 0.0, slice_.h
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if implicit(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dome_height(slice_: DomeSlice, z: float) -> float:
    """The dome profile at one z, by the scalar formula of the per-cell raster."""
    if not slice_.z_min <= z <= slice_.z_max:
        raise DomainError(f"z={z} outside lateral span of slice at x={slice_.x}")
    if slice_.shape is DomeShape.COSINE:
        q = abs(z - slice_.z_center) / slice_.span
        return 0.5 * slice_.h * (1.0 + math.cos(2.0 * math.pi * q))
    rad = (z - slice_.z_min) * (slice_.z_max - z)
    e = slice_.h * math.sqrt(max(rad, 0.0)) / slice_.half_width
    return e if e <= slice_.h else slice_.h


def midline_height(contour: TongueContour, x: float) -> float:
    """The contour's height at one x, bisecting for its segment as the per-point lookup did.

    Between two points it is their lerp, rounded back between them where it left.
    """
    pts = contour.points
    if not pts[0][0] <= x <= pts[-1][0]:
        raise DomainError(f"x={x} outside tongue contour range [{pts[0][0]}, {pts[-1][0]}]")
    # pts[i] is the first point after pts[0] with x <= pts[i][0]
    i = bisect_left(pts, x, 1, key=lambda point: point[0])
    (x0, u0), (x1, u1) = pts[i - 1], pts[i]
    if x == x0:
        return u0
    if x == x1:
        return u1
    t = (x - x0) / (x1 - x0)
    return min(max((1.0 - t) * u0 + t * u1, min(u0, u1)), max(u0, u1))


def shaped_height(
    params: ShapingParams, slice_: DomeSlice, x: float, u_mid: float, z: float
) -> float:
    """u_t at one point: the midline height plus each public shaping term, in order."""
    u = u_mid
    u += edge_elevation_delta(params, slice_, x, z)
    u += groove_delta(params, slice_, z)
    u += lateral_lowering_delta(params, slice_, z)
    return u


def shaped_row(
    params: ShapingParams, slice_: DomeSlice, x: float, u_mid: float, offsets
) -> list[float]:
    """The shaped height at each offset |z - z_center| of the row at x, cell by cell.

    This is the row kernel compute_epg ran before it bisected its rows: the
    sum row_constants states, evaluated at every cell. compute_epg tests
    the same sum, in the same order, at the cells its bisections probe.
    """
    u0, scale, lo, hi, drop = row_constants(params, slice_, x, u_mid)
    half_width = slice_.half_width
    return [
        u0 + scale * (o / half_width) ** 2 + (drop if lo <= o <= hi else 0.0) for o in offsets
    ]


def cell_offsets(slice_: DomeSlice, cols: int) -> list[float]:
    """Each column's offset from the midline on a slice, left to right, as compute_epg samples it.

    The left half and an odd middle column sit at |f - 0.5| * span, f from
    column_fractions, and each right column at its mirror column's offset.
    """
    middle = (cols + 1) // 2
    left = [(0.5 - f) * slice_.span for f in column_fractions(cols)[:middle]]
    return left + left[: cols - middle][::-1]


def centered(slice_: DomeSlice) -> DomeSlice:
    """slice_ moved to z_center 0.0, with its half width, span, height and shape.

    A cell of offset o sits at z = -o there, where |z - z_center| is exactly
    o, so the per-term functions and the dome formula in z evaluate the cell
    at its offset: (z - z_min) * (z_max - z) is (half_width - o) * (half_width + o).
    """
    half_width = slice_.half_width  # unchecked, as an interpolated slice may sit an ulp past a bound
    return DomeSlice._unchecked(slice_.x, -half_width, half_width, slice_.h, slice_.shape)


def epg_cells(
    geometry: PalateGeometry,
    contour: TongueContour,
    params: ShapingParams,
    rows: int,
    cols: int,
) -> tuple[tuple[bool, ...], ...]:
    """The EPG grid evaluated cell by cell, one shaping sum and one dome formula each.

    This is the evaluator compute_epg ran before its row kernel, each cell
    taken at its offset from the midline (cell_offsets) on the centered
    slice; the kernel must agree with it on every cell.
    """
    x_lo = max(geometry.x_min, contour.x_min)
    x_hi = min(geometry.x_max, contour.x_max)
    cells = []
    for i in range(rows):
        x = x_lo + (i + 0.5) * (x_hi - x_lo) / rows
        sl = slice_at(geometry, x)
        try:
            u_mid = midline_height(contour, x)
        except DomainError:
            cells.append((False,) * cols)
            continue
        at_zero = centered(sl)
        cells.append(tuple(
            shaped_height(params, at_zero, x, u_mid, -o) >= dome_height(at_zero, -o)
            for o in cell_offsets(sl, cols)
        ))
    return tuple(cells)


def epg_text(frame: EPGFrame) -> str:
    """The text view joined cell by cell, as epg.epg_text made it before its byte table."""
    return "".join(
        "".join("#" if cell else "." for cell in row) + "\n" for row in frame.cells
    )


def mesh_contacts(
    geometry: PalateGeometry, contour: TongueContour, nx: int
) -> list[NoContact | Intersection | FullContact]:
    """The contact of each mesh row, one row at a time.

    This is the loop the mesh command ran before contact.surface_contacts;
    both must give the same contacts, float for float.
    """
    contacts = []
    for x in surface_xs(geometry, nx):
        if contour.x_min <= x <= contour.x_max:
            contact = classify_slice(slice_at(geometry, x), midline_height(contour, x))
        else:
            contact = NoContact()  # tongue absent at this slice
        contacts.append(contact)
    return contacts


def disc_pixels(cx: float, cy: float, r: float, w: int, h: int) -> list[tuple[int, int]]:
    """The (px, py) of a w x h canvas inside a disc, testing every pixel of its box."""
    x0, x1 = max(0, int(cx - r) - 1), min(w - 1, int(cx + r) + 1)
    y0, y1 = max(0, int(cy - r) - 1), min(h - 1, int(cy + r) + 1)
    rr = r * r
    return [
        (px, py)
        for py in range(y0, y1 + 1)
        for px in range(x0, x1 + 1)
        if (px + 0.5 - cx) ** 2 + (py + 0.5 - cy) ** 2 <= rr
    ]


def outline_geometry():
    """Margin and horseshoe arch (rx, ry, shoulder y) of the palatal view, from the canvas size."""
    w, h = float(WIDTH), float(HEIGHT)
    margin = 0.08 * min(w, h)
    rx = 0.5 * w - margin
    ry = 0.42 * (h - 2 * margin)
    return margin, (rx, ry, margin + ry)


def palatal_layout(rows: int, cols: int):
    """Dot centers, margin and outline of the palatal view, from the canvas size.

    These are the expressions the emitters used before the canvas geometry
    became module constants and the layout a cached tuple.
    """
    w, h = float(WIDTH), float(HEIGHT)
    margin, arch = outline_geometry()
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
        narrow = 0.58 + 0.42 * (i + 0.5) / rows
        centers.append(
            [(0.5 * w + (f - 0.5) * (w - 2 * margin - 2 * radius) * narrow, cy) for f in fracs]
        )
    return centers, radius, margin, arch


def hex_rgb(color: str) -> tuple[int, int, int]:
    return (int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16))


PPM_HEADER = f"P6\n{WIDTH} {HEIGHT}\n255\n".encode("ascii")


@functools.cache
def outlined_ppm() -> bytes:
    """The PPM of the white canvas with the outline painted on it.

    The outline is painted pixel by pixel into a grid of RGB tuples. No
    frame changes it, so it is painted once; palatal_ppm copies the bytes.
    """
    w, h = WIDTH, HEIGHT
    pixels = [[(255, 255, 255)] * w for _ in range(h)]

    def put_disc(cx: float, cy: float, r: float, rgb: tuple[int, int, int]) -> None:
        for px, py in disc_pixels(cx, cy, r, w, h):
            pixels[py][px] = rgb

    margin, (rx, ry, shoulder_y) = outline_geometry()
    outline = hex_rgb(OUTLINE_COLOR)
    steps = 160
    for k in range(steps + 1):
        t = k / steps
        put_disc(margin, h - margin + t * (shoulder_y - (h - margin)), 1.2, outline)
        put_disc(w - margin, h - margin + t * (shoulder_y - (h - margin)), 1.2, outline)
        angle = math.pi * (1.0 - t)
        put_disc(0.5 * w + rx * math.cos(angle), shoulder_y - ry * math.sin(angle), 1.2, outline)
    channels = itertools.chain.from_iterable(itertools.chain.from_iterable(pixels))
    return PPM_HEADER + bytes(channels)


def palatal_ppm(frame: EPGFrame) -> bytes:
    """The palatal PPM with each dot painted pixel by pixel over the outlined canvas.

    This is the painter render_palatal_ppm used before it wrote scanline
    runs; both must give the same bytes.
    """
    raster = bytearray(outlined_ppm())
    centers, radius, _margin, _arch = palatal_layout(frame.rows, frame.cols)
    contact_rgb = bytes(hex_rgb(CONTACT_COLOR))
    open_rgb = bytes(hex_rgb(NO_CONTACT_COLOR))
    for i, row in enumerate(frame.cells):
        for j, contacted in enumerate(row):
            cx, cy = centers[i][j]
            rgb = contact_rgb if contacted else open_rgb
            for px, py in disc_pixels(cx, cy, radius, WIDTH, HEIGHT):
                at = len(PPM_HEADER) + 3 * (py * WIDTH + px)
                raster[at : at + 3] = rgb
    return bytes(raster)


def sample_surface(
    geometry: PalateGeometry, nx: int, nz: int
) -> list[list[tuple[float, float, float]]]:
    """The dome sampled into (x, y, z) rows, one dome_elevation call per point.

    This is the sampler dome.sample_surface was before it became a view of
    the rows export_obj formats; both must give the same floats.
    """
    if not 1 <= nz <= MAX_SURFACE_STEPS:
        raise DomainError(f"grid needs 1 <= nz <= {MAX_SURFACE_STEPS}, got nz={nz}")
    weights = [(1.0 - j / nz, j / nz) for j in range(nz + 1)]
    grid = []
    for x in surface_xs(geometry, nx):
        sl = slice_at(geometry, x)
        zs = [g * sl.z_min + f * sl.z_max for g, f in weights]
        grid.append([(x, dome_elevation(sl, z), z) for z in zs])
    return grid


def export_obj(geometry: PalateGeometry, nx: int, nz: int, contacts=None) -> bytes:
    """The OBJ mesh formatted one vertex line and one face pair at a time.

    This is the emitter render.export_obj was before it formatted a row at a
    time; both must give the same bytes, and the same errors in the same order.
    """
    grid = sample_surface(geometry, nx, nz)
    if contacts is not None and len(contacts) != nx + 1:
        raise DomainError(
            f"contacts list must have nx+1 = {nx + 1} entries, got {len(contacts)}"
        )
    vertex = "v %.6f %.6f %.6f"
    lines = [vertex % point for row in grid for point in row]
    lines.append("g palate")
    stride = nz + 1
    lines += [
        f"f {v} {v + stride} {v + stride + 1}\nf {v} {v + stride + 1} {v + 1}"
        for base in range(1, nx * stride + 1, stride)
        for v in range(base, base + nz)
    ]
    groups = {NoContact: "no_contact", Intersection: "intersection", FullContact: "full_contact"}
    for i, contact in enumerate(contacts or ()):
        x = grid[i][0][0]
        sl = slice_at(geometry, x)
        group = groups.get(type(contact))
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
        lines.extend(vertex % (x, y, z) for z, y in markers)
    return ("\n".join(lines) + "\n").encode("utf-8")


def between(va: float, vb: float, lam: float) -> float:
    """(1 - lam) * va + lam * vb, rounded back into [min(va, vb), max(va, vb)] where it left it."""
    return min(max((1.0 - lam) * va + lam * vb, min(va, vb)), max(va, vb))


def interpolate(a: SoundTarget, b: SoundTarget, lam: float) -> SoundTarget:
    """Blend two targets, resampling both contours afresh for this one lam.

    This is the blend sounds.interpolate made before one blend served a
    whole transition, each lerp kept between its ends; both must give the
    same target, float for float.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"blend fraction must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return a
    if lam == 1.0:
        return b
    x_lo = max(a.contour.x_min, b.contour.x_min)
    x_hi = min(a.contour.x_max, b.contour.x_max)
    if not x_lo < x_hi:
        raise DomainError(f"contours of {a.name!r} and {b.name!r} do not overlap in x")
    points = []
    for k in range(BLEND_GRID_POINTS):
        f = k / (BLEND_GRID_POINTS - 1)
        x = (1.0 - f) * x_lo + f * x_hi
        points.append((x, between(midline_height(a.contour, x), midline_height(b.contour, x), lam)))
    discrete_src = a.params if lam < 0.5 else b.params
    blended = {}
    for name in ShapingParams.__slots__:
        if name not in _FLOAT_FIELDS:
            blended[name] = getattr(discrete_src, name)
        else:
            va = getattr(a.params, name)
            vb = getattr(b.params, name)
            blended[name] = between(va, vb, lam)
    return SoundTarget(
        name=f"{a.name}~{b.name}",
        contour=TongueContour(points=tuple(points)),
        params=ShapingParams(**blended),
    )


def animate(spec: AnimationSpec) -> list[SoundTarget]:
    """The frame list with one full interpolate call per transition frame."""
    segments = []  # (start_ms, duration_ms, kind, payload)
    clock = 0.0
    for i, target in enumerate(spec.targets):
        segments.append((clock, spec.hold_ms[i], "hold", (target,)))
        clock += spec.hold_ms[i]
        if i < len(spec.targets) - 1:
            segments.append(
                (clock, spec.transition_ms[i], "transition", (target, spec.targets[i + 1]))
            )
            clock += spec.transition_ms[i]
    n_frames = math.ceil(clock * spec.fps / 1000.0)
    frames = []
    for k in range(n_frames):
        t = k * 1000.0 / spec.fps
        seg = next((s for s in segments if t < s[0] + s[1]), segments[-1])
        start, duration, kind, payload = seg
        if kind == "hold":
            frames.append(payload[0])
        else:
            lam = min(max((t - start) / duration, 0.0), 1.0)
            frames.append(interpolate(payload[0], payload[1], lam))
    return frames


def palatal_svg(frame: EPGFrame) -> bytes:
    """The palatal SVG laid out and formatted afresh, cell by cell.

    This is the emitter render_palatal_svg used before it kept one layout
    per lattice; both must give the same bytes.
    """
    parts = [_SVG_HEAD]
    centers, radius, margin, (rx, ry, shoulder_y) = palatal_layout(frame.rows, frame.cols)
    f = fmt
    w, h = float(WIDTH), float(HEIGHT)
    path = (
        f"M {f(margin)} {f(h - margin)} L {f(margin)} {f(shoulder_y)} "
        f"A {f(rx)} {f(ry)} 0 0 1 {f(w - margin)} {f(shoulder_y)} L {f(w - margin)} {f(h - margin)}"
    )
    parts.append(f'<path d="{path}" fill="none" stroke="{OUTLINE_COLOR}" stroke-width="2"/>')
    for i, row in enumerate(frame.cells):
        for j, contacted in enumerate(row):
            cx, cy = centers[i][j]
            fill = CONTACT_COLOR if contacted else NO_CONTACT_COLOR
            parts.append(
                f'<circle cx="{f(cx)}" cy="{f(cy)}" r="{f(radius)}" fill="{fill}"/>'
            )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def render_coronal_svg(slice_: DomeSlice, u: float) -> bytes:
    """The coronal SVG with each profile point placed and formatted on its own.

    This is the emitter render.render_coronal_svg was before it formatted
    the profile by one %; both must give the same bytes.
    """
    inset = 0.10 * min(WIDTH, HEIGHT)
    marker = min(WIDTH, HEIGHT) * 0.018
    u_lo = min(0.0, u) - 0.15 * slice_.h
    u_hi = slice_.h + 0.15 * slice_.h
    if u > slice_.h:
        u_hi = u + 0.15 * slice_.h

    def sx(z: float) -> float:
        return inset + (z - slice_.z_min) / slice_.span * (WIDTH - 2 * inset)

    def sy(elev: float) -> float:
        return HEIGHT - inset - (elev - u_lo) / (u_hi - u_lo) * (HEIGHT - 2 * inset)

    f = fmt
    parts = [_SVG_HEAD]
    parts.append(
        f'<line x1="{f(sx(slice_.z_min))}" y1="{f(sy(0.0))}" '
        f'x2="{f(sx(slice_.z_max))}" y2="{f(sy(0.0))}" '
        f'stroke="#999999" stroke-width="1"/>'
    )
    pts = []
    for k in range(256):
        t = k / 255
        z = (1.0 - t) * slice_.z_min + t * slice_.z_max
        pts.append(f"{f(sx(z))},{f(sy(dome_elevation(slice_, z)))}")
    parts.append(
        f'<polyline points="{" ".join(pts)}" fill="none" '
        f'stroke="{OUTLINE_COLOR}" stroke-width="2"/>'
    )
    parts.append(
        f'<line x1="{f(sx(slice_.z_min))}" y1="{f(sy(u))}" '
        f'x2="{f(sx(slice_.z_max))}" y2="{f(sy(u))}" '
        f'stroke="#227722" stroke-width="2"/>'
    )
    contact = classify_slice(slice_, u)
    if isinstance(contact, NoContact):
        for z in (slice_.z_min, slice_.z_max):
            parts.append(
                f'<circle cx="{f(sx(z))}" cy="{f(sy(0.0))}" r="{f(marker)}" '
                f'fill="{NO_CONTACT_COLOR}"/>'
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
                    f'stroke="{CONTACT_COLOR}" stroke-width="2"/>'
                )
    else:
        parts.append(
            f'<circle cx="{f(sx(contact.z_apex))}" cy="{f(sy(slice_.h))}" '
            f'r="{f(marker)}" fill="{CONTACT_COLOR}"/>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


# The value classes as frozen dataclasses, each with the fields, defaults and
# checks the package's slotted class has; the value class tests compare the two.


@dataclass(frozen=True)
class DataclassDomeSlice:
    x: float
    z_min: float
    z_max: float
    h: float
    shape: DomeShape = DomeShape.COSINE

    def __post_init__(self) -> None:
        for name in ("x", "z_min", "z_max", "h"):
            if not -MAX_MM <= getattr(self, name) <= MAX_MM:
                raise DomainError(
                    f"slice field {name} must be finite and at most 1e+06 in magnitude"
                )
        if not (self.z_max - self.z_min) / 2 >= MIN_MM:
            raise DomainError(
                f"slice at x={self.x}: half width of [{self.z_min}, {self.z_max}] "
                "must be at least 1e-06"
            )
        if not self.h >= MIN_MM:
            raise DomainError(
                f"slice at x={self.x}: dome height must be at least 1e-06, got {self.h}"
            )


@dataclass(frozen=True)
class DataclassPalateGeometry:
    slices: tuple[DomeSlice, ...]

    def __post_init__(self) -> None:
        if len(self.slices) < 2:
            raise DomainError("a palate needs at least two slices")
        xs = [s.x for s in self.slices]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("slice x positions must be strictly increasing")
        if any(s.shape is not self.slices[0].shape for s in self.slices):
            raise DomainError("all slices of a palate must share one dome shape")


@dataclass(frozen=True)
class DataclassNoContact:
    pass


@dataclass(frozen=True)
class DataclassIntersection:
    z_left: float
    z_right: float


@dataclass(frozen=True)
class DataclassFullContact:
    z_apex: float


@dataclass(frozen=True)
class DataclassEPGFrame:
    cells: tuple[tuple[bool, ...], ...]
    x_of_row: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.cells) == 0 or len(self.cells[0]) == 0:
            raise DomainError("an EPG frame needs at least one row and one column")
        if len({len(r) for r in self.cells}) != 1:
            raise DomainError("every row of cells must have the same length")
        if len(self.x_of_row) != len(self.cells):
            raise DomainError("x_of_row needs one position per row")
        xs = self.x_of_row
        if any(b < a for a, b in zip(xs, xs[1:])):
            raise DomainError("x_of_row must be nondecreasing")

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @property
    def z_frac_of_col(self) -> tuple[float, ...]:
        return column_fractions(self.cols)


@dataclass(frozen=True)
class DataclassTongueContour:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise DomainError("a tongue contour needs at least two points")
        for x, u in self.points:
            if not (-MAX_MM <= x <= MAX_MM and -MAX_MM <= u <= MAX_MM):
                raise DomainError(
                    "contour coordinates must be finite and at most 1e+06 in magnitude"
                )
        xs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("contour x positions must be strictly increasing")


@dataclass(frozen=True)
class DataclassShapingParams:
    tt_manner: TipManner = TipManner.NEAR
    td_manner: DorsumManner = DorsumManner.NEAR
    tth: float = 0.0
    edge_elev_max: float = 8.0
    posterior_onset_x: float = 12.0
    groove_enabled: bool = False
    groove_width: float = 8.0
    groove_depth: float = 23.0
    lateral_lower_enabled: bool = False
    lateral_lower_width: float = 6.4
    lateral_lower_depth: float = 23.0

    def __post_init__(self) -> None:
        for name, enum in (("tt_manner", TipManner), ("td_manner", DorsumManner)):
            value, choices = getattr(self, name), [m.value for m in enum]
            if value not in choices:
                raise DomainError(f"{name} must be one of {choices}, got {value!r}")
            object.__setattr__(self, name, enum(value))
        for name in ("groove_enabled", "lateral_lower_enabled"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise DomainError(f"{name} must be a boolean")
        for name in _FLOAT_FIELDS:
            if not -MAX_MM <= getattr(self, name) <= MAX_MM:
                raise DomainError(f"{name} must be finite and at most 1e+06 in magnitude")
        if not 0.0 <= self.tth <= 1.0:
            raise DomainError(f"tth must lie in [0, 1], got {self.tth}")
        for name in (
            "edge_elev_max",
            "groove_width",
            "groove_depth",
            "lateral_lower_width",
            "lateral_lower_depth",
        ):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.groove_enabled and self.lateral_lower_enabled:
            raise DomainError("groove and lateral lowering are mutually exclusive")


@dataclass(frozen=True)
class DataclassSoundTarget:
    name: str
    contour: TongueContour
    params: ShapingParams

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("sound target needs a non-empty name")


@dataclass(frozen=True)
class DataclassAnimationSpec:
    targets: tuple[SoundTarget, ...]
    hold_ms: tuple[float, ...]
    transition_ms: tuple[float, ...]
    fps: float

    def __post_init__(self) -> None:
        if len(self.targets) < 1:
            raise ConfigError("animation needs at least one target")
        if len(self.hold_ms) != len(self.targets):
            raise ConfigError("hold_ms needs one duration per target")
        if len(self.transition_ms) != len(self.targets) - 1:
            raise ConfigError("transition_ms needs one duration per target gap")
        if not all(math.isfinite(v) for v in (*self.hold_ms, *self.transition_ms, self.fps)):
            raise ConfigError("fps and all durations must be finite")
        if any(d <= 0 for d in self.hold_ms) or any(d <= 0 for d in self.transition_ms):
            raise ConfigError("all durations must be positive")
        if self.fps < 1:
            raise ConfigError(f"fps must be >= 1, got {self.fps}")
        n_frames = self.total_ms * self.fps / 1000.0
        if not n_frames <= MAX_FRAMES:
            count = str(math.ceil(n_frames)) if n_frames < 1e15 else "%.3g" % n_frames
            raise ConfigError(f"animation would need {count} frames, more than {MAX_FRAMES}")

    @property
    def total_ms(self) -> float:
        clock = 0.0
        for i, hold in enumerate(self.hold_ms):
            clock += hold
            if i < len(self.transition_ms):
                clock += self.transition_ms[i]
        return clock


DATACLASS_OF = {
    DomeSlice: DataclassDomeSlice,
    PalateGeometry: DataclassPalateGeometry,
    NoContact: DataclassNoContact,
    Intersection: DataclassIntersection,
    FullContact: DataclassFullContact,
    EPGFrame: DataclassEPGFrame,
    TongueContour: DataclassTongueContour,
    ShapingParams: DataclassShapingParams,
    SoundTarget: DataclassSoundTarget,
    AnimationSpec: DataclassAnimationSpec,
}
