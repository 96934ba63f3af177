"""Independent numeric oracles used to freeze expected test values."""

from __future__ import annotations

import math
from dataclasses import fields

from palatogram import (
    AnimationSpec,
    DomainError,
    DomeShape,
    DomeSlice,
    EPGFrame,
    PalateGeometry,
    RenderStyle,
    ShapingParams,
    SoundTarget,
    TongueContour,
    dome_elevation,
    edge_elevation_delta,
    groove_delta,
    lateral_lowering_delta,
    midsagittal_height,
    slice_at,
)
from palatogram.epg import column_fractions
from palatogram.render import _horseshoe_path, _palatal_layout, _svg_open
from palatogram.sounds import _ENUM_FIELDS, _FLAG_FIELDS, BLEND_GRID_POINTS


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
    return slice_.h * math.sqrt(max(rad, 0.0)) / slice_.half_width


def shaped_height(
    params: ShapingParams, slice_: DomeSlice, x: float, u_mid: float, z: float
) -> float:
    """u_t at one point: the midline height plus each public shaping term, in order."""
    u = u_mid
    u += edge_elevation_delta(params, slice_, x, z)
    u += groove_delta(params, slice_, z)
    u += lateral_lowering_delta(params, slice_, z)
    return u


def epg_cells(
    geometry: PalateGeometry,
    contour: TongueContour,
    params: ShapingParams,
    rows: int,
    cols: int,
) -> tuple[tuple[bool, ...], ...]:
    """The EPG grid evaluated cell by cell, one shaping sum and one dome formula each.

    This is the evaluator compute_epg ran before its row kernel; the kernel
    must agree with it on every cell.
    """
    x_lo = max(geometry.x_min, contour.x_min)
    x_hi = min(geometry.x_max, contour.x_max)
    fracs = column_fractions(cols)
    cells = []
    for i in range(rows):
        x = x_lo + (i + 0.5) * (x_hi - x_lo) / rows
        sl = slice_at(geometry, x)
        try:
            u_mid = midsagittal_height(contour, x)
        except DomainError:
            cells.append((False,) * cols)
            continue
        row = []
        for f in fracs:
            z = sl.z_center + (f - 0.5) * sl.span
            row.append(shaped_height(params, sl, x, u_mid, z) >= dome_height(sl, z))
        cells.append(tuple(row))
    return tuple(cells)


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


def palatal_ppm(frame: EPGFrame, style: RenderStyle) -> bytes:
    """The palatal PPM painted pixel by pixel into a grid of RGB tuples.

    This is the painter render_palatal_ppm used before it wrote scanline
    runs; both must give the same bytes.
    """
    w, h = style.width, style.height
    white = (255, 255, 255)
    pixels = [[white] * w for _ in range(h)]

    def hex_rgb(color: str) -> tuple[int, int, int]:
        return (int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16))

    def put_disc(cx: float, cy: float, r: float, rgb: tuple[int, int, int]) -> None:
        for px, py in disc_pixels(cx, cy, r, w, h):
            pixels[py][px] = rgb

    centers, radius, margin = _palatal_layout(frame.rows, frame.z_frac_of_col, style)
    outline = hex_rgb(style.outline_color)
    rx = 0.5 * w - margin
    ry = 0.42 * (h - 2 * margin)
    shoulder_y = margin + ry
    steps = 160
    for k in range(steps + 1):
        t = k / steps
        put_disc(margin, h - margin + t * (shoulder_y - (h - margin)), 1.2, outline)
        put_disc(w - margin, h - margin + t * (shoulder_y - (h - margin)), 1.2, outline)
        angle = math.pi * (1.0 - t)
        put_disc(0.5 * w + rx * math.cos(angle), shoulder_y - ry * math.sin(angle), 1.2, outline)
    contact_rgb = hex_rgb(style.contact_color)
    open_rgb = hex_rgb(style.no_contact_color)
    for i, row in enumerate(frame.cells):
        for j, contacted in enumerate(row):
            cx, cy = centers[i][j]
            put_disc(cx, cy, radius, contact_rgb if contacted else open_rgb)
    raster = bytearray(f"P6\n{w} {h}\n255\n".encode("ascii"))
    for prow in pixels:
        for rgb in prow:
            raster.extend(rgb)
    return bytes(raster)


def interpolate(a: SoundTarget, b: SoundTarget, lam: float) -> SoundTarget:
    """Blend two targets, resampling both contours afresh for this one lam.

    This is the blend sounds.interpolate made before one blend served a
    whole transition; both must give the same target, float for float.
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
        u = (1.0 - lam) * midsagittal_height(a.contour, x) + lam * midsagittal_height(
            b.contour, x
        )
        points.append((x, u))
    discrete_src = a.params if lam < 0.5 else b.params
    blended = {}
    for fld in fields(ShapingParams):
        if fld.name in _ENUM_FIELDS or fld.name in _FLAG_FIELDS:
            blended[fld.name] = getattr(discrete_src, fld.name)
        else:
            va = getattr(a.params, fld.name)
            vb = getattr(b.params, fld.name)
            blended[fld.name] = (1.0 - lam) * va + lam * vb
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


def palatal_svg(frame: EPGFrame, style: RenderStyle) -> bytes:
    """The palatal SVG laid out and formatted afresh, cell by cell.

    This is the emitter render_palatal_svg used before it kept one layout
    per canvas; both must give the same bytes.
    """
    parts = _svg_open(style)
    centers, radius, margin = _palatal_layout(frame.rows, frame.z_frac_of_col, style)
    parts.append(
        f'<path d="{_horseshoe_path(style, margin)}" fill="none" '
        f'stroke="{style.outline_color}" stroke-width="2"/>'
    )
    f = style.fmt
    for i, row in enumerate(frame.cells):
        for j, contacted in enumerate(row):
            cx, cy = centers[i][j]
            fill = style.contact_color if contacted else style.no_contact_color
            parts.append(
                f'<circle cx="{f(cx)}" cy="{f(cy)}" r="{f(radius)}" fill="{fill}"/>'
            )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
