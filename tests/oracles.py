"""Independent numeric oracles used to freeze expected test values."""

from __future__ import annotations

import math

from palatogram import (
    DomainError,
    DomeShape,
    DomeSlice,
    PalateGeometry,
    ShapingParams,
    TongueContour,
    dome_elevation,
    edge_elevation_delta,
    groove_delta,
    lateral_lowering_delta,
    midsagittal_height,
    slice_at,
)
from palatogram.epg import column_fractions


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
