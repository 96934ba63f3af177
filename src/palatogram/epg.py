"""Rasterization of the contact field into an EPG-style boolean grid."""

from __future__ import annotations

import operator

from ._frozen import Frozen
from .dome import PalateGeometry, dome_elevations, slice_at
from .errors import DomainError
from .shaping import ShapingParams, TongueContour, midsagittal_height, shaped_heights

__all__ = [
    "EPGFrame",
    "MAX_EPG_SIDE",
    "compute_epg",
    "epg_text",
    "epg_to_dict",
    "column_fractions",
]

MAX_EPG_SIDE = 1024  # largest rows or cols of a raster; bounds what compute_epg allocates


class EPGFrame(Frozen):
    """Boolean contact grid; rows run anterior to posterior, columns left to right."""

    __slots__ = ("rows", "cols", "cells", "x_of_row", "z_frac_of_col")

    def __init__(
        self,
        rows: int,
        cols: int,
        cells: tuple[tuple[bool, ...], ...],
        x_of_row: tuple[float, ...],
        z_frac_of_col: tuple[float, ...],
    ) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "x_of_row", x_of_row)
        object.__setattr__(self, "z_frac_of_col", z_frac_of_col)
        if len(cells) != rows or any(len(r) != cols for r in cells):
            raise DomainError("cell matrix does not match rows x cols")
        if len(x_of_row) != rows:
            raise DomainError("x_of_row length must equal rows")
        if len(z_frac_of_col) != cols:
            raise DomainError("z_frac_of_col length must equal cols")
        if any(b <= a for a, b in zip(x_of_row, x_of_row[1:])):
            raise DomainError("x_of_row must be strictly increasing")
        fr = z_frac_of_col
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise DomainError("z_frac_of_col must be strictly increasing")
        if any(not 0.0 < f < 1.0 for f in fr):
            raise DomainError("z_frac_of_col values must lie in (0, 1)")
        for j in range(len(fr) // 2 + 1):
            if abs(fr[j] + fr[len(fr) - 1 - j] - 1.0) > 1e-9:
                raise DomainError("z_frac_of_col must be symmetric about 0.5")

    @property
    def contact_count(self) -> int:
        return sum(sum(row) for row in self.cells)


def column_fractions(cols: int) -> tuple[float, ...]:
    """Column-center fractions across the span, exactly mirror-symmetric."""
    fracs = [0.0] * cols
    for j in range(cols // 2):
        d = 0.5 - (j + 0.5) / cols
        fracs[j] = 0.5 - d
        fracs[cols - 1 - j] = 0.5 + d
    if cols % 2 == 1:
        fracs[cols // 2] = 0.5
    return tuple(fracs)


def compute_epg(
    geometry: PalateGeometry,
    contour: TongueContour,
    params: ShapingParams,
    rows: int = 8,
    cols: int = 8,
) -> EPGFrame:
    """Rasterize tongue-palate contact over the contour/palate overlap.

    Cell (i, j) is contacted iff the shaped tongue height at the cell center
    reaches the dome surface there. Rows whose center falls outside the
    tongue contour are all-false. rows must lie in [1, MAX_EPG_SIDE] and cols
    in [2, MAX_EPG_SIDE].
    """
    if not 1 <= rows <= MAX_EPG_SIDE:
        raise DomainError(f"rows must lie in [1, {MAX_EPG_SIDE}], got {rows}")
    if not 2 <= cols <= MAX_EPG_SIDE:
        raise DomainError(f"cols must lie in [2, {MAX_EPG_SIDE}], got {cols}")
    x_lo = max(geometry.x_min, contour.x_min)
    x_hi = min(geometry.x_max, contour.x_max)
    if not x_lo < x_hi:
        raise DomainError(
            "tongue contour and palate do not overlap along the anterior-posterior axis"
        )
    fracs = column_fractions(cols)
    offsets = [f - 0.5 for f in fracs]
    x_of_row = tuple(x_lo + (i + 0.5) * (x_hi - x_lo) / rows for i in range(rows))
    cells = []
    for x in x_of_row:
        sl = slice_at(geometry, x)
        try:
            u_mid = midsagittal_height(contour, x)
        except DomainError:
            cells.append((False,) * cols)
            continue
        # offsets mirror exactly, keeping symmetric shapes bit-symmetric
        z_center, span = sl.z_center, sl.span
        zs = [z_center + o * span for o in offsets]
        heights = shaped_heights(params, sl, x, u_mid, zs)
        cells.append(tuple(map(operator.ge, heights, dome_elevations(sl, zs))))
    return EPGFrame(
        rows=rows,
        cols=cols,
        cells=tuple(cells),
        x_of_row=x_of_row,
        z_frac_of_col=fracs,
    )


def epg_text(frame: EPGFrame) -> str:
    """Anterior-first text rendering, '#' for contact and '.' otherwise."""
    return "".join(
        "".join("#" if cell else "." for cell in row) + "\n" for row in frame.cells
    )


def epg_to_dict(frame: EPGFrame) -> dict:
    """JSON-ready form of the frame."""
    return {
        "rows": frame.rows,
        "cols": frame.cols,
        "cells": [list(row) for row in frame.cells],
        "x_of_row": list(frame.x_of_row),
        "z_frac_of_col": list(frame.z_frac_of_col),
    }
