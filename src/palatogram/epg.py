"""Rasterization of the contact field into an EPG-style boolean grid."""

from __future__ import annotations

import functools
import operator
from array import array

from ._frozen import Frozen
from .dome import PalateGeometry, dome_elevations, slice_at
from .errors import DomainError
from .shaping import ShapingParams, TongueContour, midsagittal_heights, shaped_row

__all__ = [
    "EPGFrame",
    "MAX_EPG_SIDE",
    "compute_epg",
    "epg_text",
    "epg_to_dict",
    "column_fractions",
]

MAX_EPG_SIDE = 1024  # largest rows or cols of a raster; bounds what compute_epg allocates

# The largest lattice, in cells, whose dome rows compute_epg keeps, for the
# last 16 palates, overlaps and lattices drawn: the frames drawn against one
# palate share its dome, so a frame on a kept lattice only does its tongue's
# own arithmetic. A kept row holds each cell's offset |z - z_center| and dome
# elevation as doubles, 16 bytes a cell, beside about 0.4 KB for its x,
# slice and containers, so a lattice of 128 x 128 holds about 0.3 MB and the
# tallest one, 1024 x 16, about 0.65 MB: the 16 kept lattices hold at most
# about 10.5 MB, and 48 x 48 to 100 x 64 on both built-in palates (10
# lattices, 41,480 cells) about 0.9 MB. A larger lattice's rows are sampled
# afresh, one at a time, for each frame.
_CACHED_CELLS = 128 * 128


def _per_lattice(max_cells: int, keep=tuple):
    """Keep keep(make(*key)) for the last 16 keys of at most max_cells cells.

    Every key ends in its lattice's rows and cols. A larger lattice's items
    are made afresh, one at a time as they are used.
    """

    def per_lattice(make):
        kept = functools.lru_cache(maxsize=16)(lambda *key: keep(make(*key)))

        @functools.wraps(make)
        def get(*key):
            return kept(*key) if key[-2] * key[-1] <= max_cells else make(*key)

        get.cache_clear = kept.cache_clear
        return get

    return per_lattice


class EPGFrame(Frozen):
    """Boolean contact grid; rows run anterior to posterior, columns left to right.

    cells is a non-empty rectangle of booleans, and x_of_row each row's
    position, nondecreasing: rows over an overlap narrower than their count
    of floats share positions. Column j sits at column_fractions(cols)[j] of
    its row's lateral span.
    """

    __slots__ = ("cells", "x_of_row")

    def __init__(
        self, cells: tuple[tuple[bool, ...], ...], x_of_row: tuple[float, ...]
    ) -> None:
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "x_of_row", x_of_row)
        if not cells or not cells[0]:
            raise DomainError("an EPG frame needs at least one row and one column")
        cols = len(cells[0])
        if any(len(row) != cols for row in cells):
            raise DomainError("every row of cells must have the same length")
        if len(x_of_row) != len(cells):
            raise DomainError("x_of_row needs one position per row")
        if any(b < a for a, b in zip(x_of_row, x_of_row[1:])):
            raise DomainError("x_of_row must be nondecreasing")

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @property
    def z_frac_of_col(self) -> tuple[float, ...]:
        """Each column's center as a fraction of the row's lateral span."""
        return column_fractions(self.cols)

    @property
    def contact_count(self) -> int:
        return sum(sum(row) for row in self.cells)


def column_fractions(cols: int) -> tuple[float, ...]:
    """Column-center fractions across the span, exactly mirror-symmetric."""
    fracs = [0.5] * cols  # an odd middle column stays at 0.5
    for j in range(cols // 2):
        d = 0.5 - (j + 0.5) / cols
        fracs[j] = 0.5 - d
        fracs[cols - 1 - j] = 0.5 + d
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
    reaches the dome surface there. rows must lie in [1, MAX_EPG_SIDE] and
    cols in [2, MAX_EPG_SIDE].

    The dome sampled at the cell centers depends only on the palate, the
    overlap and the lattice, not on the tongue. Each cell's offset
    |z - z_center| and dome elevation are kept, as doubles (16 B a cell), for
    the last 16 of them of at most _CACHED_CELLS = 128 x 128 cells (about
    10.5 MB at most), so a frame on a kept one only does its tongue's own
    arithmetic: one walk of the contour for the rows' midline heights, and
    each row shaped from its kept offsets alone, as every shaping term
    depends on a cell only through its offset. A larger lattice samples the
    dome row by row as it goes, keeping none of it.
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
    x_of_row, dome_rows = _dome_rows(geometry, x_lo, x_hi, rows, cols)
    u_mids = midsagittal_heights(contour, x_of_row)
    cells = []
    for x, u_mid, (sl, offsets, dome) in zip(x_of_row, u_mids, dome_rows):
        heights = shaped_row(params, sl, x, u_mid, offsets)
        cells.append(tuple(map(operator.ge, heights, dome)))
        # free an unkept row's floats before the next row is made, which reuses them
        del offsets, dome, heights
    return EPGFrame(cells=tuple(cells), x_of_row=x_of_row)


def _as_doubles(lattice) -> tuple:
    """A dome lattice to keep, each row's offsets and elevations packed as doubles."""
    x_of_row, rows = lattice
    return x_of_row, tuple(
        (sl, array("d", offsets), array("d", dome)) for sl, offsets, dome in rows
    )


@_per_lattice(_CACHED_CELLS, keep=_as_doubles)
def _dome_rows(geometry: PalateGeometry, x_lo: float, x_hi: float, rows: int, cols: int):
    """The rows' x, and each row's slice, cell offsets and dome elevations.

    A row holds each cell's offset |z - z_center| and the dome elevation at
    each cell, 16 B a cell as kept: the dome side of compute_epg, the same
    for every tongue on one palate, overlap and lattice. The cells' z are
    only needed to sample the dome, so no row keeps them. Unkept rows are
    made one at a time as they are used.
    """
    x_of_row = tuple(x_lo + (i + 0.5) * (x_hi - x_lo) / rows for i in range(rows))
    col_offsets = tuple(f - 0.5 for f in column_fractions(cols))
    return x_of_row, _sample_rows(geometry, x_of_row, col_offsets)


def _sample_rows(geometry: PalateGeometry, x_of_row: tuple[float, ...], col_offsets):
    for x in x_of_row:
        sl = slice_at(geometry, x)
        # the column offsets mirror exactly, but each z is rounded on its own,
        # so two mirrored cells' offsets |z - z_center| can differ by an ulp
        z_center, span = sl.z_center, sl.span
        zs = [z_center + o * span for o in col_offsets]
        yield sl, [abs(z - z_center) for z in zs], dome_elevations(sl, zs)


_TEXT_OF_CELL = b"." + b"#" * 255  # bytes.translate table: 0 -> '.', any other byte -> '#'


def epg_text(frame: EPGFrame) -> str:
    """Anterior-first text rendering, '#' for contact and '.' otherwise."""
    rows = [bytes(row).translate(_TEXT_OF_CELL) for row in frame.cells]
    return (b"\n".join(rows) + b"\n").decode("ascii")


def epg_to_dict(frame: EPGFrame) -> dict:
    """JSON-ready form of the frame."""
    return {
        "rows": frame.rows,
        "cols": frame.cols,
        "cells": [list(row) for row in frame.cells],
        "x_of_row": list(frame.x_of_row),
        "z_frac_of_col": list(frame.z_frac_of_col),
    }
