"""Rasterization of the contact field into an EPG-style boolean grid."""

from __future__ import annotations

import functools
import operator
import threading
from array import array
from bisect import bisect_left, bisect_right

from ._frozen import Frozen
from .dome import PalateGeometry, dome_profile, slice_at
from .errors import DomainError
from .shaping import (
    EDGE_RAMP_LENGTH,
    ShapingParams,
    TongueContour,
    frame_constants,
    midsagittal_heights,
)

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
# own arithmetic. A kept row holds one walk, its left half and an odd middle
# column: each cell's offset from the midline and dome elevation as doubles,
# 16 bytes a cell of the walk, about 8 a cell of the row, beside about 0.4 KB
# for its x, slice and containers, so a lattice of 128 x 128 holds about
# 0.18 MB and the tallest one, 1024 x 16, about 0.54 MB: the 16 kept
# lattices hold at most about 8.6 MB, and 48 x 48 to 100 x 64 on both
# built-in palates (10 lattices, 41,480 cells) about 0.6 MB. A larger
# lattice's rows are sampled afresh, one at a time, for each frame, in the
# same order and through the same kernel.
_CACHED_CELLS = 128 * 128

# The most cells, summed over rows, of the EPG rows compute_epg keeps across
# calls and threads, by (j, t, k) per cols, whatever the palate: a kept row
# is a tuple of cols pointers, 8 B a cell, beside about 0.15 KB for its key,
# its header and its dict slot, so the kept rows hold at most about 0.5 MB
# of cells and about 1.2 MB in all. The 12 presets on both built-in palates
# at 48 x 48 to 100 x 64 keep 114 rows, 6,696 cells, about 70 KB. Once the
# bound is reached, a new row is built for its call alone, still one tuple
# for the equal rows of its frame.
_KEPT_ROW_CELLS = 1 << 16
_kept_rows: dict[int, dict[tuple[int, int, int], tuple[bool, ...]]] = {}
_kept_cells = 0  # the cells of every kept row, at most _KEPT_ROW_CELLS
_keeping = threading.Lock()


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
    its row's lateral span, at the offset |f - 0.5| * span from the midline:
    compute_epg computes the left half and an odd middle column and mirrors
    them, so every row it makes reads the same reversed, and the equal rows
    of a frame it makes are one shared tuple, which later frames of its cols
    share too while it is kept (see _KEPT_ROW_CELLS). A frame compares,
    hashes and pickles by its cells' values, shared or not.
    """

    __slots__ = ("cells", "x_of_row")

    def __init__(
        self, cells: tuple[tuple[bool, ...], ...], x_of_row: tuple[float, ...]
    ) -> None:
        self._set(cells, x_of_row)
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

    The model is symmetric about each slice's midline: the dome and every
    shaping term depend on a cell only through its offset from the midline.
    So each row is one walk, its left half and an odd middle column, from
    the molar edge to the middle, and the right half is that walk mirrored.
    The dome sampled along the walk depends only on the palate, the overlap
    and the lattice, not on the tongue, and _dome_rows keeps it (see
    _CACHED_CELLS). Along the walk the offset never grows, so neither does
    the unlowered tongue (its edge weight scale * (o / half_width) ** 2 has
    scale >= 0), and the dome never falls (see _sample_rows). So the cells
    of the walk the unlowered tongue reaches are a prefix of it, those the
    tongue lowered by a strip reaches are a prefix of the strip's cells (a
    contiguous run, as the strip is a range of offsets), and each is found
    by bisection with the per-cell test itself, the same float operations
    as the per-term sum: a row costs O(log cols) tests. The constants of
    that sum that depend on the frame alone come from frame_constants once
    a call, and a row works out only its own (u0, scale and a lateral
    strip's lo). The three indices found decide the row, so a row is built,
    as two slices of _RUNS, only the first time its indices come up for its
    cols, and kept for later calls while _KEPT_ROW_CELLS allows: equal rows
    are one shared tuple, most rows of a frame repeat another, and few
    distinct rows occur over many frames.
    tests/test_raster_kernel.py checks every cell bit for bit against the
    per-cell evaluator in tests/oracles.py, and the number of values a row
    reads; tests/test_invariants.py and tests/test_epg.py check the sharing.
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
    edge, onset, width, hi, drop = frame_constants(params)
    mirror = cols // 2 - 1  # the right half is the walk reversed, less an odd middle
    b = (cols + 1) // 2  # the walk's length
    n = MAX_EPG_SIDE
    kept = _kept_rows.get(cols) or _kept_rows.setdefault(cols, {})
    made = {}  # each row this call built, by (j, t, k); past _KEPT_ROW_CELLS, the only copy
    cells = []
    for x, u_mid, (sl, offsets, dome) in zip(x_of_row, u_mids, dome_rows):
        # the row's terms, as frame_constants states them: adding 0.0 turns
        # -0.0 into 0.0, as the zero terms of the per-term sum do, and the
        # ramp is clamped as edge_elevation_delta's min and max clamp it
        u0 = u_mid + 0.0
        scale = 0.0
        if edge:
            ramp = (x - onset) / EDGE_RAMP_LENGTH
            if ramp > 0.0:
                scale = edge * (ramp if ramp < 1.0 else 1.0)
        # The four searches stay inline, as each alternative cost more a call
        # (41 interleaved in-process rounds on the same cells, CPython 3.11 on
        # a 2-core Xeon): one helper function for them 8.5% more on the raster
        # grids and 9.1% at 8 x 8, and bisect_left(range(b), True, key=...)
        # for the two loops on edge rows 12% and 15.5% more. On the 120
        # raster ops (median op, 25 interleaved in-process rounds, the same
        # machine), a call to shaping.row_constants a row read 91.2 us, the
        # constants once a frame 73.5 us, with the rows kept across calls
        # 72.4 us and with epg_text's run of one row 69.8 us; a batched
        # kernel, every k of a frame without edge elevation by one
        # map(bisect_right, ...) over its kept dome rows, read 75.7 us.
        # k: the first cell of the walk that the unlowered tongue misses,
        # which then misses every later cell. The bisections here probe
        # their first cell first: many rows reach no cell.
        if scale:
            half_width = sl.half_width
            k, q, m = 0, b, 0
            while k < q:
                if u0 + scale * (offsets[m] / half_width) ** 2 >= dome[m]:
                    k = m + 1
                else:
                    q = m
                m = (k + q) // 2
        else:
            k = bisect_right(dome, u0)
        # [s, t): the strip's cells before k, as the offsets fall along the
        # walk: a groove's from the first offset <= hi on, a lateral strip's
        # up to the first offset < lo. j: the first of them the lowered
        # tongue misses. A strip that drops by 0 lowers nothing.
        j = t = 0
        if drop and k:
            lo = sl.half_width - width
            s = bisect_left(offsets, -hi, 0, k, key=operator.neg)
            t = bisect_right(offsets, -lo, s, k, key=operator.neg)
            if scale:
                j, q, m = s, t, s
                while j < q:
                    if u0 + scale * (offsets[m] / half_width) ** 2 + drop >= dome[m]:
                        j = m + 1
                    else:
                        q = m
                    m = (j + q) // 2
            else:
                j = bisect_right(dome, u0 + drop, s, t)
        # so the walk's contacts are [0, j) and [t, k); one run of them is
        # written as [t, k) alone, so the row is two slices of _RUNS
        if j == t or t == k:
            j, t, k = 0, 0, j + k - t
        # (j, t, k) decides the row, so a row whose (j, t, k) came up before,
        # in this call or an earlier one, is the tuple made then
        key = j, t, k
        row = kept.get(key) or made.get(key)
        if row is None:
            left = _RUNS[n - j : n + t - j] + _RUNS[n - k + t : n + b - k]
            row = made[key] = _keep_row(kept, key, left + left[mirror::-1])
        cells.append(row)
        # free an unkept row's floats before the next row is made, which reuses them
        del offsets, dome
    return EPGFrame._unchecked(tuple(cells), x_of_row)


# _RUNS[n - c : n + f] is c contacts then f misses, for any c, f <= n =
# MAX_EPG_SIDE. A distinct row is two slices, and adding an empty one
# copies nothing: it makes its half, its mirror and itself, no tuple of
# another size, and a row that repeats one made before makes only its key.
# Tuples of many sizes each hold an allocator pool, about 0.4 MB of raster
# peak RSS.
_RUNS = (True,) * MAX_EPG_SIDE + (False,) * MAX_EPG_SIDE


def _keep_row(kept: dict, key: tuple[int, int, int], row: tuple[bool, ...]) -> tuple[bool, ...]:
    """The row kept for key: the first one kept, by this thread or another, or row.

    row is kept while the table holds at most _KEPT_ROW_CELLS cells.
    """
    global _kept_cells
    with _keeping:
        if _kept_cells + len(row) > _KEPT_ROW_CELLS:
            return kept.get(key, row)
        shared = kept.setdefault(key, row)
        if shared is row:
            _kept_cells += len(row)
        return shared


def _as_doubles(lattice) -> tuple:
    """A dome lattice to keep, each row's offsets and elevations packed as doubles."""
    x_of_row, rows = lattice
    return x_of_row, tuple((sl, array("d", offsets), array("d", dome)) for sl, offsets, dome in rows)


@_per_lattice(_CACHED_CELLS, keep=_as_doubles)
def _dome_rows(geometry: PalateGeometry, x_lo: float, x_hi: float, rows: int, cols: int):
    """The rows' x, and each row's slice, walk offsets and dome elevations.

    A row keeps its left half and an odd middle column, the walk from the
    left molar edge to the middle: each cell's offset from the midline and
    the dome elevation there, 16 B a cell as kept. compute_epg mirrors the
    walk into the right half. This is the dome side of compute_epg, the
    same for every tongue on one palate, overlap and lattice. Unkept rows
    are made one at a time as they are used.
    """
    x_of_row = tuple(x_lo + (i + 0.5) * (x_hi - x_lo) / rows for i in range(rows))
    # |f - 0.5| of each column of the walk, whose f <= 0.5
    walk = tuple(0.5 - f for f in column_fractions(cols)[: (cols + 1) // 2])
    return x_of_row, _sample_rows(geometry, x_of_row, walk)


def _sample_rows(geometry: PalateGeometry, x_of_row: tuple[float, ...], walk):
    """Each row's slice, and the offsets and dome elevations along its walk.

    A cell's offset is o = w * span, from the slice's span alone, for the
    walk's fractions w, which fall by 1 / cols >= 1 / MAX_EPG_SIDE a cell:
    o never grows along the walk. The dome is dome_profile's at the offsets,
    and it never falls along the walk either, although rounding and math.cos
    promise nothing cell by cell, as every step is far wider than them:

    - cosine: consecutive values of 1 + cos(2 pi o / span) differ by at
      least about (2 pi / cols) ** 2 / 2 >= 1.8e-5, against a few ulps,
      about 1e-15, of rounding and of any libm cos with a sane error bound;
    - half-ellipse: the radicand (hw - o) * (hw + o) grows by at least
      about 4 * hw ** 2 / cols ** 2 a cell, 3.8e-6 of itself, against at
      most 3 ulps of rounding; sqrt, * h, / hw and the clamp at h are all
      monotone;
    - MIN_MM <= hw, h <= MAX_MM and cols <= MAX_EPG_SIDE keep every value
      clear of subnormals.

    tests/test_raster_kernel.py checks this on every cols for slices at
    those bounds. compute_epg bisects each walk whole.
    """
    for x in x_of_row:
        sl = slice_at(geometry, x)
        span = sl.span
        offsets = [w * span for w in walk]
        yield sl, offsets, dome_profile(sl, offsets)


_TEXT_OF_CELL = b"." + b"#" * 255  # bytes.translate table: 0 -> '.', any other byte -> '#'


def epg_text(frame: EPGFrame) -> str:
    """Anterior-first text rendering, '#' for contact and '.' otherwise.

    Each distinct row object is translated once: the equal rows of a frame
    that compute_epg makes are one tuple, and a row that is the row before
    it reuses that row's text without a lookup. The frame keeps every row
    alive, so a row's id names it for the whole call.
    """
    texts = {}
    rows = []
    last = text = None
    for row in frame.cells:
        if row is not last:  # a run of one row object reads its text once
            text = texts.get(id(row))
            if text is None:
                text = texts[id(row)] = bytes(row).translate(_TEXT_OF_CELL)
            last = row
        rows.append(text)
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
