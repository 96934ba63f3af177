"""The row kernel of the EPG raster against the per-cell evaluator in oracles.py.

compute_epg walks each row's left half from the molar edge to the middle,
where the offset from the midline never grows and the dome never falls,
bisects the walk for the cells the tongue reaches (shaping.frame_constants
gives the frame's terms, and compute_epg works out each row's from them;
the dome rows are kept in walk order) and mirrors it
into the right half. It finds every row's midline height in one walk of the
contour (midsagittal_heights). Every cell must come out as the per-cell
sum, dome formula and bisected contour give it at the cell's offset, and
every height bit for bit, -0.0 included.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from palatogram import (
    DomainError,
    DomeShape,
    DomeSlice,
    DorsumManner,
    FullContact,
    Intersection,
    NoContact,
    PalateGeometry,
    ShapingParams,
    TipManner,
    TongueContour,
    classify_slice,
    compute_epg,
    default_library,
    default_palate,
    dome_elevation,
    midsagittal_height,
    slice_at,
)
from palatogram.dome import dome_profile
from palatogram import epg
from palatogram.epg import EPGFrame, column_fractions
from palatogram.errors import MAX_MM, MIN_MM
from palatogram.shaping import EDGE_RAMP_LENGTH, midsagittal_heights
from oracles import (
    cell_offsets, centered, dome_height, epg_cells, midline_height, shaped_height, shaped_row
)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def offsets(sl: DomeSlice, zs) -> list[float]:
    """Each z's offset |z - z_center| from the midline, what shaped_row reads."""
    return [abs(z - sl.z_center) for z in zs]


slices = st.builds(
    lambda x, z_min, width, h, shape: DomeSlice(
        x=x, z_min=z_min, z_max=z_min + width, h=h, shape=shape
    ),
    x=st.floats(-5, 45),
    z_min=st.floats(-25, 5),
    width=st.floats(0.5, 40),
    h=st.floats(0.5, 20),
    shape=st.sampled_from(list(DomeShape)),
)


zeros = st.sampled_from((0.0, -0.0))


@st.composite
def palates(draw) -> PalateGeometry:
    shape = draw(st.sampled_from(list(DomeShape)))
    x = draw(st.floats(-5, 5) | zeros)
    stack = []
    for _ in range(draw(st.integers(2, 4))):
        z_min = draw(st.floats(-25, 0) | zeros)
        stack.append(
            DomeSlice(
                x=x,
                z_min=z_min,
                z_max=z_min + draw(st.floats(1, 40)),
                h=draw(st.floats(0.5, 20)),
                shape=shape,
            )
        )
        x += draw(st.floats(1, 25))
    return PalateGeometry(slices=tuple(stack))


heights = st.floats(-5, 25) | zeros


@st.composite
def contours(draw, geometry: PalateGeometry) -> TongueContour:
    """A contour overlapping the palate, often over only part of its length."""
    lo, hi = geometry.x_min, geometry.x_max
    start = draw(st.floats(lo - 10, hi - 1))
    end = draw(st.floats(max(start, lo) + 0.5, hi + 10))
    n = draw(st.integers(2, 5))
    xs = [start + (end - start) * k / (n - 1) for k in range(n)]
    return TongueContour(points=tuple((x, draw(heights)) for x in xs))


# 0, inside the span, and wider than any span drawn here
widths = st.sampled_from((0.0, 100.0)) | st.floats(0, 8) | st.floats(40, 100)


@st.composite
def shaping(
    draw,
    tt_manners=st.sampled_from(list(TipManner)),
    td_manners=st.sampled_from(list(DorsumManner)),
    strips=st.sampled_from(("none", "groove", "lateral")),
    onsets=st.floats(-10, 50),
) -> ShapingParams:
    strip = draw(strips)
    return ShapingParams(
        tt_manner=draw(tt_manners),
        td_manner=draw(td_manners),
        tth=draw(st.sampled_from((0.0, 1.0)) | st.floats(0, 1)),
        edge_elev_max=draw(st.floats(0, 20)),
        posterior_onset_x=draw(onsets),
        groove_enabled=strip == "groove",
        groove_width=draw(widths),
        groove_depth=draw(st.floats(0, 30)),
        lateral_lower_enabled=strip == "lateral",
        lateral_lower_width=draw(widths),
        lateral_lower_depth=draw(st.floats(0, 30)),
    )


def flip_zero_signs(geometry: PalateGeometry) -> PalateGeometry:
    """A palate equal to geometry, but a distinct object whose zero fields carry the other sign."""
    flip = lambda v: -v if v == 0 else v
    return PalateGeometry(
        slices=tuple(
            DomeSlice(x=flip(s.x), z_min=flip(s.z_min), z_max=flip(s.z_max), h=s.h, shape=s.shape)
            for s in geometry.slices
        )
    )


# any lattice up to 40 x 41, more often one of the larger of them, and the
# raster sizes 48 x 48 and 100 x 64, whose dome rows compute_epg keeps as
# it does those of every lattice of at most 128 x 128 cells
lattices = (
    st.tuples(st.integers(1, 40), st.integers(2, 41))
    | st.tuples(st.integers(26, 40), st.integers(40, 41))
    | st.sampled_from(((48, 48), (100, 64)))
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), lattice=lattices)
def test_compute_epg_matches_per_cell_oracle(data, lattice):
    # on one palate and lattice: a first contour, a second one over the same
    # overlap (which reuses the first one's dome rows where they are kept),
    # and the second on a palate equal to the first but made apart from it
    rows, cols = lattice
    geometry = data.draw(palates())
    twin = flip_zero_signs(geometry)
    assert twin == geometry and twin is not geometry
    contour = data.draw(contours(geometry))
    again = TongueContour(points=tuple((x, data.draw(heights)) for x, _u in contour.points))
    for palate, tongue in ((geometry, contour), (geometry, again), (twin, again)):
        params = data.draw(shaping())
        frame = compute_epg(palate, tongue, params, rows=rows, cols=cols)
        assert frame.cells == epg_cells(palate, tongue, params, rows, cols)
        assert checked(frame) == frame


def checked(frame: EPGFrame) -> EPGFrame:
    """frame rebuilt by EPGFrame's checked constructor, which compute_epg skips."""
    assert all(cell.__class__ is bool for row in frame.cells for cell in row)
    return EPGFrame(frame.cells, frame.x_of_row)


@pytest.mark.parametrize("shape", list(DomeShape))
@pytest.mark.parametrize("rows, cols", [(8, 8), (7, 9), (62, 62), (1, 2)])
def test_presets_match_per_cell_oracle(shape, rows, cols):
    geometry = default_palate(shape)
    for target in default_library():
        frame = compute_epg(geometry, target.contour, target.params, rows=rows, cols=cols)
        assert frame.cells == epg_cells(geometry, target.contour, target.params, rows, cols)
        assert checked(frame) == frame


# each way of shaping a row: the edge weight, a strip, or both
MANNERS = {
    "flat": {},
    "groove": {"groove_enabled": True},
    "lateral": {"lateral_lower_enabled": True},
    "edge": {"tt_manner": TipManner.FULL},
    "edge+groove": {"tt_manner": TipManner.FULL, "groove_enabled": True},
    "edge+lateral": {"td_manner": DorsumManner.FULL, "lateral_lower_enabled": True},
}


@st.composite
def manner_params(draw, manner: str, x_lo: float, x_hi: float) -> ShapingParams:
    """ShapingParams of one manner whose edge ramp starts within reach of [x_lo, x_hi]."""
    return ShapingParams(
        **MANNERS[manner],
        tth=draw(st.floats(0.05, 1)),
        edge_elev_max=draw(st.floats(0.5, 20)),
        posterior_onset_x=draw(st.floats(x_lo - EDGE_RAMP_LENGTH, x_hi)),
        groove_width=draw(widths),
        groove_depth=draw(st.floats(0.5, 30)),
        lateral_lower_width=draw(widths),
        lateral_lower_depth=draw(st.floats(0.5, 30)),
    )


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("manner", list(MANNERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), rows=st.integers(1, 40), half=st.integers(1, 20))
def test_compute_epg_matches_oracle_in_each_manner(manner, parity, data, rows, half):
    # the ramp of an edge manner is partial across the rows: it starts
    # inside the overlap or less than a ramp length before it
    cols = 2 * half + (parity == "odd")
    geometry = data.draw(palates())
    contour = data.draw(contours(geometry))
    x_lo, x_hi = max(geometry.x_min, contour.x_min), min(geometry.x_max, contour.x_max)
    params = data.draw(manner_params(manner, x_lo, x_hi))
    frame = compute_epg(geometry, contour, params, rows=rows, cols=cols)
    assert frame.cells == epg_cells(geometry, contour, params, rows, cols)


@settings(max_examples=6, deadline=None)
@given(data=st.data(), params=shaping())
def test_a_streamed_lattice_matches_per_cell_oracle(data, params):
    # a lattice too large to keep is sampled row by row, through the same kernel
    rows, cols = epg.MAX_EPG_SIDE, 17
    assert rows * cols > epg._CACHED_CELLS
    geometry = data.draw(palates())
    contour = data.draw(contours(geometry))
    frame = compute_epg(geometry, contour, params, rows=rows, cols=cols)
    assert frame.cells == epg_cells(geometry, contour, params, rows, cols)


# narrow slices far from z = 0, where each z is rounded to about 1e-10
far_slices = st.builds(
    lambda sign, center, half_width, h, shape: DomeSlice(
        x=0.0, z_min=sign * center - half_width, z_max=sign * center + half_width, h=h, shape=shape
    ),
    sign=st.sampled_from((-1.0, 1.0)),
    center=st.floats(1e5, MAX_MM - 1e-3),
    half_width=st.floats(1.001 * MIN_MM, 4 * MIN_MM),  # z_min and z_max round apart
    h=st.floats(MIN_MM, 20),
    shape=st.sampled_from(list(DomeShape)),
)


# the slices at the bounds of DomeSlice, where a step of the dome along a
# walk is least against its rounding: half width and height each at MIN_MM
# or MAX_MM, and the narrowest slices at either end of the z range
BOUND_SLICES = tuple(
    DomeSlice(x=0.0, z_min=z_min, z_max=z_max, h=h, shape=shape)
    for shape in DomeShape
    for z_min, z_max in (
        (-MIN_MM, MIN_MM),
        (-MAX_MM, MAX_MM),
        (MAX_MM - 2 * MIN_MM, MAX_MM),
        (-MAX_MM, 2 * MIN_MM - MAX_MM),
    )
    for h in (MIN_MM, MAX_MM)
)


def flat_palate(sl: DomeSlice) -> PalateGeometry:
    """The slice and its copy 1 mm behind it, so every row between them is the slice."""
    return PalateGeometry(slices=(sl, DomeSlice(sl.x + 1.0, sl.z_min, sl.z_max, sl.h, sl.shape)))


@settings(max_examples=200, deadline=None)
@given(
    sl=slices | far_slices | st.sampled_from(BOUND_SLICES),
    cols=st.integers(2, 41) | st.integers(2, epg.MAX_EPG_SIDE),
)
def test_each_walk_has_falling_offsets_and_a_rising_dome(sl, cols):
    # a kept row holds one walk, the left half and an odd middle column from
    # the molar edge to the middle: its offsets never grow, and the dome
    # never falls along it, so compute_epg bisects it whole
    geometry = flat_palate(sl)
    (x,), ((row_slice, kept, dome),) = epg._dome_rows(geometry, sl.x, sl.x + 1.0, 1, cols)
    assert row_slice == slice_at(geometry, x)
    walk = cell_offsets(row_slice, cols)[: (cols + 1) // 2]
    at_zero = centered(row_slice)
    assert bits(kept) == bits(walk)
    assert bits(dome) == bits(dome_height(at_zero, -o) for o in walk)
    assert list(kept) == sorted(kept, reverse=True)
    assert list(dome) == sorted(dome)


@pytest.mark.parametrize("sl", BOUND_SLICES)
def test_the_dome_rises_along_every_walk_of_a_bound_slice(sl):
    # _sample_rows's argument that the dome never falls along a walk, checked
    # on every lattice width at the bounds where its steps are least
    geometry = flat_palate(sl)
    for cols in range(2, epg.MAX_EPG_SIDE + 1):
        ((_sl, _kept, dome),) = epg._dome_rows(geometry, sl.x, sl.x + 1.0, 1, cols)[1]
        assert list(dome) == sorted(dome), cols


@pytest.mark.parametrize("rows, cols", [(4, 2), (4, 3), (8, 8), (7, 9), (100, 64), (129, 128), (3, 1024)])
def test_a_kept_row_holds_one_walk(rows, cols):
    # a row keeps (cols + 1) // 2 offsets and elevations, kept lattice or
    # not, and compute_epg mirrors them into the rest of the row
    x_of_row, dome_rows = epg._dome_rows(default_palate(), 0.0, 40.0, rows, cols)
    lengths = [(len(kept), len(dome)) for _sl, kept, dome in dome_rows]
    assert lengths == [((cols + 1) // 2,) * 2] * len(x_of_row)


class CountedReads(list):
    """A kept row's values, each read counted in reads[0]."""

    def __init__(self, values, reads: list) -> None:
        super().__init__(values)
        self.reads = reads

    def __getitem__(self, index):
        self.reads[0] += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("manner", list(MANNERS))
def test_a_row_reads_log_many_of_its_values(monkeypatch, manner):
    # A 1024-column row is one walk of its 512 left cells, bisected twice on
    # its dome (its unlowered and its lowered reach, an offset read beside
    # each elevation with the edge weight) and twice on its offsets (the
    # strip's ends), each at most about log2(512) reads; the right half is
    # the walk mirrored, and reads nothing. A per-cell loop, 2 * 1024 reads
    # a row, or a second walk would fail this.
    rows, cols = 6, epg.MAX_EPG_SIDE
    geometry = default_palate()
    contour = TongueContour(points=((0.0, 8.0), (40.0, 11.0)))
    params = ShapingParams(**MANNERS[manner], tth=1.0, posterior_onset_x=10.0)
    reads, walks = [0], [0]
    real = epg._dome_rows

    def counted(*key):
        x_of_row, dome_rows = real(*key)  # kept, so a tuple
        walks[0] += len(dome_rows)
        return x_of_row, [
            (sl, CountedReads(kept, reads), CountedReads(dome, reads)) for sl, kept, dome in dome_rows
        ]

    monkeypatch.setattr(epg, "_dome_rows", counted)
    frame = compute_epg(geometry, contour, params, rows=rows, cols=cols)
    assert frame.cells == epg_cells(geometry, contour, params, rows, cols)
    assert any(True in row and False in row for row in frame.cells)
    assert walks[0] == rows
    assert reads[0] <= 6 * math.ceil(math.log2(cols // 2)) * rows


@pytest.mark.parametrize("shape", list(DomeShape))
def test_cells_on_the_threshold_match_oracle(shape):
    # a flat tongue exactly at one cell's dome height touches that cell and
    # its mirror, so a cell offset or dome value one ulp off would show
    geometry, rows, cols = default_palate(shape), 5, 7
    frame = compute_epg(geometry, TongueContour(points=((0.0, 0.0), (40.0, 0.0))),
                        ShapingParams(), rows=rows, cols=cols)
    for i, x in enumerate(frame.x_of_row):
        sl = slice_at(geometry, x)
        for j, o in enumerate(cell_offsets(sl, cols)):
            u = dome_height(centered(sl), -o)
            # a contour point at x gives the midline height u exactly
            contour = TongueContour(points=((geometry.x_min, u), (x, u), (geometry.x_max, u)))
            cells = compute_epg(geometry, contour, ShapingParams(), rows=rows, cols=cols).cells
            assert cells[i][j] and cells[i][cols - 1 - j]
            assert cells == epg_cells(geometry, contour, ShapingParams(), rows, cols)


@settings(max_examples=200, deadline=None)
@given(
    sl=slices,
    params=shaping(),
    behind_onset=st.floats(-5, 15),
    u_mid=heights,
    fracs=st.lists(st.floats(-0.25, 1.25), max_size=41),
)
def test_kernel_heights_match_per_term_sum(sl, params, behind_onset, u_mid, fracs):
    # x often inside the edge ramp; z also on the midline and strip boundaries
    x = params.posterior_onset_x + behind_onset
    zs = [sl.z_min + f * sl.span for f in fracs] + [
        sl.z_center,
        sl.z_center - 0.5 * params.groove_width,
        sl.z_center + 0.5 * params.groove_width,
        sl.z_center - (sl.half_width - params.lateral_lower_width),
        sl.z_center + (sl.half_width - params.lateral_lower_width),
        sl.z_min + params.lateral_lower_width,
        sl.z_max - params.lateral_lower_width,
    ]
    want = [shaped_height(params, sl, x, u_mid, z) for z in zs]
    assert bits(shaped_row(params, sl, x, u_mid, offsets(sl, zs))) == bits(want)


@pytest.mark.parametrize("strip", ["none", "groove", "lateral"])
@pytest.mark.parametrize("td_manner", list(DorsumManner))
@pytest.mark.parametrize("tt_manner", list(TipManner))
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sl=slices,
    behind_onset=st.floats(-5, 15),
    u_mid=heights,
    cols=st.integers(2, 41),
)
def test_row_kernel_on_offsets_matches_per_term_sum(
    tt_manner, td_manner, strip, data, sl, behind_onset, u_mid, cols
):
    # the row kernel fed each lattice cell's offset from the midline, as
    # compute_epg keeps it, for every manner and strip, against the per-term
    # sum at z = -o on the centered slice, where the offset is exactly o
    params = data.draw(shaping(*map(st.just, (tt_manner, td_manner, strip, sl.x - behind_onset))))
    row_offsets, at_zero = cell_offsets(sl, cols), centered(sl)
    for u in (u_mid, 0.0, -0.0):
        want = [shaped_height(params, at_zero, sl.x, u, -o) for o in row_offsets]
        assert bits(shaped_row(params, sl, sl.x, u, row_offsets)) == bits(want)


@pytest.mark.parametrize("strip", ["none", "groove", "lateral"])
@pytest.mark.parametrize("td_manner", list(DorsumManner))
@pytest.mark.parametrize("tt_manner", list(TipManner))
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    sl=slices,
    behind_onset=st.floats(-5, 15),
    u_mid=heights,
    ds=st.lists(st.floats(0, 1.25), min_size=1, max_size=20),
)
def test_equal_offsets_shape_equally(
    tt_manner, td_manner, strip, data, sl, behind_onset, u_mid, ds
):
    # the tongue is shaped symmetrically about the midline: two cells of a
    # row whose offsets |z - z_center| are bit-equal get bit-equal heights,
    # from the per-term sum and from the row kernel, on the strip edges too
    params = data.draw(shaping(*map(st.just, (tt_manner, td_manner, strip, sl.x - behind_onset))))
    reach = [d * sl.half_width for d in ds] + [
        0.5 * params.groove_width,
        sl.half_width - params.lateral_lower_width,
    ]
    zs = [z for d in reach for z in (sl.z_center - d, sl.z_center + d)]
    row = shaped_row(params, sl, sl.x, u_mid, offsets(sl, zs))
    per_term = [shaped_height(params, sl, sl.x, u_mid, z) for z in zs]
    by_offset = {}
    for o, u, v in zip(bits(offsets(sl, zs)), bits(row), bits(per_term)):
        by_offset.setdefault(o, set()).add((u, v))
    assume(len(by_offset) < len(zs))  # some two cells share an offset
    assert all(len(shaped) == 1 for shaped in by_offset.values())


@st.composite
def walked_contours(draw) -> tuple[TongueContour, list[float]]:
    """A contour and nondecreasing xs over its range: knots, both ends, repeats."""
    x = draw(st.floats(-50, 50) | zeros)
    points = [(x, draw(heights))]
    for _ in range(draw(st.integers(1, 6))):
        x += draw(st.floats(1e-9, 20))
        points.append((x, draw(heights)))
    lo, hi = points[0][0], points[-1][0]
    xs = draw(st.lists(st.floats(lo, hi) | st.sampled_from([p[0] for p in points]), max_size=30))
    xs += draw(st.lists(st.sampled_from(xs or [lo]), max_size=5))  # repeats
    return TongueContour(points=tuple(points)), sorted(xs + [lo, hi])


@settings(max_examples=200, deadline=None)
@given(walk=walked_contours(), shuffled=st.randoms(use_true_random=False))
def test_midline_walk_matches_per_point_lookup(walk, shuffled):
    contour, xs = walk
    want = [midline_height(contour, x) for x in xs]
    assert bits(midsagittal_heights(contour, xs)) == bits(want)
    assert bits(midsagittal_height(contour, x) for x in xs) == bits(want)
    shuffled.shuffle(xs)  # the cursor also steps back, so any order is right
    assert bits(midsagittal_heights(contour, xs)) == bits(midline_height(contour, x) for x in xs)


FLAT_CONTOUR = (TongueContour(points=((0.0, 3.0), (40.0, 3.0))), [0.5, 0.75, 2.0])


@settings(max_examples=200, deadline=None)
@given(walk=walked_contours())
@example(walk=FLAT_CONTOUR)  # a plain lerp reads 3.0000000000000004 and 2.9999999999999996
def test_every_midline_height_lies_between_its_segments_ends(walk):
    contour, xs = walk
    pts = contour.points
    for x, u in zip(xs, midsagittal_heights(contour, xs)):
        i = bisect_left(pts, x, 1, key=lambda point: point[0])
        (_x0, u0), (_x1, u1) = pts[i - 1], pts[i]
        assert min(u0, u1) <= u <= max(u0, u1), x


@settings(max_examples=100, deadline=None)
@given(walk=walked_contours(), bad=st.sampled_from(("low", "high", "nan")), at=st.integers(0, 40))
def test_midline_walk_rejects_the_first_x_out_of_range(walk, bad, at):
    contour, xs = walk
    lo, hi = contour.x_min, contour.x_max
    x_bad = {"low": lo - 1.0, "high": hi + 1.0, "nan": math.nan}[bad]
    xs.insert(min(at, len(xs)), x_bad)
    with pytest.raises(DomainError) as want:
        midline_height(contour, x_bad)
    with pytest.raises(DomainError) as got:
        midsagittal_heights(contour, xs)
    assert str(got.value) == str(want.value) == f"x={x_bad} outside tongue contour range [{lo}, {hi}]"


def strip_edge_palate(shape: DomeShape) -> PalateGeometry:
    """Slices of three widths and heights that start at z = 0, which flip_zero_signs flips."""
    return PalateGeometry(
        slices=tuple(
            DomeSlice(x=x, z_min=0.0, z_max=z_max, h=h, shape=shape)
            for x, z_max, h in ((0.0, 30.0, 9.0), (12.0, 36.5, 13.0), (40.0, 33.25, 7.5))
        )
    )


def edge_width(half_width: float, o: float) -> float | None:
    """A lateral_lower_width w with half_width - w == o, near half_width - o, or None.

    half_width - o is exact for o >= half_width / 2, so w is found there;
    nearer the middle the subtraction can round both ways.
    """
    w = half_width - o
    near = (w, math.nextafter(w, -math.inf), math.nextafter(w, math.inf))
    return next((v for v in near if half_width - v == o), None)


@pytest.mark.parametrize("shape", list(DomeShape))
@pytest.mark.parametrize("cols", [7, 9, 41])
def test_cells_on_a_strip_edge_match_oracle(shape, cols):
    # a cell exactly on a strip's edge, o == 0.5 * groove_width or
    # o == half_width - lateral_lower_width, is lowered, as the per-term
    # functions have it, and so is its mirror cell; the tongue reaches the
    # apex and each strip drops it below the baseline, so only the unlowered
    # cells touch. The twin palate, equal but with its zeros signed the
    # other way, reuses the kept rows.
    geometry, rows, row = strip_edge_palate(shape), 5, 2
    twin = flip_zero_signs(geometry)
    assert twin == geometry and twin is not geometry
    tongue = TongueContour(points=((-1.0, 14.0), (41.0, 14.0)))
    probe = compute_epg(geometry, tongue, ShapingParams(), rows=rows, cols=cols)
    assert all(all(cells) for cells in probe.cells)
    sl = slice_at(geometry, probe.x_of_row[row])
    lateral_edges = 0
    for j, o in enumerate(cell_offsets(sl, cols)[: cols // 2]):
        strips = [ShapingParams(groove_enabled=True, groove_width=2.0 * o, groove_depth=30.0)]
        w = edge_width(sl.half_width, o)
        if w is not None:
            lateral_edges += 1
            strips.append(
                ShapingParams(lateral_lower_enabled=True, lateral_lower_width=w, lateral_lower_depth=30.0)
            )
        for params in strips:
            for palate in (geometry, twin):
                cells = compute_epg(palate, tongue, params, rows=rows, cols=cols).cells
                assert cells == epg_cells(palate, tongue, params, rows, cols)
                assert not cells[row][j] and not cells[row][cols - 1 - j]  # on the edge, so lowered
                if params.groove_enabled:
                    assert cells[row][:j] == (True,) * j
                else:
                    assert cells[row][j + 1 : cols - 1 - j] == (True,) * (cols - 2 - 2 * j)
    assert lateral_edges >= cols // 4


@pytest.mark.parametrize("shape", list(DomeShape))
def test_lateral_strip_follows_the_offset_rule_off_zero(shape):
    # on slices with z_min != 0 a width can put a cell on the edge of a strip
    # bounded in z, z <= z_min + w, while its offset stays below
    # half_width - w and its mirror cell, of the same offset, is not on the
    # z-bounded right strip; the strip is bounded by offset, so neither cell
    # is lowered and the row stays symmetric. The middle slice is row 2's.
    z_min, z_max = -34.62543023550395, 16.373160243792782
    geometry = PalateGeometry(
        slices=tuple(
            DomeSlice(x=x, z_min=z_min, z_max=z_max, h=h, shape=shape)
            for x, h in ((0.0, 9.0), (20.0, 13.0), (40.0, 7.5))
        )
    )
    rows, row, cols, j, w = 5, 2, 8, 1, 9.562235714868136
    sl = geometry.slices[1]
    zs = [sl.z_center + (f - 0.5) * sl.span for f in column_fractions(cols)]
    row_offsets = cell_offsets(sl, cols)
    assert zs[j] <= sl.z_min + w and not zs[-1 - j] >= sl.z_max - w
    assert row_offsets[j] == row_offsets[-1 - j] < sl.half_width - w
    # above the apex, so exactly the cells the strip lowers are open
    tongue = TongueContour(points=((-1.0, 14.0), (41.0, 14.0)))
    params = ShapingParams(
        lateral_lower_enabled=True, lateral_lower_width=w, lateral_lower_depth=30.0
    )
    frame = compute_epg(geometry, tongue, params, rows=rows, cols=cols)
    assert frame.cells == epg_cells(geometry, tongue, params, rows, cols)
    assert slice_at(geometry, frame.x_of_row[row]) is sl
    assert frame.cells[row] == tuple(o < sl.half_width - w for o in row_offsets)
    assert frame.cells[row] == (False,) + (True,) * (cols - 2) + (False,)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), params=shaping(), g=st.floats(0, 1), f=st.floats(-0.25, 1.25))
def test_field_matches_per_term_sum(data, params, g, f):
    # one point of the height field, u_t(x, z), on a drawn palate and contour
    geometry = data.draw(palates())
    contour = data.draw(contours(geometry))
    lo = max(geometry.x_min, contour.x_min)
    x = lo + g * (min(geometry.x_max, contour.x_max) - lo)
    sl = slice_at(geometry, x)
    z = sl.z_min + f * sl.span
    u_mid = midsagittal_height(contour, x)
    (got,) = shaped_row(params, sl, x, u_mid, offsets(sl, (z,)))
    assert got.hex() == shaped_height(params, sl, x, u_mid, z).hex()


@settings(max_examples=200, deadline=None)
@given(sl=slices, fracs=st.lists(st.floats(0, 1), max_size=41))
@example(
    sl=DomeSlice(x=0.0, z_min=16.0, z_max=16.99999, h=1.0, shape=DomeShape.HALF_ELLIPSE),
    fracs=[0.0, 1e-9, 0.5, 1.0],
)
def test_dome_row_matches_scalar_formula(sl, fracs):
    zs = [min(max(sl.z_min + f * sl.span, sl.z_min), sl.z_max) for f in fracs]
    assert bits(dome_elevation(sl, z) for z in zs) == bits(dome_height(sl, z) for z in zs)


@settings(max_examples=200, deadline=None)
@given(sl=slices | far_slices, fracs=st.lists(st.floats(0, 1), max_size=41))
def test_dome_profile_matches_scalar_formula_at_each_offset(sl, fracs):
    # the dome at offset o is the scalar formula's at z = -o on the centered
    # slice, an exact 0.0 at the edge and never above h
    offsets = [f * sl.half_width for f in fracs] + [0.0, sl.half_width]
    at_zero = centered(sl)
    dome = dome_profile(sl, offsets)
    assert bits(dome) == bits(dome_height(at_zero, -o) for o in offsets)
    assert dome[-1] == 0.0 and max(dome) <= sl.h


@pytest.mark.parametrize("bad", [-1.5, 1.5, math.nan])
def test_dome_row_rejects_out_of_span(s0_cosine, bad):
    with pytest.raises(DomainError, match="x=0"):
        dome_elevation(s0_cosine, bad)


@settings(max_examples=200, deadline=None)
@given(sl=slices, u=st.floats(-5, 30), at_apex=st.booleans(), cols=st.integers(2, 41))
@example(  # the half-ellipse apex used to round one ulp above h, opening the middle cell
    sl=DomeSlice(x=0.0, z_min=0.0, z_max=5.4, h=13.25, shape=DomeShape.HALF_ELLIPSE),
    u=13.25,
    at_apex=True,
    cols=3,
)
def test_flat_rows_match_classify_slice(sl, u, at_apex, cols):
    # a flat tongue's row is the analytic three-case classification, cell for
    # cell, away from the rounding of the two crossings; a tongue within
    # 1e-9 * h below the apex is skipped, as its crossings meet there, but a
    # tongue exactly at the apex is checked
    if at_apex:
        u = sl.h
    assume(u == sl.h or abs(u - sl.h) > 1e-9 * sl.h)
    zs = [sl.z_min + (k + 0.5) / cols * sl.span for k in range(cols)]
    us = shaped_row(ShapingParams(), sl, sl.x, u, offsets(sl, zs))
    assert us == [u] * cols
    touching = [a >= b for a, b in zip(us, [dome_elevation(sl, z) for z in zs])]
    contact = classify_slice(sl, u)
    if isinstance(contact, NoContact):
        assert not any(touching)
    elif isinstance(contact, FullContact):
        assert all(touching)
    else:
        assert isinstance(contact, Intersection)
        for z, t in zip(zs, touching):
            if min(abs(z - contact.z_left), abs(z - contact.z_right)) > 1e-9 * sl.span:
                assert t == (z <= contact.z_left or z >= contact.z_right)


def test_shaped_row_contacts_only_unlowered_strip(s0_cosine):
    # above the apex, with both edge strips lowered under the baseline, only
    # the central strip |z| < 0.2 still reaches the dome
    params = ShapingParams(
        lateral_lower_enabled=True, lateral_lower_width=0.8, lateral_lower_depth=12.0
    )
    n = 1024
    zs = [-1.0 + 2.0 * k / (n - 1) for k in range(n)]
    us = shaped_row(params, s0_cosine, 0.0, 11.0, offsets(s0_cosine, zs))
    touching = [z for z, u in zip(zs, us) if u >= dome_elevation(s0_cosine, z)]
    assert touching == [z for z in zs if -0.2 < z < 0.2]
    groove = ShapingParams(groove_enabled=True, groove_width=0.4, groove_depth=12.0)
    us = shaped_row(groove, s0_cosine, 0.0, 11.0, offsets(s0_cosine, zs))
    touching = [z for z, u in zip(zs, us) if u >= dome_elevation(s0_cosine, z)]
    assert touching == [z for z in zs if abs(z) > 0.2]
