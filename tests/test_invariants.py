"""The paper's invariants of the contact grid, as exact properties.

Over random palates, contours, manners and lattices, each compares two grids
cell for cell, with no tolerance:

* every row reads the same reversed;
* mirroring the palate (z_min, z_max -> -z_max, -z_min) reverses every row;
* raising the contour never removes a contact;
* raising every slice's dome height never adds one.

Each holds float for float: a cell's offset |f - 0.5| * span, its dome and
its shaping depend on the slice's span, half width and height alone, which
mirroring keeps, and compute_epg mirrors each row's left half into its right
half; every float operation from a height to a cell's comparison is
monotone. Uniform scenes almost never put a cell on a threshold, so these
properties also run over scenes snapped onto a tie at one cell, and over
them every cell must match the per-cell evaluator in oracles.py, and equal
rows of a frame must be one tuple.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palatogram import (
    DomeShape,
    DomeSlice,
    DorsumManner,
    PalateGeometry,
    ShapingParams,
    TipManner,
    TongueContour,
    compute_epg,
    slice_at,
)
from oracles import (
    cell_offsets, centered, dome_height, epg_cells, midline_height, shaped_height
)

# small raises, down to ones that vanish in rounding, and large ones
raises = st.one_of(st.sampled_from([0.0, 5e-324, 1e-12, 1e-9]), st.floats(0.0, 3.0))


@st.composite
def palates(draw) -> PalateGeometry:
    shape = draw(st.sampled_from(DomeShape))
    xs = draw(st.lists(st.floats(0.0, 40.0), min_size=2, max_size=5, unique=True))
    slices = []
    for x in sorted(xs):
        z_min = draw(st.floats(-20.0, 5.0))
        width = draw(st.floats(2.0, 40.0))
        h = draw(st.floats(0.5, 15.0))
        slices.append(DomeSlice(x=x, z_min=z_min, z_max=z_min + width, h=h, shape=shape))
    return PalateGeometry(slices=tuple(slices))


@st.composite
def contours(draw, geometry: PalateGeometry) -> TongueContour:
    """A contour whose x range reaches past the middle of the palate's, both ways."""
    mid = 0.5 * (geometry.x_min + geometry.x_max)
    first = draw(st.floats(-10.0, mid))
    last = draw(st.floats(mid, 50.0, exclude_min=True))
    inner = draw(st.lists(st.floats(first, last), max_size=3))
    xs = sorted({first, last, *inner})
    return TongueContour(points=tuple((x, draw(st.floats(-5.0, 20.0))) for x in xs))


@st.composite
def manners(draw) -> ShapingParams:
    strip = draw(st.sampled_from(["none", "groove", "lateral"]))
    return ShapingParams(
        tt_manner=draw(st.sampled_from(TipManner)),
        td_manner=draw(st.sampled_from(DorsumManner)),
        tth=draw(st.floats(0.0, 1.0)),
        edge_elev_max=draw(st.floats(0.0, 10.0)),
        posterior_onset_x=draw(st.floats(-10.0, 50.0)),
        groove_enabled=strip == "groove",
        groove_width=draw(st.floats(0.0, 10.0)),
        groove_depth=draw(st.floats(0.0, 10.0)),
        lateral_lower_enabled=strip == "lateral",
        lateral_lower_width=draw(st.floats(0.0, 10.0)),
        lateral_lower_depth=draw(st.floats(0.0, 10.0)),
    )


@st.composite
def scenes(draw) -> tuple:
    geometry = draw(palates())
    lattice = {"rows": draw(st.integers(1, 20)), "cols": draw(st.integers(2, 20))}
    return geometry, draw(contours(geometry)), draw(manners()), lattice


@st.composite
def tie_scenes(draw) -> tuple:
    """A scene snapped onto a tie at one cell of the left half of one row.

    With o the cell's offset where compute_epg samples it (oracles.cell_offsets),
    a groove of width 2 * o or a lateral strip of width half_width - o puts
    the cell on the strip's edge, and a flat contour at the cell's dome
    elevation puts the tongue on the dome there; a scene takes one or both.
    """
    geometry, contour, params, lattice = draw(scenes())
    rows, cols = lattice["rows"], lattice["cols"]
    x_lo, x_hi = max(geometry.x_min, contour.x_min), min(geometry.x_max, contour.x_max)
    x = x_lo + (draw(st.integers(0, rows - 1)) + 0.5) * (x_hi - x_lo) / rows
    sl = slice_at(geometry, x)
    o = draw(st.sampled_from(cell_offsets(sl, cols)[: (cols + 1) // 2]))
    strip, flat = draw(
        st.sampled_from([("groove", False), ("lateral", False), (None, True), ("groove", True), ("lateral", True)])
    )
    fields = {name: getattr(params, name) for name in ShapingParams.__slots__}
    if strip == "groove":
        fields.update(groove_enabled=True, lateral_lower_enabled=False, groove_width=2.0 * o)
    elif strip == "lateral":
        fields.update(groove_enabled=False, lateral_lower_enabled=True, lateral_lower_width=sl.half_width - o)
    if flat:
        u = dome_height(centered(sl), -o)
        contour = TongueContour(points=((contour.x_min, u), (contour.x_max, u)))
    return geometry, contour, ShapingParams(**fields), lattice


def least_reaching(reaches, lo: float, hi: float) -> float:
    """The least float u in (lo, hi] with reaches(u), for reaches monotone, False at lo, True at hi."""
    assert not reaches(lo) and reaches(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def reach_scenes(draw) -> tuple:
    """A scene whose contour is moved until one cell's shaped height first reaches its dome.

    The cell is one of the left half of one row, at its offset o where
    compute_epg samples it; the contour moves up or down by one amount and
    gets a point at the row's x, at the least midline height for which the
    per-term sum at o is at least the dome there: a float lower and the cell
    is open.
    """
    geometry, contour, params, lattice = draw(scenes())
    rows, cols = lattice["rows"], lattice["cols"]
    x_lo, x_hi = max(geometry.x_min, contour.x_min), min(geometry.x_max, contour.x_max)
    x = x_lo + (draw(st.integers(0, rows - 1)) + 0.5) * (x_hi - x_lo) / rows
    sl = centered(slice_at(geometry, x))
    o = draw(st.sampled_from(cell_offsets(sl, cols)[: (cols + 1) // 2]))
    dome = dome_height(sl, -o)
    u = least_reaching(
        lambda u: shaped_height(params, sl, x, u, -o) >= dome, dome - 50.0, dome + 50.0
    )
    shift = u - midline_height(contour, x)
    points = {p: v + shift for p, v in contour.points}
    points[x] = u
    return geometry, TongueContour(points=tuple(sorted(points.items()))), params, lattice


tied = scenes() | tie_scenes() | reach_scenes()


def cells(geometry, contour, params, lattice) -> tuple[tuple[bool, ...], ...]:
    return compute_epg(geometry, contour, params, **lattice).cells


def assert_no_contact_lost(low, high) -> None:
    for i, (row_low, row_high) in enumerate(zip(low, high)):
        for j, (a, b) in enumerate(zip(row_low, row_high)):
            assert b or not a, f"cell ({i}, {j}) lost its contact"


# A flat tongue at the dome height of column 4 of 7: with the right half's
# offsets taken as f - 0.5, column 4 sat 2 ulp nearer the middle than its
# mirror, column 2, so the row read ###..## both ways round.
MIRROR_TIE = (
    PalateGeometry(slices=tuple(
        DomeSlice(
            x=x, z_min=0.9394493915643203, z_max=24.08471365235679, h=9.813268262520461,
            shape=DomeShape.HALF_ELLIPSE,
        )
        for x in (0.0, 40.0)
    )),
    TongueContour(points=((-1.0, 9.404200678473), (41.0, 9.404200678473))),
    ShapingParams(edge_elev_max=0.0),
    {"rows": 1, "cols": 7},
)


@settings(max_examples=150, deadline=None)
@given(scene=tied)
@example(scene=MIRROR_TIE)
def test_every_row_reads_the_same_mirrored(scene):
    grid = cells(*scene)
    assert grid == tuple(row[::-1] for row in grid)


# A lateral strip whose inner edge half_width - w is the offset of columns 1
# and 5 of 7 on this slice, so both are lowered. Offsets taken as
# |z - z_center|, each z rounded on its own, put column 1 an ulp inside the
# edge and column 5 on it, and one cell of the pair was lowered: .####..
# under the tongue, .#..... over it. In exact arithmetic the columns'
# offset, 2/7 of the span, lies 7.6e-16 mm inside the strip.
Z_MIN, Z_MAX, EDGE_WIDTH = -34.62543023550395, 16.373160243792782, 10.928269388420729


@pytest.mark.parametrize(
    "shape, heights, depth, row",
    [
        (DomeShape.COSINE, (9.0, 13.0, 7.5), 30.0, "..###.."),
        (DomeShape.HALF_ELLIPSE, (9.0, 13.0, 7.5), 30.0, "..###.."),
        (DomeShape.COSINE, (30.0, 30.0), 23.0, "......."),
        (DomeShape.HALF_ELLIPSE, (22.0, 22.0), 23.0, "......."),
    ],
)
def test_a_strip_edge_lowers_both_mirrored_cells(shape, heights, depth, row):
    geometry = PalateGeometry(slices=tuple(
        DomeSlice(x=40.0 * k / (len(heights) - 1), z_min=Z_MIN, z_max=Z_MAX, h=h, shape=shape)
        for k, h in enumerate(heights)
    ))
    contour = TongueContour(points=((-1.0, 20.0), (41.0, 20.0)))
    params = ShapingParams(
        lateral_lower_enabled=True, lateral_lower_width=EDGE_WIDTH, lateral_lower_depth=depth
    )
    sl = slice_at(geometry, 20.0)
    assert cell_offsets(sl, 7)[1] == cell_offsets(sl, 7)[5] == sl.half_width - EDGE_WIDTH
    frame = compute_epg(geometry, contour, params, rows=1, cols=7)
    assert frame.x_of_row == (20.0,)
    assert frame.cells == epg_cells(geometry, contour, params, 1, 7)
    assert "".join("#" if cell else "." for cell in frame.cells[0]) == row


@settings(max_examples=100, deadline=None)
@given(scene=tied)
@example(scene=MIRROR_TIE)
def test_mirroring_the_palate_reverses_every_row(scene):
    geometry, contour, params, lattice = scene
    mirrored = PalateGeometry(slices=tuple(
        DomeSlice(x=s.x, z_min=-s.z_max, z_max=-s.z_min, h=s.h, shape=s.shape)
        for s in geometry.slices
    ))
    grid = cells(geometry, contour, params, lattice)
    assert cells(mirrored, contour, params, lattice) == tuple(row[::-1] for row in grid)


@settings(max_examples=100, deadline=None)
@given(scene=tied, data=st.data())
def test_raising_the_contour_never_removes_a_contact(scene, data):
    geometry, contour, params, lattice = scene
    raised = TongueContour(points=tuple((x, u + data.draw(raises)) for x, u in contour.points))
    assert_no_contact_lost(
        cells(geometry, contour, params, lattice), cells(geometry, raised, params, lattice)
    )


@settings(max_examples=100, deadline=None)
@given(scene=tied, data=st.data())
def test_raising_the_dome_never_adds_a_contact(scene, data):
    geometry, contour, params, lattice = scene
    raised = PalateGeometry(slices=tuple(
        DomeSlice(x=s.x, z_min=s.z_min, z_max=s.z_max, h=s.h + data.draw(raises), shape=s.shape)
        for s in geometry.slices
    ))
    assert_no_contact_lost(
        cells(raised, contour, params, lattice), cells(geometry, contour, params, lattice)
    )


@settings(max_examples=150, deadline=None)
@given(scene=tied)
@example(scene=MIRROR_TIE)
def test_every_cell_matches_the_per_cell_oracle(scene):
    geometry, contour, params, lattice = scene
    grid = cells(*scene)
    assert grid == epg_cells(geometry, contour, params, lattice["rows"], lattice["cols"])


@settings(max_examples=100, deadline=None)
@given(scene=tied)
def test_equal_rows_of_a_frame_are_one_tuple(scene):
    grid = cells(*scene)
    assert len({id(row) for row in grid}) == len(set(grid))
