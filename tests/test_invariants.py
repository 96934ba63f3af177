"""The paper's invariants of the contact grid, as exact properties.

Over random palates, contours, manners and lattices, each compares two grids
cell for cell, with no tolerance:

* mirroring the palate (z_min, z_max -> -z_max, -z_min) reverses every row;
* raising the contour never removes a contact;
* raising every slice's dome height never adds one.

Each holds float for float: negation rounds symmetrically, the right half's
column offsets are the left half's negated, so they mirror exactly, and
every float operation from a height to a cell's comparison is monotone.
"""

from __future__ import annotations

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


@settings(max_examples=100, deadline=None)
@given(scene=scenes())
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
@given(scene=scenes(), data=st.data())
def test_raising_the_contour_never_removes_a_contact(scene, data):
    geometry, contour, params, lattice = scene
    raised = TongueContour(points=tuple((x, u + data.draw(raises)) for x, u in contour.points))
    assert_no_contact_lost(
        cells(geometry, contour, params, lattice), cells(geometry, raised, params, lattice)
    )


@settings(max_examples=100, deadline=None)
@given(scene=scenes(), data=st.data())
def test_raising_the_dome_never_adds_a_contact(scene, data):
    geometry, contour, params, lattice = scene
    raised = PalateGeometry(slices=tuple(
        DomeSlice(x=s.x, z_min=s.z_min, z_max=s.z_max, h=s.h + data.draw(raises), shape=s.shape)
        for s in geometry.slices
    ))
    assert_no_contact_lost(
        cells(raised, contour, params, lattice), cells(geometry, contour, params, lattice)
    )
