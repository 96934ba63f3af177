"""The scanline-run PPM painter against the per-pixel painter in oracles.py.

render_palatal_ppm writes each disc row as one run; the bytes must equal
those of the painter that tests every pixel of the disc's bounding box, on
any frame. The runs of single discs are checked on their own too, with
centers and radii that put pixel centers on or within an ulp of the circle,
and on canvases so small that the discs are clipped at the border.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palatogram import (
    DomeShape,
    EPGFrame,
    compute_epg,
    default_library,
    default_palate,
    render_palatal_ppm,
)
from palatogram.render import _disc_runs
from oracles import disc_pixels, palatal_ppm


@st.composite
def frames(draw) -> EPGFrame:
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(2, 12))
    cells = draw(
        st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return EPGFrame(
        cells=tuple(tuple(row) for row in cells),
        x_of_row=tuple(float(i) for i in range(rows)),
    )


CHECKER = EPGFrame(
    cells=((True, False, True, False), (False, True, False, True), (True, True, False, False)),
    x_of_row=(0.0, 1.0, 2.0),
)


@settings(max_examples=200, deadline=None)
@given(frame=frames())
@example(frame=CHECKER)
def test_ppm_matches_per_pixel_painter(frame):
    assert render_palatal_ppm(frame) == palatal_ppm(frame)


@pytest.mark.parametrize("width", range(1, 13))
def test_ppm_tiny_canvases_match(width):
    # discs of the outline's and the dots' sizes, centered on, inside and
    # just outside every canvas up to 12 x 12, clipped at its border
    for height in range(1, 13):
        for cx in (-1.5, -0.2, 0.0, 0.5, width / 2, width - 0.5, width + 0.7):
            for cy in (-0.6, 0.5, height / 2, height + 1.1):
                for r in (0.4, 1.2, 3.0, 7.5):
                    got = run_pixels(_disc_runs(cx, cy, r, width, height))
                    assert got == disc_pixels(cx, cy, r, width, height)


@pytest.mark.parametrize("shape", list(DomeShape))
@pytest.mark.parametrize("sound", ["t", "s", "k"])
def test_ppm_preset_frames_match(shape, sound):
    target = default_library().get(sound)
    frame = compute_epg(default_palate(shape), target.contour, target.params, rows=6, cols=9)
    assert render_palatal_ppm(frame) == palatal_ppm(frame)


# pixel-center-aligned coordinates and radii whose squares are (close to)
# sums of two squares put pixel centers exactly on the circle, up to rounding
coords = st.one_of(
    st.floats(-6, 46, allow_nan=False),
    st.integers(-48, 368).map(lambda k: k / 8),
)
radii = st.one_of(
    st.floats(0.01, 16),
    st.integers(1, 256).map(math.sqrt),
    st.integers(1, 128).map(lambda k: k / 8),
    st.just(1.2),
)


def run_pixels(runs) -> list[tuple[int, int]]:
    return [(px, py) for py, a, b in runs for px in range(a, b + 1)]


@settings(max_examples=1500, deadline=None)
@given(cx=coords, cy=coords, r=radii, w=st.integers(1, 40), h=st.integers(1, 40))
@example(cx=10.5, cy=10.5, r=5.0, w=40, h=40)
@example(cx=10.5, cy=10.5, r=math.sqrt(2.0), w=40, h=40)
@example(cx=-3.0, cy=5.0, r=4.0, w=3, h=9)
@example(cx=0.5, cy=0.5, r=1.2, w=1, h=1)
@example(cx=0.5, cy=28.5, r=1.2, w=1, h=57)
@example(cx=41.5, cy=0.5, r=1.2, w=83, h=1)
@example(cx=1.0, cy=1.5, r=1.2, w=2, h=3)
@example(cx=80.0, cy=3.5, r=2.0, w=160, h=7)
def test_disc_runs_match_per_pixel_test(cx, cy, r, w, h):
    runs = _disc_runs(cx, cy, r, w, h)
    assert [py for py, _a, _b in runs] == sorted({py for py, _a, _b in runs})
    assert all(a <= b for _py, a, b in runs)
    assert run_pixels(runs) == disc_pixels(cx, cy, r, w, h)


@pytest.mark.parametrize("n", range(1, 101))
def test_disc_runs_on_integer_circles(n):
    # every pixel center at a distance of exactly sqrt(n) from the center
    r = math.sqrt(n)
    for cx, cy in ((20.5, 20.5), (20.0, 20.5), (20.25, 19.75)):
        assert run_pixels(_disc_runs(cx, cy, r, 41, 41)) == disc_pixels(cx, cy, r, 41, 41)
