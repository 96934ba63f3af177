"""The scanline-run PPM painter against the per-pixel painter in oracles.py.

render_palatal_ppm writes each disc row as one run; the bytes must equal
those of the painter that tests every pixel of the disc's bounding box,
on any frame and any canvas, including canvases so small that the discs
are clipped at the border. The runs of single discs are checked on their
own too, with centers and radii that put pixel centers on or within an ulp
of the circle.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palatogram import (
    DomeShape,
    EPGFrame,
    RenderStyle,
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


colors = st.integers(0, 0xFFFFFF).map(lambda v: f"#{v:06x}")

styles = st.builds(
    RenderStyle,
    width=st.one_of(st.integers(1, 8), st.integers(1, 160)),
    height=st.one_of(st.integers(1, 8), st.integers(1, 160)),
    contact_color=colors,
    no_contact_color=colors,
    outline_color=colors,
)

CHECKER = EPGFrame(
    cells=((True, False, True, False), (False, True, False, True), (True, True, False, False)),
    x_of_row=(0.0, 1.0, 2.0),
)


@settings(max_examples=200, deadline=None)
@given(frame=frames(), style=styles)
@example(frame=CHECKER, style=RenderStyle(width=1, height=1))
@example(frame=CHECKER, style=RenderStyle(width=1, height=57))
@example(frame=CHECKER, style=RenderStyle(width=83, height=1))
@example(frame=CHECKER, style=RenderStyle(width=2, height=3))
@example(frame=CHECKER, style=RenderStyle(width=160, height=7))
@example(frame=CHECKER, style=RenderStyle())
def test_ppm_matches_per_pixel_painter(frame, style):
    assert render_palatal_ppm(frame, style) == palatal_ppm(frame, style)


@pytest.mark.parametrize("width", range(1, 13))
def test_ppm_tiny_canvases_match(width):
    for height in range(1, 13):
        style = RenderStyle(width=width, height=height)
        assert render_palatal_ppm(CHECKER, style) == palatal_ppm(CHECKER, style)


@pytest.mark.parametrize("shape", list(DomeShape))
@pytest.mark.parametrize("sound", ["t", "s", "k"])
def test_ppm_preset_frames_match(shape, sound):
    target = default_library().get(sound)
    frame = compute_epg(default_palate(shape), target.contour, target.params, rows=6, cols=9)
    assert render_palatal_ppm(frame) == palatal_ppm(frame, RenderStyle())


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
