from __future__ import annotations

import gc
import hashlib
import math
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palatogram import (
    DomainError,
    DomeShape,
    DomeSlice,
    EPGFrame,
    FullContact,
    Intersection,
    NoContact,
    classify_slice,
    compute_epg,
    default_library,
    default_palate,
    export_obj,
    render_coronal_svg,
    render_palatal_ppm,
    render_palatal_svg,
)
from palatogram import render
from palatogram.render import CONTACT_COLOR, NO_CONTACT_COLOR, WIDTH, fmt
from conftest import s0_geometry

GOLDEN = Path(__file__).parent / "golden"
SVG_NS = "{http://www.w3.org/2000/svg}"


def uniform_frame(value: bool, rows: int = 8, cols: int = 8) -> EPGFrame:
    return EPGFrame(
        cells=tuple(tuple([value] * cols) for _ in range(rows)),
        x_of_row=tuple(float(i) for i in range(rows)),
    )


def circles(svg: bytes):
    return ET.fromstring(svg.decode("utf-8")).iter(f"{SVG_NS}circle")


@pytest.mark.parametrize(
    "value, text",
    [(1.0, "1.000"), (2.71828, "2.718"), (-3.14159, "-3.142"), (-0.0, "0.000"),
     (-0.0004, "0.000"), (-0.0005, "-0.001"), (0.0004, "0.000"), (12345.6789, "12345.679")],
)
def test_fmt_three_decimals_without_negative_zero(value, text):
    assert fmt(value) == text


@pytest.mark.parametrize("value, expected_contact", [(False, 0), (True, 64)])
def test_palatal_dot_counts(value, expected_contact):
    svg = render_palatal_svg(uniform_frame(value))
    dots = list(circles(svg))
    assert len(dots) == 64
    contact = [c for c in dots if c.get("fill") == CONTACT_COLOR]
    assert len(contact) == expected_contact


def test_palatal_svg_well_formed():
    svg = render_palatal_svg(uniform_frame(False))
    root = ET.fromstring(svg.decode("utf-8"))
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("width") and root.get("height") and root.get("viewBox")


def test_palatal_determinism():
    target = default_library().get("s")
    frame = compute_epg(default_palate(), target.contour, target.params)
    a = render_palatal_svg(frame)
    b = render_palatal_svg(frame)
    assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()


def test_palatal_golden_t_preset():
    target = default_library().get("t")
    frame = compute_epg(default_palate(DomeShape.COSINE), target.contour, target.params)
    svg = render_palatal_svg(frame)
    assert svg == (GOLDEN / "t_palatal.svg").read_bytes()


def test_palatal_dot_fills_match_frame():
    target = default_library().get("t")
    frame = compute_epg(default_palate(DomeShape.COSINE), target.contour, target.params)
    fills = [c.get("fill") for c in circles(render_palatal_svg(frame))]
    expected = [
        CONTACT_COLOR if cell else NO_CONTACT_COLOR
        for row in frame.cells
        for cell in row
    ]
    assert fills == expected


@pytest.fixture
def slice_s0() -> DomeSlice:
    return DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=10.0, shape=DomeShape.COSINE)


def test_coronal_intersection_markers(slice_s0):
    svg = render_coronal_svg(slice_s0, 5.0)
    root = ET.fromstring(svg.decode("utf-8"))
    crosses = [e for e in root.iter(f"{SVG_NS}line") if e.get("stroke") == CONTACT_COLOR]
    assert len(crosses) == 4  # two X markers, two strokes each
    # the two crosses sit symmetrically about the canvas midline
    mids = sorted(
        0.5 * (float(e.get("x1")) + float(e.get("x2"))) for e in crosses
    )
    assert mids[0] == pytest.approx(WIDTH - mids[-1], abs=0.01)
    polylines = list(root.iter(f"{SVG_NS}polyline"))
    assert len(polylines) == 1
    assert len(polylines[0].get("points").split()) == 256


def test_coronal_no_contact_markers(slice_s0):
    svg = render_coronal_svg(slice_s0, -2.0)
    root = ET.fromstring(svg.decode("utf-8"))
    yellow = [e for e in root.iter(f"{SVG_NS}circle") if e.get("fill") == NO_CONTACT_COLOR]
    assert len(yellow) == 2
    red_lines = [e for e in root.iter(f"{SVG_NS}line") if e.get("stroke") == CONTACT_COLOR]
    assert not red_lines


def test_coronal_full_contact_marker(slice_s0):
    svg = render_coronal_svg(slice_s0, 10.0)
    root = ET.fromstring(svg.decode("utf-8"))
    apex = [e for e in root.iter(f"{SVG_NS}circle") if e.get("fill") == CONTACT_COLOR]
    assert len(apex) == 1
    assert float(apex[0].get("cx")) == pytest.approx(WIDTH / 2, abs=0.01)


def test_coronal_determinism(slice_s0):
    assert render_coronal_svg(slice_s0, 4.2) == render_coronal_svg(slice_s0, 4.2)


@settings(max_examples=200, deadline=None)
@given(
    sl=st.builds(
        lambda z_min, width, h, shape: DomeSlice(
            x=0.0, z_min=z_min, z_max=z_min + width, h=h, shape=shape
        ),
        z_min=st.floats(-30.0, 5.0),
        width=st.floats(0.5, 40.0),
        h=st.floats(0.5, 25.0),
        shape=st.sampled_from(list(DomeShape)),
    ),
    where=st.sampled_from(["below 0", "inside", "at or above h"]),
    data=st.data(),
)
def test_coronal_matches_per_point_emitter(sl, where, data):
    # u below the occlusal plane (no contact), inside (0, h) (two crossings)
    # and at or above the apex (full contact), each on both dome shapes
    if where == "below 0":
        u = data.draw(st.floats(-50.0, 0.0, exclude_max=True))
    elif where == "inside":
        u = sl.h * data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    else:
        u = sl.h + data.draw(st.floats(0.0, 50.0))
    assert render_coronal_svg(sl, u) == oracles.render_coronal_svg(sl, u)


def parse_obj(data: bytes):
    vertices, faces, groups = [], [], []
    for line in data.decode("utf-8").splitlines():
        if line.startswith("v "):
            vertices.append(tuple(float(v) for v in line.split()[1:]))
        elif line.startswith("f "):
            faces.append(tuple(int(v) for v in line.split()[1:]))
        elif line.startswith("g "):
            groups.append(line.split(maxsplit=1)[1])
    return vertices, faces, groups


def test_obj_single_quad():
    data = export_obj(s0_geometry(DomeShape.COSINE), 1, 1)
    vertices, faces, _ = parse_obj(data)
    assert len(vertices) == 4
    assert len(faces) == 2


def test_obj_counts_and_round_trip(two_slice_geometry):
    data = export_obj(two_slice_geometry, 4, 8)
    vertices, faces, groups = parse_obj(data)
    assert len(vertices) == 45
    assert len(faces) == 64
    assert groups == ["palate"]
    for face in faces:
        assert len(face) == 3
        assert all(1 <= idx <= len(vertices) for idx in face)


def triangle_area(p0, p1, p2) -> float:
    ux, uy, uz = (p1[i] - p0[i] for i in range(3))
    vx, vy, vz = (p2[i] - p0[i] for i in range(3))
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return 0.5 * math.sqrt(cx * cx + cy * cy + cz * cz)


@pytest.mark.parametrize("shape", list(DomeShape))
def test_obj_no_degenerate_triangles(shape):
    geometry = default_palate(shape)
    data = export_obj(geometry, 6, 5)
    vertices, faces, _ = parse_obj(data)
    for face in faces:
        p0, p1, p2 = (vertices[i - 1] for i in face)
        assert triangle_area(p0, p1, p2) > 1e-9


def test_obj_contact_marker_groups(two_slice_geometry):
    contacts = [
        classify_slice(two_slice_geometry.slices[0], u) for u in (-1.0, 2.0, 20.0, 2.0, -1.0)
    ]
    data = export_obj(two_slice_geometry, 4, 4, contacts)
    vertices, faces, groups = parse_obj(data)
    assert groups == ["palate", "no_contact", "intersection", "full_contact",
                      "intersection", "no_contact"]
    assert len(faces) == 32
    # surface vertices plus 2+2+1+2+2 marker vertices
    assert len(vertices) == 25 + 9


def test_obj_marker_positions(two_slice_geometry):
    sl = two_slice_geometry.slices[0]
    contact = classify_slice(sl, 2.0)
    assert isinstance(contact, Intersection)
    data = export_obj(two_slice_geometry, 1, 2, [contact, NoContact()])
    vertices, _, _ = parse_obj(data)
    marker_left = vertices[6]
    assert marker_left[0] == pytest.approx(sl.x)
    assert marker_left[1] == pytest.approx(2.0, abs=1e-6)
    assert marker_left[2] == pytest.approx(contact.z_left, abs=1e-6)


def test_obj_rejects_bad_contacts_length(two_slice_geometry):
    with pytest.raises(DomainError):
        export_obj(two_slice_geometry, 3, 3, [NoContact()] * 3)


def test_obj_determinism(two_slice_geometry):
    assert export_obj(two_slice_geometry, 5, 5) == export_obj(two_slice_geometry, 5, 5)


def test_ppm_header_and_determinism():
    frame = uniform_frame(True, rows=4, cols=4)
    data = render_palatal_ppm(frame)
    assert data.startswith(b"P6\n420 480\n255\n")
    header_len = len(b"P6\n420 480\n255\n")
    assert len(data) == header_len + 420 * 480 * 3
    assert data == render_palatal_ppm(frame)


def test_ppm_outline_is_painted_once(monkeypatch):
    # 3 x 161 outline discs on the first render only, one disc per cell on
    # the first render of each lattice, and none on a lattice seen before
    calls = []
    disc_runs = render._disc_runs
    monkeypatch.setattr(render, "_disc_runs", lambda *args: calls.append(args) or disc_runs(*args))
    render._outlined_canvas.cache_clear()
    render._palatal_ppm_dots.cache_clear()
    frame = uniform_frame(True, rows=3, cols=5)
    first = render_palatal_ppm(frame)
    assert len(calls) == 483 + 15
    assert render_palatal_ppm(uniform_frame(False, rows=3, cols=5)) != first
    assert render_palatal_ppm(frame) == first
    assert len(calls) == 483 + 15
    render_palatal_ppm(uniform_frame(True, rows=4, cols=6))
    assert len(calls) == 483 + 15 + 24


def test_render_caches_keep_no_large_lattice():
    # a lattice past the cache bound is drawn without being kept; before the
    # bound, the SVG and PPM of the smallest such lattice left 0.2 MB behind
    # and those of a 512 x 512 one 50 MB, which takes about 12 s to render
    # under tracemalloc
    small = uniform_frame(True, rows=4, cols=4)
    render_palatal_svg(small)
    render_palatal_ppm(small)  # the outlined canvas is kept for every lattice
    side = math.isqrt(render._CACHED_DOT_CELLS) + 1
    frame = uniform_frame(True, side, side)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert render_palatal_svg(frame).count(b"<circle ") == side * side
        assert len(render_palatal_ppm(frame)) == len(b"P6\n420 480\n255\n") + 420 * 480 * 3
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024


def test_uncached_ppm_holds_one_row_of_layout():
    # past the cache bound the dot centers are made a row at a time as they
    # are painted: beyond the painted canvas and the bytes returned, a 96 x 96
    # PPM peaked 0.2 MB higher when every center was made before the first dot
    render_palatal_ppm(uniform_frame(True, rows=4, cols=4))  # the outlined canvas is kept
    frame = uniform_frame(True, 96, 96)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = render_palatal_ppm(frame)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - 2 * len(data) < 64 * 1024


def test_uncached_svg_holds_one_band_of_dots():
    # past the cache bound the SVG is written a band of rows at a time: beyond
    # the bytes returned, a 128 x 128 SVG peaked 0.3 MB higher, and 2.8 MB
    # when it joined one string per dot and then encoded the document
    render_palatal_svg(uniform_frame(True, rows=4, cols=4))
    frame = uniform_frame(True, 128, 128)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = render_palatal_svg(frame)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert data.count(b"<circle ") == 128 * 128
    assert peak - len(data) < 512 * 1024


def test_ppm_contains_contact_color():
    data = render_palatal_ppm(uniform_frame(True, 2, 2))
    assert bytes((0xCC, 0x22, 0x22)) in data


def test_full_contact_marker_dataclass():
    assert FullContact(z_apex=1.0).z_apex == 1.0
