from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

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


def test_ppm_contains_contact_color():
    data = render_palatal_ppm(uniform_frame(True, 2, 2))
    assert bytes((0xCC, 0x22, 0x22)) in data


def test_full_contact_marker_dataclass():
    assert FullContact(z_apex=1.0).z_apex == 1.0
