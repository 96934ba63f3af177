"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import time
import xml.etree.ElementTree as ET

from palatogram import (
    DomeShape,
    DomeSlice,
    FullContact,
    Intersection,
    NoContact,
    ShapingParams,
    TongueContour,
    classify_slice,
    compute_epg,
    default_library,
    default_palate,
    dome_elevation,
    epg_text,
    export_obj,
    invert_dome,
    render_coronal_svg,
    render_palatal_svg,
    slice_at,
)
from palatogram.shaping import midsagittal_height
from oracles import bisect_crossings, shaped_height
from patterns import PATTERN_CHECKS


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [{label}]: FAIL")
                raise
            print(f"criterion {number} [{label}]: PASS")

        return wrapper

    return decorate


def random_slice(rng: random.Random, shape: DomeShape) -> DomeSlice:
    z0 = rng.uniform(-30.0, 10.0)
    width = rng.uniform(1.0, 40.0)
    return DomeSlice(
        x=0.0, z_min=z0, z_max=z0 + width, h=rng.uniform(1.0, 25.0), shape=shape
    )


@criterion(1, "analytic inversion vs bisection oracle, 1000 cases per model")
def test_criterion_1_inversion_oracle():
    rng = random.Random(20240801)
    start = time.perf_counter()
    for shape in DomeShape:
        for _ in range(1000):
            sl = random_slice(rng, shape)
            u = rng.uniform(1e-6, 1.0 - 1e-6) * sl.h
            z_left, z_right = invert_dome(sl, u)
            oracle_left, oracle_right = bisect_crossings(sl, u)
            assert abs(z_left - oracle_left) < 1e-9
            assert abs(z_right - oracle_right) < 1e-9
            assert abs(dome_elevation(sl, z_left) - u) < 1e-9
            assert abs(dome_elevation(sl, z_right) - u) < 1e-9
    assert time.perf_counter() - start < 1.0


@criterion(2, "closed-form spot checks at half height")
def test_criterion_2_closed_form():
    cosine = DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=10.0, shape=DomeShape.COSINE)
    # arccos(0) = pi/2, so the crossings sit a quarter span in from each edge
    z_left, z_right = invert_dome(cosine, 5.0)
    assert z_left == -0.5
    assert z_right == 0.5
    ellipse = DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=10.0, shape=DomeShape.HALF_ELLIPSE)
    z_left, z_right = invert_dome(ellipse, 5.0)
    assert abs(z_right - math.sqrt(0.75)) < 1e-12
    assert abs(z_left + math.sqrt(0.75)) < 1e-12


@criterion(3, "three-case classification, boundaries, and limits")
def test_criterion_3_classification():
    rng = random.Random(7)
    for shape in DomeShape:
        for _ in range(200):
            sl = random_slice(rng, shape)
            assert classify_slice(sl, 0.0) == NoContact()
            assert classify_slice(sl, -rng.uniform(0, 5)) == NoContact()
            assert classify_slice(sl, sl.h) == FullContact(z_apex=sl.z_center)
            assert classify_slice(sl, sl.h * 1.5) == FullContact(z_apex=sl.z_center)
            contact = classify_slice(sl, rng.uniform(1e-3, 1 - 1e-3) * sl.h)
            assert isinstance(contact, Intersection)
            total = contact.z_left + contact.z_right
            assert abs(total - (sl.z_min + sl.z_max)) < 1e-12
        sl = DomeSlice(x=0.0, z_min=-2.0, z_max=4.0, h=12.0, shape=shape)
        low = classify_slice(sl, 1e-9 * sl.h)
        assert isinstance(low, Intersection)
        assert abs(low.z_left - sl.z_min) < 1e-3 * sl.span
        assert abs(low.z_right - sl.z_max) < 1e-3 * sl.span
        high = classify_slice(sl, (1.0 - 1e-9) * sl.h)
        assert isinstance(high, Intersection)
        assert abs(high.z_left - sl.z_center) < 1e-3 * sl.span
        assert abs(high.z_right - sl.z_center) < 1e-3 * sl.span


@criterion(4, "cosine offset dominates ellipse offset across heights")
def test_criterion_4_model_comparison():
    span = 12.0
    for k in range(1, 100):
        r = k / 100.0
        cosine_offset = math.acos(1.0 - 2.0 * r) / (2.0 * math.pi) * span
        ellipse_offset = 0.5 * span * (1.0 - math.sqrt(1.0 - r * r))
        assert cosine_offset > ellipse_offset
    sl_cos = DomeSlice(x=0.0, z_min=-6.0, z_max=6.0, h=9.0, shape=DomeShape.COSINE)
    sl_ell = DomeSlice(x=0.0, z_min=-6.0, z_max=6.0, h=9.0, shape=DomeShape.HALF_ELLIPSE)
    for k in range(1, 100):
        u = sl_cos.h * k / 100.0
        assert invert_dome(sl_cos, u)[0] > invert_dome(sl_ell, u)[0]


@criterion(5, "figure-structure suite: 12 presets under both dome models")
def test_criterion_5_figure_structure():
    start = time.perf_counter()
    library = default_library()
    assert len(library) == 12
    failures = []
    for shape in DomeShape:
        geometry = default_palate(shape)
        for name, check in PATTERN_CHECKS.items():
            target = library.get(name)
            frame = compute_epg(geometry, target.contour, target.params, rows=8, cols=8)
            failures += [f"{shape.value}: {m}" for m in check(frame)]
        for target in library:  # every preset rasterizes under both models
            compute_epg(geometry, target.contour, target.params, rows=8, cols=8)
    assert not failures, "\n".join(failures)
    assert time.perf_counter() - start < 1.0


MOLAR_REGION = (24.0, 36.0)


def molar_edges_sealed(shape: DomeShape, tth: float) -> bool:
    geometry = default_palate(shape)
    target = default_library().get("t")
    params = ShapingParams(
        **{
            **{f: getattr(target.params, f) for f in (
                "tt_manner", "td_manner", "edge_elev_max", "posterior_onset_x",
                "groove_enabled", "groove_width", "groove_depth",
                "lateral_lower_enabled", "lateral_lower_width", "lateral_lower_depth",
            )},
            "tth": tth,
        }
    )
    for k in range(25):
        x = MOLAR_REGION[0] + (MOLAR_REGION[1] - MOLAR_REGION[0]) * k / 24
        sl = slice_at(geometry, x)
        eps = 0.05 * sl.half_width
        u_mid = midsagittal_height(target.contour, x)
        for z in (sl.z_min + eps, sl.z_max - eps):
            if shaped_height(params, sl, x, u_mid, z) < dome_elevation(sl, z):
                return False
    return True


@criterion(6, "molar edge seal scales with tip height control")
def test_criterion_6_edge_seal():
    for shape in DomeShape:
        assert molar_edges_sealed(shape, tth=1.0)
        assert not molar_edges_sealed(shape, tth=0.0)


@criterion(7, "deterministic byte-identical output and valid formats")
def test_criterion_7_determinism_and_formats():
    geometry = default_palate(DomeShape.COSINE)
    library = default_library()
    for name in ("t", "s", "i:"):
        target = library.get(name)
        frame = compute_epg(geometry, target.contour, target.params)
        svg_a, svg_b = render_palatal_svg(frame), render_palatal_svg(frame)
        assert hashlib.sha256(svg_a).digest() == hashlib.sha256(svg_b).digest()
        ET.fromstring(svg_a.decode("utf-8"))
        assert epg_text(frame) == epg_text(frame)
    sl = slice_at(geometry, 12.0)
    assert render_coronal_svg(sl, 3.0) == render_coronal_svg(sl, 3.0)
    ET.fromstring(render_coronal_svg(sl, 3.0).decode("utf-8"))
    cases = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 5), (4, 8), (5, 3), (8, 8), (10, 6), (12, 4)]
    for nx, nz in cases:
        data = export_obj(geometry, nx, nz)
        assert data == export_obj(geometry, nx, nz)
        lines = data.decode("utf-8").splitlines()
        n_vertices = sum(1 for l in lines if l.startswith("v "))
        n_faces = sum(1 for l in lines if l.startswith("f "))
        assert n_vertices == (nx + 1) * (nz + 1)
        assert n_faces == 2 * nx * nz


@criterion(8, "raster columns equal the analytic interval complement exactly")
def test_criterion_8_epg_solver_consistency():
    for shape in DomeShape:
        geometry = default_palate(shape)
        for u in (-1.0, 1.7, 5.0, 9.1, 11.0, 13.0):
            contour = TongueContour(points=((geometry.x_min, u), (geometry.x_max, u)))
            for cols in (4, 8, 16, 64):
                frame = compute_epg(geometry, contour, ShapingParams(), rows=8, cols=cols)
                for i, x in enumerate(frame.x_of_row):
                    sl = slice_at(geometry, x)
                    contact = classify_slice(sl, u)
                    for j, f in enumerate(frame.z_frac_of_col):
                        z = sl.z_center + (f - 0.5) * sl.span
                        if isinstance(contact, NoContact):
                            expected = False
                        elif isinstance(contact, FullContact):
                            expected = True
                        else:
                            expected = z <= contact.z_left or z >= contact.z_right
                        assert frame.cells[i][j] == expected
