from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palatogram import (
    DomainError,
    DomeShape,
    DomeSlice,
    FullContact,
    Intersection,
    NoContact,
    ShapingParams,
    TongueContour,
    classify_slice,
    contact_to_dict,
    default_library,
    default_palate,
    dome_elevation,
    invert_dome,
    surface_contacts,
)
from palatogram.dome import dome_elevations
from palatogram.errors import MAX_MM, MIN_MM
from oracles import bisect_crossings, mesh_contacts, shaped_height


def _flat_row_contact_runs(sl: DomeSlice, u: float, n: int) -> list[tuple[float, float]]:
    # the runs of touching samples, as (first z, last z), of a flat tongue's
    # row sampled at n evenly spaced points over the slice's lateral span
    zs = [sl.z_min + sl.span * k / (n - 1) for k in range(n)]
    us = [shaped_height(ShapingParams(), sl, sl.x, u, z) for z in zs]
    runs: list[tuple[float, float]] = []
    start = None
    for k, (z, t, d) in enumerate(zip(zs, us, dome_elevations(sl, zs))):
        if t >= d and start is None:
            start = z
        if start is not None and (t < d or k == n - 1):
            runs.append((start, z if t >= d else zs[k - 1]))
            start = None
    return runs


def test_invert_cosine_half_height(s0_cosine):
    # arccos(0) = pi/2 so the crossing sits a quarter span in from each edge
    z_left, z_right = invert_dome(s0_cosine, 5.0)
    assert z_left == pytest.approx(-0.5, abs=1e-12)
    assert z_right == pytest.approx(0.5, abs=1e-12)


def test_invert_cosine_quarter_height(s0_cosine):
    z_left, z_right = invert_dome(s0_cosine, 2.5)
    assert z_left == pytest.approx(-2.0 / 3.0, abs=1e-9)
    assert z_right == pytest.approx(2.0 / 3.0, abs=1e-9)
    oracle = bisect_crossings(s0_cosine, 2.5)
    assert z_left == pytest.approx(oracle[0], abs=1e-9)
    assert z_right == pytest.approx(oracle[1], abs=1e-9)


@pytest.mark.parametrize(
    "u, expected",
    [(5.0, math.sqrt(0.75)), (2.5, math.sqrt(1 - 0.0625))],
)
def test_invert_ellipse(s0_ellipse, u, expected):
    z_left, z_right = invert_dome(s0_ellipse, u)
    assert z_right == pytest.approx(expected, abs=1e-12)
    assert z_left == pytest.approx(-expected, abs=1e-12)
    oracle = bisect_crossings(s0_ellipse, u)
    assert z_left == pytest.approx(oracle[0], abs=1e-9)
    assert z_right == pytest.approx(oracle[1], abs=1e-9)


@pytest.mark.parametrize(
    "z_min, z_max",
    [(904.4889105823875, 2757.502158301106), (1.3840774964442453, 1.3840794964442453)],
)
def test_ellipse_crossings_near_the_baseline_stay_on_the_slice(z_min, z_max):
    # z_center - half_width rounds below z_min on these slices
    sl = DomeSlice(x=0.0, z_min=z_min, z_max=z_max, h=5.0, shape=DomeShape.HALF_ELLIPSE)
    assert sl.z_center - sl.half_width < z_min or sl.z_center + sl.half_width > z_max
    for u in (5e-324, 1e-12, 1e-9):
        z_left, z_right = invert_dome(sl, u)
        assert (z_left, z_right) == (z_min, z_max)
        assert dome_elevation(sl, z_left) == dome_elevation(sl, z_right) == 0.0


def test_invert_rejects_boundary(s0_cosine):
    for u in (0.0, -1.0, 10.0, 11.0):
        with pytest.raises(DomainError):
            invert_dome(s0_cosine, u)


def test_classify_cases(s0_cosine):
    assert classify_slice(s0_cosine, -2.0) == NoContact()
    assert classify_slice(s0_cosine, 10.0) == FullContact(z_apex=0.0)
    assert classify_slice(s0_cosine, 12.0) == FullContact(z_apex=0.0)
    assert classify_slice(s0_cosine, 0.0) == NoContact()
    contact = classify_slice(s0_cosine, 5.0)
    assert isinstance(contact, Intersection)
    assert contact.z_left == pytest.approx(-0.5, abs=1e-12)
    assert contact.z_right == pytest.approx(0.5, abs=1e-12)


def test_classify_rejects_non_finite(s0_cosine):
    with pytest.raises(DomainError):
        classify_slice(s0_cosine, float("nan"))


slice_strategy = st.builds(
    lambda z0, width, h, shape: DomeSlice(
        x=0.0, z_min=z0, z_max=z0 + width, h=h, shape=shape
    ),
    z0=st.floats(-30, 10),
    width=st.floats(1.0, 40),
    h=st.floats(1.0, 25),
    shape=st.sampled_from(list(DomeShape)),
)


# fractions below ~1e-3 hit the representation limit of an absolute z near
# the ellipse's vertical edge tangent; the u->0 limit is covered separately
@settings(max_examples=100, deadline=None)
@given(sl=slice_strategy, frac=st.floats(1e-3, 1.0 - 1e-3))
def test_round_trip_and_symmetry(sl, frac):
    u = frac * sl.h
    z_left, z_right = invert_dome(sl, u)
    assert sl.z_min < z_left < sl.z_center < z_right < sl.z_max
    assert abs(dome_elevation(sl, z_left) - u) < 1e-9
    assert abs(dome_elevation(sl, z_right) - u) < 1e-9
    assert abs((z_left + z_right) - (sl.z_min + sl.z_max)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(sl=slice_strategy, f1=st.floats(0.01, 0.98), gap=st.floats(0.005, 0.5))
def test_inward_monotonicity(sl, f1, gap):
    u1 = f1 * sl.h
    u2 = min(f1 + gap, 0.999) * sl.h
    if u2 <= u1:
        return
    left1, _ = invert_dome(sl, u1)
    left2, _ = invert_dome(sl, u2)
    assert left1 < left2


@pytest.mark.parametrize("shape", list(DomeShape))
def test_limit_continuity(shape):
    # down to the least u above 0 and up to the greatest below h, at the
    # least and greatest heights a slice may have too
    for h in (MIN_MM, 10.0, MAX_MM):
        sl = DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=h, shape=shape)
        for u in (5e-324, 1e-9 * sl.h):
            z_left, z_right = invert_dome(sl, u)
            assert abs(z_left - sl.z_min) < 1e-3 * sl.span
        for u in ((1.0 - 1e-9) * sl.h, math.nextafter(sl.h, 0.0)):
            z_left, z_right = invert_dome(sl, u)
            assert abs(z_left - sl.z_center) < 1e-3 * sl.span
            assert abs(z_right - sl.z_center) < 1e-3 * sl.span


def test_model_comparison_offsets():
    # the cosine dome flares wider at the base, so its crossing sits farther
    # in from the edge than the half-ellipse's at every interior height
    for k in range(1, 100):
        r = k / 100.0
        cosine_off = math.acos(1.0 - 2.0 * r) / (2.0 * math.pi)
        ellipse_off = 0.5 * (1.0 - math.sqrt(1.0 - r * r))
        assert cosine_off > ellipse_off


def test_contact_intervals_constant_profiles(s0_cosine):
    # below the baseline nothing touches; above the apex the whole row does
    assert _flat_row_contact_runs(s0_cosine, -2.0, 256) == []
    assert _flat_row_contact_runs(s0_cosine, 12.0, 256) == [(-1.0, 1.0)]


def test_contact_intervals_match_inversion(s0_cosine):
    # a flat row between baseline and apex touches in two edge runs that end
    # at invert_dome's crossings, to within one sample step
    step = 2.0 / 4095
    intervals = _flat_row_contact_runs(s0_cosine, 5.0, 4096)
    assert len(intervals) == 2
    (a0, a1), (b0, b1) = intervals
    z_left, z_right = invert_dome(s0_cosine, 5.0)
    assert a0 == -1.0 and b1 == 1.0
    assert a1 == pytest.approx(z_left, abs=step)
    assert b0 == pytest.approx(z_right, abs=step)


def test_contact_serialization(s0_cosine):
    assert contact_to_dict(NoContact()) == {"case": "none"}
    assert contact_to_dict(FullContact(z_apex=0.25)) == {"case": "full", "z_apex": 0.25}
    doc = contact_to_dict(classify_slice(s0_cosine, 5.0))
    assert doc["case"] == "intersection"
    assert doc["z_left"] == pytest.approx(-0.5)
    assert doc["z_right"] == pytest.approx(0.5)


# the presets' contours, and one over the middle of the palate's x 0-40
PARTIAL = TongueContour(points=((10.0, 4.0), (16.0, 9.5), (22.0, 12.0), (30.0, 6.0)))
MESH_CONTOURS = [t.contour for t in default_library()] + [PARTIAL]


@pytest.mark.parametrize("shape", list(DomeShape))
@pytest.mark.parametrize("nx", [1, 2, 40, 96])
def test_surface_contacts_match_the_per_row_loop(shape, nx):
    geometry = default_palate(shape)
    for contour in MESH_CONTOURS:
        got = surface_contacts(geometry, contour, nx)
        # repr round-trips floats exactly and tells -0.0 from 0.0
        assert list(map(repr, got)) == list(map(repr, mesh_contacts(geometry, contour, nx)))

