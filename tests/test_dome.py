from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palatogram import (
    ConfigError,
    DomainError,
    DomeShape,
    DomeSlice,
    PalateGeometry,
    default_palate,
    dome_elevation,
    palate_from_dict,
    sample_surface,
    slice_at,
    with_shape,
)
from palatogram.dome import MAX_SURFACE_STEPS, surface_xs
from palatogram.errors import MIN_HALF_WIDTH_MM
from conftest import s0_geometry
from oracles import bisect_ellipse_elevation


def test_cosine_spot_values(s0_cosine):
    assert dome_elevation(s0_cosine, -1.0) == pytest.approx(0.0, abs=1e-12)
    assert dome_elevation(s0_cosine, 0.0) == pytest.approx(10.0, abs=1e-12)
    assert dome_elevation(s0_cosine, -0.5) == pytest.approx(5.0, abs=1e-12)


def test_ellipse_spot_value_matches_implicit_oracle(s0_ellipse):
    expected = 10.0 * math.sqrt(0.75)
    got = dome_elevation(s0_ellipse, 0.5)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(bisect_ellipse_elevation(s0_ellipse, 0.5), abs=1e-9)


def test_elevation_rejects_out_of_span(s0_cosine):
    with pytest.raises(DomainError, match="x=0"):
        dome_elevation(s0_cosine, 1.5)


slice_strategy = st.builds(
    lambda z0, width, h, shape: DomeSlice(
        x=0.0, z_min=z0, z_max=z0 + width, h=h, shape=shape
    ),
    z0=st.floats(-50, 50),
    width=st.floats(0.5, 80),
    h=st.floats(0.5, 40),
    shape=st.sampled_from(list(DomeShape)),
)


@settings(max_examples=80, deadline=None)
@given(sl=slice_strategy)
def test_edge_zero_and_apex(sl):
    assert abs(dome_elevation(sl, sl.z_min)) < 1e-12
    assert abs(dome_elevation(sl, sl.z_max)) < 1e-12
    assert abs(dome_elevation(sl, sl.z_center) - sl.h) < 1e-12


def on_grid(v: float, bits: int) -> float:
    return round(v * 2**bits) / 2**bits


# The slice ends are moved onto a 2**-10 grid and the offset d onto 2**-31,
# so z_center and both mirrored points z_center -/+ d are exact. Rounded
# mirror points are not: at the half-ellipse's vertical edge tangent a
# one-ulp shift of z moves the dome by about h * sqrt(2 * ulp / half_width).
@settings(max_examples=80, deadline=None)
@given(sl=slice_strategy, frac=st.floats(0.0, 1.0))
@example(
    sl=DomeSlice(x=0.0, z_min=16.0, z_max=16.99999, h=1.0, shape=DomeShape.HALF_ELLIPSE),
    frac=1.0,
)
def test_mirror_symmetry_and_bounds(sl, frac):
    sl = DomeSlice(
        x=0.0, z_min=on_grid(sl.z_min, 10), z_max=on_grid(sl.z_max, 10), h=sl.h, shape=sl.shape
    )
    d = sl.half_width * on_grid(frac, 20)
    left = dome_elevation(sl, sl.z_center - d)
    right = dome_elevation(sl, sl.z_center + d)
    assert abs(left - right) < 1e-12
    assert -1e-12 <= left <= sl.h + 1e-12


@pytest.mark.parametrize("shape", list(DomeShape))
def test_monotone_left_flank(shape):
    sl = DomeSlice(x=0.0, z_min=-3.0, z_max=5.0, h=12.0, shape=shape)
    previous = -1.0
    for k in range(1000):
        z = sl.z_min + (sl.z_center - sl.z_min) * k / 999
        u = dome_elevation(sl, z)
        assert u >= previous - 1e-12
        previous = u


def test_slice_validation():
    with pytest.raises(DomainError):
        DomeSlice(x=0.0, z_min=1.0, z_max=-1.0, h=5.0)
    with pytest.raises(DomainError):
        DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=0.0)
    # finite ends whose span or center would overflow a float lie past MAX_MM
    for z_min, z_max in ((-1e308, 1e308), (1.7e308, 1.75e308), (-(10**308), 10**308)):
        with pytest.raises(DomainError, match=r"must be finite and at most 1e\+06 in magnitude"):
            DomeSlice(x=0.0, z_min=z_min, z_max=z_max, h=1.0)


@pytest.mark.parametrize("shape", list(DomeShape))
def test_slice_half_width_has_a_floor(shape):
    # a half-ellipse 1e-200 wide used to read 0.0 at its midline, where
    # classify_slice found an intersection
    narrowest = DomeSlice(x=0.0, z_min=0.0, z_max=2 * MIN_HALF_WIDTH_MM, h=5.0, shape=shape)
    assert dome_elevation(narrowest, MIN_HALF_WIDTH_MM) == 5.0
    for z_max in (1e-200, 5e-324, 1.999e-6):
        with pytest.raises(DomainError, match=r"half width of \[0\.0, .*\] must be at least 1e-06"):
            DomeSlice(x=0.0, z_min=0.0, z_max=z_max, h=5.0, shape=shape)


def test_geometry_validation(s0_cosine):
    with pytest.raises(DomainError):
        PalateGeometry(slices=(s0_cosine,))
    other = DomeSlice(x=0.0, z_min=-2.0, z_max=2.0, h=4.0)
    with pytest.raises(DomainError):
        PalateGeometry(slices=(s0_cosine, other))
    ellipse = DomeSlice(x=5.0, z_min=-1.0, z_max=1.0, h=4.0, shape=DomeShape.HALF_ELLIPSE)
    with pytest.raises(DomainError, match="one dome shape"):
        PalateGeometry(slices=(s0_cosine, ellipse))


@pytest.mark.parametrize("shape", list(DomeShape))
def test_geometry_shape_is_its_slices_shape(shape):
    geometry = s0_geometry(shape)
    assert geometry.shape is shape
    assert slice_at(geometry, 2.5).shape is shape  # an interpolated slice
    with pytest.raises(AttributeError):
        geometry.shape = shape


def test_slice_at_interpolation(two_slice_geometry):
    assert slice_at(two_slice_geometry, 0.0).h == 8.0
    assert slice_at(two_slice_geometry, 5.0).h == pytest.approx(10.0)
    assert slice_at(two_slice_geometry, 7.5).h == pytest.approx(11.0)


def test_slice_at_exact_match_returns_stored(two_slice_geometry):
    assert slice_at(two_slice_geometry, 10.0) is two_slice_geometry.slices[1]
    with pytest.raises(DomainError):
        slice_at(two_slice_geometry, 10.1)


def test_sample_surface_corners(two_slice_geometry):
    grid = sample_surface(two_slice_geometry, 1, 1)
    points = [p for row in grid for p in row]
    assert len(points) == 4
    assert all(y == pytest.approx(0.0, abs=1e-12) for _x, y, _z in points)


def test_sample_surface_center_apex():
    from conftest import s0_geometry

    grid = sample_surface(s0_geometry(DomeShape.COSINE), 2, 2)
    assert grid[1][1][1] == pytest.approx(10.0, abs=1e-12)


def test_sample_surface_exhaustive(two_slice_geometry):
    grid = sample_surface(two_slice_geometry, 4, 8)
    points = [p for row in grid for p in row]
    assert len(points) == 45
    best_x, best_y, best_z = max(points, key=lambda p: p[1])
    assert best_y == pytest.approx(12.0, abs=1e-12)
    assert (best_x, best_z) == (10.0, 0.0)
    for row in grid:
        sl = slice_at(two_slice_geometry, row[0][0])
        for x, y, z in row:
            assert x == sl.x
            assert y == pytest.approx(dome_elevation(sl, z), abs=1e-12)


def test_sample_surface_points_are_float_tuples(two_slice_geometry):
    grid = sample_surface(two_slice_geometry, 2, 3)
    assert [len(row) for row in grid] == [4, 4, 4]
    for row in grid:
        for point in row:
            assert type(point) is tuple and len(point) == 3
            assert all(type(c) is float for c in point)


def test_sample_surface_rejects_bad_counts(two_slice_geometry):
    with pytest.raises(DomainError):
        sample_surface(two_slice_geometry, 0, 4)
    with pytest.raises(DomainError):
        sample_surface(two_slice_geometry, 4, 0)


def test_surface_xs(two_slice_geometry):
    assert surface_xs(two_slice_geometry, 1) == [0.0, 10.0]
    assert surface_xs(two_slice_geometry, 4) == [0.0, 2.5, 5.0, 7.5, 10.0]
    grid = sample_surface(two_slice_geometry, 3, 2)
    assert [row[0][0] for row in grid] == surface_xs(two_slice_geometry, 3)
    for nx in (0, -1):
        with pytest.raises(DomainError, match="nx"):
            surface_xs(two_slice_geometry, nx)


VALID_CONFIG = {
    "shape": "cosine",
    "slices": [
        {"x": 0, "z_min": -1, "z_max": 1, "h": 4},
        {"x": 10, "z_min": -2, "z_max": 2, "h": 6},
    ],
}


def test_palate_config_roundtrip():
    geometry = palate_from_dict(VALID_CONFIG)
    assert geometry.shape is DomeShape.COSINE
    assert [s.h for s in geometry.slices] == [4.0, 6.0]


def test_palate_config_rejects_unknown_keys():
    bad = dict(VALID_CONFIG, extra=1)
    with pytest.raises(ConfigError, match="extra"):
        palate_from_dict(bad)
    bad_slice = {
        "shape": "half_ellipse",
        "slices": [{"x": 0, "z_min": -1, "z_max": 1, "h": 4, "tilt": 2},
                   {"x": 1, "z_min": -1, "z_max": 1, "h": 4}],
    }
    with pytest.raises(ConfigError, match="tilt"):
        palate_from_dict(bad_slice)


def test_palate_config_rejects_bad_shape():
    with pytest.raises(ConfigError, match="half_ellipse"):
        palate_from_dict(dict(VALID_CONFIG, shape="parabola"))


@pytest.mark.parametrize("shape", [None, *DomeShape])
def test_default_palate_is_cached_per_shape(shape):
    geometry = default_palate(shape)
    assert default_palate(shape) is geometry
    assert shape is None or geometry.shape is shape


@pytest.mark.parametrize("shape", list(DomeShape))
def test_shape_given_by_name_is_the_shape(shape):
    # a plain str used to pass through and be evaluated as a half-ellipse
    by_name, by_member = default_palate(shape.value), default_palate(shape)
    assert by_name.shape is shape
    for x in (0.0, 10.0, 27.5, 40.0):
        a, b = slice_at(by_name, x), slice_at(by_member, x)
        zs = [a.z_min + k / 16 * a.span for k in range(17)]
        assert [dome_elevation(a, z) for z in zs] == [dome_elevation(b, z) for z in zs]
    assert with_shape(default_palate(), shape.value).shape is shape


def test_unknown_shape_name_is_rejected():
    with pytest.raises(DomainError, match="bogus"):
        default_palate("bogus")
    with pytest.raises(DomainError, match="half_ellipse"):
        with_shape(default_palate(), "bogus")


@pytest.mark.parametrize("shape", list(DomeShape))
def test_slice_built_with_a_shape_name_has_the_shape(shape):
    # a plain str used to be kept and evaluated as a half-ellipse: at z = -9
    # the cosine dome is 0.122 high, the half-ellipse 2.179
    by_name = DomeSlice(x=0.0, z_min=-10.0, z_max=10.0, h=5.0, shape=shape.value)
    by_member = DomeSlice(x=0.0, z_min=-10.0, z_max=10.0, h=5.0, shape=shape)
    assert by_name.shape is shape and by_name == by_member
    expected = {DomeShape.COSINE: 0.122, DomeShape.HALF_ELLIPSE: 2.179}[shape]
    assert dome_elevation(by_name, -9.0) == dome_elevation(by_member, -9.0)
    assert dome_elevation(by_name, -9.0) == pytest.approx(expected, abs=5e-4)
    later = DomeSlice(x=1.0, z_min=-10.0, z_max=10.0, h=5.0, shape=shape)
    assert PalateGeometry(slices=(by_name, later)).shape is shape


def test_slice_with_unknown_shape_name_is_rejected():
    with pytest.raises(DomainError, match="bogus"):
        DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=1.0, shape="bogus")
    with pytest.raises(DomainError, match="cosine"):
        DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=1.0, shape="dome")


def test_surface_grid_is_bounded(two_slice_geometry):
    assert len(surface_xs(two_slice_geometry, MAX_SURFACE_STEPS)) == MAX_SURFACE_STEPS + 1
    for nx, nz in ((MAX_SURFACE_STEPS + 1, 2), (2, MAX_SURFACE_STEPS + 1), (10**8, 10**8)):
        with pytest.raises(DomainError, match=str(MAX_SURFACE_STEPS)):
            sample_surface(two_slice_geometry, nx, nz)
    with pytest.raises(DomainError, match="nx"):
        surface_xs(two_slice_geometry, 10**8)
