from __future__ import annotations

import json
import math
import random
from importlib import resources

import pytest

from palatogram import (
    ConfigError,
    DomainError,
    DomeSlice,
    DorsumManner,
    PalateGeometry,
    ShapingParams,
    TipManner,
    TongueContour,
    compute_epg,
    default_library,
    edge_elevation_delta,
    groove_delta,
    lateral_lowering_delta,
    midsagittal_height,
    slice_at,
)
from palatogram.shaping import params_from_dict, shaped_heights


@pytest.fixture
def ramp_contour() -> TongueContour:
    return TongueContour(points=((0.0, 2.0), (10.0, 8.0)))


@pytest.fixture
def molar_slice() -> DomeSlice:
    return DomeSlice(x=30.0, z_min=-16.0, z_max=16.0, h=11.0)


def flat_contour(u: float, x0: float = 0.0, x1: float = 10.0) -> TongueContour:
    return TongueContour(points=((x0, u), (x1, u)))


def test_contour_validation():
    with pytest.raises(DomainError):
        TongueContour(points=((0.0, 1.0),))
    with pytest.raises(DomainError):
        TongueContour(points=((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(DomainError):
        TongueContour(points=((0.0, float("nan")), (1.0, 2.0)))


def test_midsagittal_height(ramp_contour):
    assert midsagittal_height(ramp_contour, 0.0) == 2.0
    assert midsagittal_height(ramp_contour, 5.0) == pytest.approx(5.0)
    assert midsagittal_height(ramp_contour, 2.5) == pytest.approx(3.5)
    with pytest.raises(DomainError):
        midsagittal_height(ramp_contour, -0.1)


def test_params_validation():
    with pytest.raises(DomainError):
        ShapingParams(tth=1.5)
    with pytest.raises(DomainError):
        ShapingParams(groove_width=-1.0)
    with pytest.raises(DomainError):
        ShapingParams(groove_enabled=True, lateral_lower_enabled=True)


FLOAT_FIELDS = (
    "tth",
    "edge_elev_max",
    "posterior_onset_x",
    "groove_width",
    "groove_depth",
    "lateral_lower_width",
    "lateral_lower_depth",
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_params_reject_non_finite(name, value):
    with pytest.raises(DomainError, match=name):
        ShapingParams(**{name: value})


def test_preset_params_reject_nan_groove_width():
    # a NaN width used to pass the < 0 check and close the s channel
    preset = resources.files("palatogram").joinpath("presets/s.json").read_bytes()
    doc = json.loads(preset)["params"]
    assert params_from_dict(doc) == default_library().get("s").params
    with pytest.raises(ConfigError, match="groove_width"):
        params_from_dict({**doc, "groove_width": math.nan})


def test_edge_elevation_zero_cases(molar_slice):
    full = ShapingParams(tt_manner=TipManner.FULL, tth=0.0, posterior_onset_x=10.0)
    assert edge_elevation_delta(full, molar_slice, 30.0, molar_slice.z_max) == 0.0
    near = ShapingParams(tt_manner=TipManner.NEAR, tth=1.0, posterior_onset_x=10.0)
    assert edge_elevation_delta(near, molar_slice, 30.0, molar_slice.z_max) == 0.0
    saturated = ShapingParams(tt_manner=TipManner.FULL, tth=1.0, posterior_onset_x=10.0)
    assert edge_elevation_delta(saturated, molar_slice, 30.0, molar_slice.z_center) == 0.0


def test_edge_elevation_saturation_and_product(molar_slice):
    params = ShapingParams(
        tt_manner=TipManner.FULL, tth=1.0, edge_elev_max=8.0, posterior_onset_x=10.0
    )
    assert edge_elevation_delta(params, molar_slice, 30.0, molar_slice.z_max) == pytest.approx(8.0)
    half = ShapingParams(
        tt_manner=TipManner.FULL, tth=0.5, edge_elev_max=8.0, posterior_onset_x=10.0
    )
    z_half = molar_slice.z_center + 0.5 * molar_slice.half_width
    got = edge_elevation_delta(half, molar_slice, 15.0, z_half)
    assert got == pytest.approx(0.0625 * 8.0)


def test_edge_elevation_dorsal_manner(molar_slice):
    dorsal = ShapingParams(
        td_manner=DorsumManner.FULL, tth=1.0, edge_elev_max=8.0, posterior_onset_x=24.0
    )
    assert edge_elevation_delta(dorsal, molar_slice, 40.0, molar_slice.z_max) == pytest.approx(8.0)
    assert edge_elevation_delta(dorsal, molar_slice, 20.0, molar_slice.z_max) == 0.0


def test_edge_elevation_monotone(molar_slice):
    params = ShapingParams(
        tt_manner=TipManner.FULL, tth=1.0, edge_elev_max=8.0, posterior_onset_x=10.0
    )
    zs = [molar_slice.z_center + k * molar_slice.half_width / 50 for k in range(51)]
    values = [edge_elevation_delta(params, molar_slice, 30.0, z) for z in zs]
    assert all(b >= a for a, b in zip(values, values[1:]))
    xs = [8.0, 12.0, 16.0, 20.0, 24.0]
    ramped = [edge_elevation_delta(params, molar_slice, x, molar_slice.z_max) for x in xs]
    assert all(b >= a for a, b in zip(ramped, ramped[1:]))


def test_groove_delta(molar_slice):
    params = ShapingParams(groove_enabled=True, groove_width=4.0, groove_depth=3.0)
    c = molar_slice.z_center
    assert groove_delta(params, molar_slice, c) == -3.0
    assert groove_delta(params, molar_slice, c + 3.0) == 0.0
    assert groove_delta(params, molar_slice, c + 2.0) == -3.0  # inclusive boundary
    disabled = ShapingParams(groove_enabled=False, groove_width=4.0, groove_depth=3.0)
    assert groove_delta(disabled, molar_slice, c) == 0.0


def test_lateral_lowering_delta(molar_slice):
    width = 0.3 * molar_slice.half_width
    params = ShapingParams(
        lateral_lower_enabled=True, lateral_lower_width=width, lateral_lower_depth=6.0
    )
    assert lateral_lowering_delta(params, molar_slice, molar_slice.z_min) == -6.0
    assert lateral_lowering_delta(params, molar_slice, molar_slice.z_center) == 0.0
    assert lateral_lowering_delta(params, molar_slice, molar_slice.z_min + width) == -6.0
    assert lateral_lowering_delta(params, molar_slice, molar_slice.z_max - width) == -6.0


def geometry_for_field() -> PalateGeometry:
    slices = (
        DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=10.0),
        DomeSlice(x=10.0, z_min=-1.0, z_max=1.0, h=10.0),
    )
    return PalateGeometry(slices=slices)


def field(contour: TongueContour, params: ShapingParams, x: float, z: float) -> float:
    """u_t(x, z) over geometry_for_field(), as compute_epg composes it."""
    sl = slice_at(geometry_for_field(), x)
    return shaped_heights(params, sl, x, midsagittal_height(contour, x), (z,))[0]


def test_field_reduces_to_flat_line():
    for z in (-1.0, -0.3, 0.0, 0.7, 1.0):
        assert field(flat_contour(5.0), ShapingParams(), 5.0, z) == 5.0


def test_field_with_groove():
    params = ShapingParams(groove_enabled=True, groove_width=0.5, groove_depth=10.0)
    assert field(flat_contour(5.0), params, 5.0, 0.0) == pytest.approx(-5.0)
    assert field(flat_contour(5.0), params, 5.0, 0.9) == pytest.approx(5.0)


def test_field_with_saturated_edge_elevation():
    params = ShapingParams(
        tt_manner=TipManner.FULL, tth=1.0, edge_elev_max=8.0, posterior_onset_x=-10.0
    )
    assert field(flat_contour(5.0), params, 5.0, 1.0) == pytest.approx(13.0)


def test_field_requires_overlap():
    contour = flat_contour(5.0, 20.0, 30.0)
    with pytest.raises(DomainError, match="do not overlap"):
        compute_epg(geometry_for_field(), contour, ShapingParams())


def test_field_propagates_domain_errors():
    with pytest.raises(DomainError):
        field(flat_contour(5.0, 0.0, 5.0), ShapingParams(), 7.0, 0.0)  # outside the contour


def test_neutrality_is_z_independent():
    params = ShapingParams(tt_manner=TipManner.NEAR)
    contour = TongueContour(points=((0.0, 1.0), (4.0, 6.0), (10.0, 3.0)))
    rng = random.Random(7)
    for x in (0.5, 3.0, 6.5, 9.5):
        reference = field(contour, params, x, 0.0)
        for _ in range(100):
            z = rng.uniform(-1.0, 1.0)
            assert field(contour, params, x, z) == reference


def test_deltas_bounded(molar_slice):
    params = ShapingParams(
        tt_manner=TipManner.FULL,
        tth=1.0,
        edge_elev_max=8.0,
        posterior_onset_x=0.0,
        groove_enabled=True,
        groove_width=5.0,
        groove_depth=23.0,
    )
    bound = max(params.edge_elev_max, params.groove_depth, params.lateral_lower_depth)
    rng = random.Random(11)
    for _ in range(500):
        z = rng.uniform(molar_slice.z_min, molar_slice.z_max)
        x = rng.uniform(0.0, 40.0)
        for delta in (
            edge_elevation_delta(params, molar_slice, x, z),
            groove_delta(params, molar_slice, z),
            lateral_lowering_delta(params, molar_slice, z),
        ):
            assert abs(delta) <= bound
