from __future__ import annotations

import pytest

from palatogram import DomeShape, DomeSlice, PalateGeometry


@pytest.fixture
def s0_cosine() -> DomeSlice:
    return DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=10.0, shape=DomeShape.COSINE)


@pytest.fixture
def s0_ellipse() -> DomeSlice:
    return DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=10.0, shape=DomeShape.HALF_ELLIPSE)


@pytest.fixture
def two_slice_geometry() -> PalateGeometry:
    slices = (
        DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=8.0),
        DomeSlice(x=10.0, z_min=-1.0, z_max=1.0, h=12.0),
    )
    return PalateGeometry(slices=slices)


def s0_geometry(shape: DomeShape, x_len: float = 10.0) -> PalateGeometry:
    slices = (
        DomeSlice(x=0.0, z_min=-1.0, z_max=1.0, h=10.0, shape=shape),
        DomeSlice(x=x_len, z_min=-1.0, z_max=1.0, h=10.0, shape=shape),
    )
    return PalateGeometry(slices=slices)
