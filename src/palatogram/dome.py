"""Parametric palatal dome geometry.

The hard palate is modeled as a stack of coronal cross-sections ("slices").
Each slice spans the tooth row laterally from ``z_min`` (left molar edge) to
``z_max`` (right) and arches to a height ``h`` above the occlusal baseline.
Two lateral profiles are supported: a raised-cosine dome and a half-ellipse.

All heights in this package are elevations ``u`` above the tooth-row
baseline: ``u = 0`` on the gum line at the lateral edges, ``u = h`` at the
dome apex. Units are millimeters throughout.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, DomainError

__all__ = [
    "DomeShape",
    "DomeSlice",
    "PalateGeometry",
    "dome_elevation",
    "dome_elevations",
    "slice_at",
    "surface_xs",
    "sample_surface",
    "palate_from_dict",
    "load_palate",
    "default_palate",
    "with_shape",
]

TWO_PI = 2.0 * math.pi


class DomeShape(str, Enum):
    """Lateral profile family used for every slice of a palate."""

    COSINE = "cosine"
    HALF_ELLIPSE = "half_ellipse"


@dataclass(frozen=True)
class DomeSlice:
    """One coronal cross-section of the palatal dome.

    Attributes:
        x: anterior-to-posterior position of the slice.
        z_min: lateral position of the left molar edge (z_min < z_max).
        z_max: lateral position of the right molar edge.
        h: dome height above the occlusal baseline (h > 0).
        shape: lateral profile family.
    """

    x: float
    z_min: float
    z_max: float
    h: float
    shape: DomeShape = DomeShape.COSINE

    def __post_init__(self) -> None:
        for name in ("x", "z_min", "z_max", "h"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"slice field {name} must be finite")
        if not self.z_min < self.z_max:
            raise DomainError(
                f"slice at x={self.x}: z_min ({self.z_min}) must be < z_max ({self.z_max})"
            )
        if not self.h > 0:
            raise DomainError(f"slice at x={self.x}: dome height must be positive, got {self.h}")

    @property
    def z_center(self) -> float:
        return 0.5 * (self.z_min + self.z_max)

    @property
    def span(self) -> float:
        return self.z_max - self.z_min

    @property
    def half_width(self) -> float:
        return 0.5 * (self.z_max - self.z_min)


@dataclass(frozen=True)
class PalateGeometry:
    """Ordered stack of dome slices from the incisors to the velar transition."""

    slices: tuple[DomeSlice, ...]
    shape: DomeShape

    def __post_init__(self) -> None:
        if len(self.slices) < 2:
            raise DomainError("a palate needs at least two slices")
        xs = [s.x for s in self.slices]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("slice x positions must be strictly increasing")
        if any(s.shape is not self.shape for s in self.slices):
            raise DomainError("all slices must share the geometry's dome shape")

    @property
    def x_min(self) -> float:
        return self.slices[0].x

    @property
    def x_max(self) -> float:
        return self.slices[-1].x


def dome_elevation(slice_: DomeSlice, z: float) -> float:
    """Height of the dome surface above the baseline at lateral position z.

    Zero exactly at both edges, ``h`` at the midline, mirror-symmetric about
    the midline. Raises DomainError for z outside [z_min, z_max].
    """
    return dome_elevations(slice_, (z,))[0]


def dome_elevations(slice_: DomeSlice, zs: Sequence[float]) -> list[float]:
    """``dome_elevation`` at every z in zs, reading the slice fields once.

    Raises DomainError for the first z outside [z_min, z_max].
    """
    z_min, z_max = slice_.z_min, slice_.z_max
    for z in zs:
        if not z_min <= z <= z_max:
            raise DomainError(
                f"z={z} outside lateral span [{z_min}, {z_max}] of slice at x={slice_.x}"
            )
    z_center = slice_.z_center
    if slice_.shape is DomeShape.COSINE:
        # distance-from-midline form of the raised cosine; evaluates to an
        # exact 0.0 at the edges and exact h at the center
        half_h, span = 0.5 * slice_.h, slice_.span
        return [half_h * (1.0 + math.cos(TWO_PI * (abs(z - z_center) / span))) for z in zs]
    # half-ellipse, factored so the radicand hits an exact 0.0 at the edges:
    # half_width^2 - (z - z_center)^2 == (z - z_min) * (z_max - z), which the
    # span check above keeps >= 0
    h, half_width = slice_.h, slice_.half_width
    return [h * math.sqrt((z - z_min) * (z_max - z)) / half_width for z in zs]


def slice_at(geometry: PalateGeometry, x: float) -> DomeSlice:
    """Slice at an arbitrary x, linearly interpolating between stored slices."""
    slices = geometry.slices
    if not slices[0].x <= x <= slices[-1].x:
        raise DomainError(
            f"x={x} outside palate range [{slices[0].x}, {slices[-1].x}]"
        )
    lo, hi = 0, len(slices) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if slices[mid].x <= x:
            lo = mid
        else:
            hi = mid
    a, b = slices[lo], slices[hi]
    if x == a.x:
        return a
    if x == b.x:
        return b
    t = (x - a.x) / (b.x - a.x)
    s = 1.0 - t
    return DomeSlice(
        x=x,
        z_min=s * a.z_min + t * b.z_min,
        z_max=s * a.z_max + t * b.z_max,
        h=s * a.h + t * b.h,
        shape=geometry.shape,
    )


def surface_xs(geometry: PalateGeometry, nx: int) -> list[float]:
    """The nx + 1 evenly spaced row positions from x_min to x_max inclusive."""
    if nx < 1:
        raise DomainError(f"grid needs nx >= 1, got nx={nx}")
    x_lo, x_hi = geometry.x_min, geometry.x_max
    return [(1.0 - i / nx) * x_lo + i / nx * x_hi for i in range(nx + 1)]


def sample_surface(
    geometry: PalateGeometry, nx: int, nz: int
) -> list[list[tuple[float, float, float]]]:
    """Sample the dome into an (nx+1) x (nz+1) row-major grid of (x, y, z) points.

    x runs anterior to posterior, y is the elevation and z is lateral. Row i
    sits at an x uniformly spanning the palate's range; within a row, z spans
    that slice's [z_min, z_max] so the boundary columns land exactly on the
    dome edges (y = 0). Every coordinate is finite: the slices are.
    """
    xs = surface_xs(geometry, nx)
    if nz < 1:
        raise DomainError(f"grid needs nz >= 1, got nz={nz}")
    weights = [(1.0 - j / nz, j / nz) for j in range(nz + 1)]
    grid = []
    for x in xs:
        sl = slice_at(geometry, x)
        z_min, z_max = sl.z_min, sl.z_max
        zs = [g * z_min + f * z_max for g, f in weights]
        grid.append([(x, y, z) for z, y in zip(zs, dome_elevations(sl, zs))])
    return grid


def with_shape(geometry: PalateGeometry, shape: DomeShape | str) -> PalateGeometry:
    """Same slice stack with the lateral profile family replaced.

    shape is a DomeShape or its value; any other name raises DomainError.
    """
    try:
        shape = DomeShape(shape)
    except ValueError:
        raise DomainError(
            f"dome shape must be one of {[s.value for s in DomeShape]}, got {shape!r}"
        ) from None
    if shape is geometry.shape:
        return geometry
    slices = tuple(
        DomeSlice(x=s.x, z_min=s.z_min, z_max=s.z_max, h=s.h, shape=shape)
        for s in geometry.slices
    )
    return PalateGeometry(slices=slices, shape=shape)


_SLICE_KEYS = {"x", "z_min", "z_max", "h"}


def palate_from_dict(doc: object) -> PalateGeometry:
    """Build a palate from a config mapping; rejects unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigError("palate config must be a JSON object")
    unknown = set(doc) - {"shape", "slices"}
    if unknown:
        raise ConfigError(f"palate config has unknown keys: {sorted(unknown)}")
    try:
        shape = DomeShape(doc.get("shape"))
    except ValueError:
        raise ConfigError(
            f"palate shape must be one of {[s.value for s in DomeShape]}, "
            f"got {doc.get('shape')!r}"
        ) from None
    raw_slices = doc.get("slices")
    if not isinstance(raw_slices, list) or not raw_slices:
        raise ConfigError("palate config needs a non-empty 'slices' list")
    slices = []
    for i, item in enumerate(raw_slices):
        if not isinstance(item, dict):
            raise ConfigError(f"slice #{i} must be a JSON object")
        unknown = set(item) - _SLICE_KEYS
        if unknown:
            raise ConfigError(f"slice #{i} has unknown keys: {sorted(unknown)}")
        missing = _SLICE_KEYS - set(item)
        if missing:
            raise ConfigError(f"slice #{i} is missing keys: {sorted(missing)}")
        values = {}
        for key in _SLICE_KEYS:
            v = item[key]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"slice #{i} key {key!r} must be a number, got {v!r}")
            values[key] = float(v)
        try:
            slices.append(DomeSlice(shape=shape, **values))
        except DomainError as exc:
            raise ConfigError(f"slice #{i}: {exc}") from None
    try:
        return PalateGeometry(slices=tuple(slices), shape=shape)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def load_palate(path: str | Path) -> PalateGeometry:
    """Load a palate config from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return palate_from_dict(doc)


@functools.lru_cache(maxsize=None)
def default_palate(shape: DomeShape | str | None = None) -> PalateGeometry:
    """The built-in schematic adult palate (incisors at x=0, velum at x=40).

    Parsed once and cached per shape; the geometry is immutable, so every
    caller can share it. shape is taken as by with_shape.
    """
    if shape is not None:
        return with_shape(default_palate(), shape)
    from importlib import resources

    text = resources.files("palatogram").joinpath("presets/palate.json").read_text("utf-8")
    return palate_from_dict(json.loads(text))
