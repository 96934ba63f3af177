"""Parametric palatal dome geometry.

The hard palate is modeled as a stack of coronal cross-sections ("slices").
Each slice spans the tooth row laterally from ``z_min`` (left molar edge) to
``z_max`` (right) and arches to a height ``h`` above the occlusal baseline.
Two lateral profiles are supported: a raised-cosine dome and a half-ellipse.
This module holds both the profiles and their closed-form inverse.

All heights in this package are elevations ``u`` above the tooth-row
baseline: ``u = 0`` on the gum line at the lateral edges, ``u = h`` at the
dome apex. Units are millimeters throughout.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Sequence

from ._frozen import Frozen
from .errors import (
    MAX_MM, MIN_HALF_WIDTH_MM, ConfigError, DomainError, check_keys, finite_float, member, parse_json
)

__all__ = [
    "DomeShape",
    "DomeSlice",
    "PalateGeometry",
    "dome_elevation",
    "dome_elevations",
    "invert_dome",
    "slice_at",
    "surface_xs",
    "sample_surface",
    "MAX_SURFACE_STEPS",
    "palate_from_dict",
    "load_palate",
    "default_palate",
    "with_shape",
]

TWO_PI = 2.0 * math.pi
MAX_SURFACE_STEPS = 512  # largest nx or nz of a sampled surface; bounds what it allocates


class DomeShape(str, Enum):
    """Lateral profile family used for every slice of a palate."""

    COSINE = "cosine"
    HALF_ELLIPSE = "half_ellipse"


class DomeSlice(Frozen):
    """One coronal cross-section of the palatal dome.

    Attributes:
        x: anterior-to-posterior position of the slice.
        z_min: lateral position of the left molar edge.
        z_max: lateral position of the right molar edge; the half width
            0.5 * (z_max - z_min) must be at least MIN_HALF_WIDTH_MM.
        h: dome height above the occlusal baseline (h > 0).
        shape: lateral profile family, a DomeShape or its value; any other
            name raises DomainError.

    Every field is a finite length of at most MAX_MM in magnitude.
    """

    __slots__ = ("x", "z_min", "z_max", "h", "shape")

    def __init__(
        self,
        x: float,
        z_min: float,
        z_max: float,
        h: float,
        shape: DomeShape = DomeShape.COSINE,
    ) -> None:
        if shape.__class__ is not DomeShape:
            shape = member(DomeShape, shape, "dome shape")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z_min", z_min)
        object.__setattr__(self, "z_max", z_max)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "shape", shape)
        # rejects NaN, the infinities and ints too large for a float as well
        for name, value in (("x", x), ("z_min", z_min), ("z_max", z_max), ("h", h)):
            if not abs(value) <= MAX_MM:
                raise DomainError(
                    f"slice field {name} must be finite and at most {MAX_MM:g} in magnitude"
                )
        if not 0.5 * (z_max - z_min) >= MIN_HALF_WIDTH_MM:
            raise DomainError(
                f"slice at x={x}: half width of [{z_min}, {z_max}] "
                f"must be at least {MIN_HALF_WIDTH_MM:g}"
            )
        if not h > 0:
            raise DomainError(f"slice at x={x}: dome height must be positive, got {h}")

    @property
    def z_center(self) -> float:
        return 0.5 * (self.z_min + self.z_max)

    @property
    def span(self) -> float:
        return self.z_max - self.z_min

    @property
    def half_width(self) -> float:
        return 0.5 * (self.z_max - self.z_min)


class PalateGeometry(Frozen):
    """Ordered stack of dome slices from the incisors to the velar transition.

    Every slice must have the same shape, which is the palate's shape.
    """

    __slots__ = ("slices",)

    def __init__(self, slices: tuple[DomeSlice, ...]) -> None:
        object.__setattr__(self, "slices", slices)
        if len(slices) < 2:
            raise DomainError("a palate needs at least two slices")
        xs = [s.x for s in slices]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("slice x positions must be strictly increasing")
        shape = slices[0].shape
        if any(s.shape is not shape for s in slices):
            raise DomainError("all slices of a palate must share one dome shape")

    @property
    def shape(self) -> DomeShape:
        """The lateral profile family of every slice."""
        return self.slices[0].shape

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
    # span check above keeps >= 0 and the MAX_MM bound keeps finite; the apex
    # can round one ulp above h, so clamp to h (min() would double the cost)
    h, half_width = slice_.h, slice_.half_width
    return [
        e if (e := h * math.sqrt((z - z_min) * (z_max - z)) / half_width) <= h else h
        for z in zs
    ]


def invert_dome(slice_: DomeSlice, u: float) -> tuple[float, float]:
    """Lateral positions where the dome profile sits at elevation u.

    Defined for 0 < u < h only; use classify_slice for the boundary cases.
    Returns (z_left, z_right) with z_left < z_center < z_right.
    """
    if not 0.0 < u < slice_.h:
        raise DomainError(
            f"invert_dome needs 0 < u < h ({slice_.h}), got u={u}; "
            "classify_slice handles the boundary cases"
        )
    if slice_.shape is DomeShape.COSINE:
        arg = 1.0 - 2.0 * u / slice_.h
        arg = min(1.0, max(-1.0, arg))  # absorb 1-ulp excursions
        t = math.acos(arg) / TWO_PI
        return (slice_.z_min + t * slice_.span, slice_.z_max - t * slice_.span)
    r = u / slice_.h
    off = slice_.half_width * math.sqrt(max(1.0 - r * r, 0.0))
    return (slice_.z_center - off, slice_.z_center + off)


_SLICE_X = attrgetter("x")


def slice_at(geometry: PalateGeometry, x: float) -> DomeSlice:
    """Slice at an arbitrary x, linearly interpolating between stored slices.

    The interpolated slice has the shape of the stored slices.
    """
    slices = geometry.slices
    if not slices[0].x <= x <= slices[-1].x:
        raise DomainError(
            f"x={x} outside palate range [{slices[0].x}, {slices[-1].x}]"
        )
    # slices[i] is the first slice after slices[0] with x <= slices[i].x
    i = bisect_left(slices, x, 1, key=_SLICE_X)
    a, b = slices[i - 1], slices[i]
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
        shape=a.shape,
    )


def _check_steps(name: str, n: int) -> None:
    if not 1 <= n <= MAX_SURFACE_STEPS:
        raise DomainError(f"grid needs 1 <= {name} <= {MAX_SURFACE_STEPS}, got {name}={n}")


def surface_xs(geometry: PalateGeometry, nx: int) -> list[float]:
    """The nx + 1 evenly spaced row positions from x_min to x_max inclusive.

    nx must lie in [1, MAX_SURFACE_STEPS].
    """
    _check_steps("nx", nx)
    x_lo, x_hi = geometry.x_min, geometry.x_max
    return [(1.0 - i / nx) * x_lo + i / nx * x_hi for i in range(nx + 1)]


def sample_surface(
    geometry: PalateGeometry, nx: int, nz: int
) -> list[list[tuple[float, float, float]]]:
    """Sample the dome into an (nx+1) x (nz+1) row-major grid of (x, y, z) points.

    x runs anterior to posterior, y is the elevation and z is lateral. Row i
    sits at an x uniformly spanning the palate's range; within a row, z spans
    that slice's [z_min, z_max] so the boundary columns land exactly on the
    dome edges (y = 0). Every coordinate is finite: the slices are. nx and
    nz must each lie in [1, MAX_SURFACE_STEPS].
    """
    _check_steps("nz", nz)
    xs = surface_xs(geometry, nx)
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
    shape = member(DomeShape, shape, "dome shape")
    if shape is geometry.shape:
        return geometry
    slices = tuple(
        DomeSlice(x=s.x, z_min=s.z_min, z_max=s.z_max, h=s.h, shape=shape)
        for s in geometry.slices
    )
    return PalateGeometry(slices=slices)


_SLICE_KEYS = ("x", "z_min", "z_max", "h")


def palate_from_dict(doc: object) -> PalateGeometry:
    """Build a palate from a config mapping; rejects unknown keys."""
    check_keys(doc, "palate config", ("shape", "slices"))
    try:
        shape = member(DomeShape, doc.get("shape"), "dome shape")
    except DomainError as exc:
        raise ConfigError(f"palate {exc}") from None
    raw_slices = doc.get("slices")
    if not isinstance(raw_slices, list) or not raw_slices:
        raise ConfigError("palate config needs a non-empty 'slices' list")
    slices = []
    for i, item in enumerate(raw_slices):
        check_keys(item, f"slice #{i}", _SLICE_KEYS, _SLICE_KEYS)
        values = {key: finite_float(item[key], "slice #%d key %r", i, key) for key in _SLICE_KEYS}
        try:
            slices.append(DomeSlice(shape=shape, **values))
        except DomainError as exc:
            raise ConfigError(f"slice #{i}: {exc}") from None
    try:
        return PalateGeometry(slices=tuple(slices))
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def load_palate(path: str | Path) -> PalateGeometry:
    """Load a palate config from a JSON file."""
    return palate_from_dict(parse_json(Path(path).read_bytes(), path))


@functools.lru_cache(maxsize=None)
def default_palate(shape: DomeShape | str | None = None) -> PalateGeometry:
    """The built-in schematic adult palate (incisors at x=0, velum at x=40).

    Parsed once and cached per shape; the geometry is immutable, so every
    caller can share it. shape is taken as by with_shape.
    """
    if shape is not None:
        return with_shape(default_palate(), shape)
    from importlib import resources

    data = resources.files("palatogram").joinpath("presets/palate.json").read_bytes()
    return palate_from_dict(parse_json(data, "presets/palate.json"))
