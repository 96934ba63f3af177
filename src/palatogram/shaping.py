"""Lateral tongue shaping on top of a midsagittal contour.

The midsagittal contour gives the tongue height at the midline for every
anterior-posterior position. Three shaping mechanisms turn that 2D curve
into a full height field u_t(x, z):

* posterior lateral edge elevation, driven by the tongue tip height control
  (seals the airway against the gum ridge for apical closures),
* a central groove, a constant-width full-depth lowering of the midline
  strip along the entire tongue (fricative channel),
* lateral lowering, a constant-width full-depth lowering of both tongue
  edges along the entire tongue (the /l/ configuration).

The groove and lateral lowering are mutually exclusive.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from operator import itemgetter
from typing import Sequence

from ._frozen import Frozen
from .dome import DomeSlice
from .errors import MAX_MM, ConfigError, DomainError, check_keys, finite_float

__all__ = [
    "TipManner",
    "DorsumManner",
    "TongueContour",
    "ShapingParams",
    "EDGE_RAMP_LENGTH",
    "midsagittal_height",
    "edge_elevation_delta",
    "groove_delta",
    "lateral_lowering_delta",
    "shaped_heights",
    "params_from_dict",
]

# anterior-posterior distance over which the edge-elevation ramp saturates
EDGE_RAMP_LENGTH = 10.0


class TipManner(str, Enum):
    FULL = "full"
    NEAR = "near"
    LATERAL = "lateral"


class DorsumManner(str, Enum):
    FULL = "full"
    NEAR = "near"


class TongueContour(Frozen):
    """Midsagittal tongue heights as (x, u) pairs, x strictly increasing.

    Heights are elevations above the occlusal baseline and may be negative
    (tongue below the tooth row). Every coordinate is a finite length of at
    most MAX_MM in magnitude.
    """

    __slots__ = ("points",)

    def __init__(self, points: tuple[tuple[float, float], ...]) -> None:
        object.__setattr__(self, "points", points)
        if len(points) < 2:
            raise DomainError("a tongue contour needs at least two points")
        # every bound before the order, so a bad coordinate is what gets reported
        increasing, x_prev = True, -math.inf
        for x, u in points:
            if not (abs(x) <= MAX_MM and abs(u) <= MAX_MM):
                raise DomainError(
                    f"contour coordinates must be finite and at most {MAX_MM:g} in magnitude"
                )
            if x <= x_prev:
                increasing = False
            x_prev = x
        if not increasing:
            raise DomainError("contour x positions must be strictly increasing")

    @property
    def x_min(self) -> float:
        return self.points[0][0]

    @property
    def x_max(self) -> float:
        return self.points[-1][0]


_FLOAT_FIELDS = (
    "tth",
    "edge_elev_max",
    "posterior_onset_x",
    "groove_width",
    "groove_depth",
    "lateral_lower_width",
    "lateral_lower_depth",
)
_ENUM_FIELDS = {"tt_manner": TipManner, "td_manner": DorsumManner}
_FLAG_FIELDS = ("groove_enabled", "lateral_lower_enabled")


class ShapingParams(Frozen):
    """Manner settings and coronal shaping magnitudes for one speech sound.

    tth is the normalized tongue tip height control in [0, 1]; it scales the
    posterior edge elevation. Widths and depths are in millimeters. Every
    float field is finite and at most MAX_MM in magnitude.
    """

    __slots__ = (
        "tt_manner",
        "td_manner",
        "tth",
        "edge_elev_max",
        "posterior_onset_x",
        "groove_enabled",
        "groove_width",
        "groove_depth",
        "lateral_lower_enabled",
        "lateral_lower_width",
        "lateral_lower_depth",
    )

    def __init__(
        self,
        tt_manner: TipManner = TipManner.NEAR,
        td_manner: DorsumManner = DorsumManner.NEAR,
        tth: float = 0.0,
        edge_elev_max: float = 8.0,
        posterior_onset_x: float = 12.0,
        groove_enabled: bool = False,
        groove_width: float = 8.0,
        groove_depth: float = 23.0,
        lateral_lower_enabled: bool = False,
        lateral_lower_width: float = 6.4,
        lateral_lower_depth: float = 23.0,
    ) -> None:
        object.__setattr__(self, "tt_manner", tt_manner)
        object.__setattr__(self, "td_manner", td_manner)
        object.__setattr__(self, "tth", tth)
        object.__setattr__(self, "edge_elev_max", edge_elev_max)
        object.__setattr__(self, "posterior_onset_x", posterior_onset_x)
        object.__setattr__(self, "groove_enabled", groove_enabled)
        object.__setattr__(self, "groove_width", groove_width)
        object.__setattr__(self, "groove_depth", groove_depth)
        object.__setattr__(self, "lateral_lower_enabled", lateral_lower_enabled)
        object.__setattr__(self, "lateral_lower_width", lateral_lower_width)
        object.__setattr__(self, "lateral_lower_depth", lateral_lower_depth)
        for name in _FLOAT_FIELDS:
            if not abs(getattr(self, name)) <= MAX_MM:
                raise DomainError(f"{name} must be finite and at most {MAX_MM:g} in magnitude")
        if not 0.0 <= tth <= 1.0:
            raise DomainError(f"tth must lie in [0, 1], got {tth}")
        for name in (
            "edge_elev_max",
            "groove_width",
            "groove_depth",
            "lateral_lower_width",
            "lateral_lower_depth",
        ):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if groove_enabled and lateral_lower_enabled:
            raise DomainError("groove and lateral lowering are mutually exclusive")


_POINT_X = itemgetter(0)


def midsagittal_height(contour: TongueContour, x: float) -> float:
    """Piecewise-linear tongue height at the midline."""
    pts = contour.points
    if not pts[0][0] <= x <= pts[-1][0]:
        raise DomainError(
            f"x={x} outside tongue contour range [{pts[0][0]}, {pts[-1][0]}]"
        )
    # pts[i] is the first point after pts[0] with x <= pts[i][0]
    i = bisect_left(pts, x, 1, key=_POINT_X)
    (x0, u0), (x1, u1) = pts[i - 1], pts[i]
    if x == x0:
        return u0
    if x == x1:
        return u1
    t = (x - x0) / (x1 - x0)
    return (1.0 - t) * u0 + t * u1


def edge_elevation_delta(params: ShapingParams, slice_: DomeSlice, x: float, z: float) -> float:
    """Posterior lateral edge elevation at (x, z); zero at the midline.

    Active only in full manner (tip or dorsum). Separable product of the
    tip-height control, a posterior ramp in x, and a quadratic lateral
    weight that saturates at the molar edges.
    """
    if params.tt_manner is not TipManner.FULL and params.td_manner is not DorsumManner.FULL:
        return 0.0
    lateral = (abs(z - slice_.z_center) / slice_.half_width) ** 2
    ramp = (x - params.posterior_onset_x) / EDGE_RAMP_LENGTH
    ramp = min(1.0, max(0.0, ramp))
    return params.tth * params.edge_elev_max * ramp * lateral


def groove_delta(params: ShapingParams, slice_: DomeSlice, z: float) -> float:
    """Central groove: full-depth lowering of the midline strip (or 0)."""
    if not params.groove_enabled:
        return 0.0
    if abs(z - slice_.z_center) <= 0.5 * params.groove_width:
        return -params.groove_depth
    return 0.0


def lateral_lowering_delta(params: ShapingParams, slice_: DomeSlice, z: float) -> float:
    """Lateral lowering: full-depth lowering of both edge strips (or 0)."""
    if not params.lateral_lower_enabled:
        return 0.0
    if z <= slice_.z_min + params.lateral_lower_width:
        return -params.lateral_lower_depth
    if z >= slice_.z_max - params.lateral_lower_width:
        return -params.lateral_lower_depth
    return 0.0


def shaped_heights(
    params: ShapingParams,
    slice_: DomeSlice,
    x: float,
    u_mid: float,
    zs: Sequence[float],
) -> list[float]:
    """Shaped tongue height at each lateral position zs of the row at x.

    Bit for bit ``u_mid + edge_elevation_delta + groove_delta +
    lateral_lowering_delta`` at each z: the same float operations in the same
    order, with the slice fields and manner flags read once per row and the
    terms that are zero across the row skipped. u_mid is the midsagittal
    height at x and slice_ the dome slice there; zs must be finite.
    """
    # adding 0.0 turns -0.0 into 0.0, as the zero terms of the per-term sum
    # do; from then on no sum is -0.0, so adding a zero term changes nothing
    u0 = u_mid + 0.0
    z_center = slice_.z_center
    scale = 0.0
    if params.tt_manner is TipManner.FULL or params.td_manner is DorsumManner.FULL:
        ramp = min(1.0, max(0.0, (x - params.posterior_onset_x) / EDGE_RAMP_LENGTH))
        scale = params.tth * params.edge_elev_max * ramp
    if scale:
        half_width = slice_.half_width
        us = [u0 + scale * (abs(z - z_center) / half_width) ** 2 for z in zs]
    else:
        us = [u0] * len(zs)
    if params.groove_enabled:
        half, drop = 0.5 * params.groove_width, -params.groove_depth
        return [u + drop if abs(z - z_center) <= half else u for u, z in zip(us, zs)]
    if params.lateral_lower_enabled:
        left = slice_.z_min + params.lateral_lower_width
        right = slice_.z_max - params.lateral_lower_width
        drop = -params.lateral_lower_depth
        return [u + drop if z <= left or z >= right else u for u, z in zip(us, zs)]
    return us


def params_from_dict(doc: object) -> ShapingParams:
    """Strict ShapingParams parser for preset files."""
    check_keys(doc, "params", ShapingParams.__slots__)
    kwargs = {}
    for key, value in doc.items():
        if key in _ENUM_FIELDS:
            try:
                kwargs[key] = _ENUM_FIELDS[key](value)
            except ValueError:
                choices = [m.value for m in _ENUM_FIELDS[key]]
                raise ConfigError(f"params key {key!r} must be one of {choices}") from None
        elif key in _FLAG_FIELDS:
            if not isinstance(value, bool):
                raise ConfigError(f"params key {key!r} must be a boolean")
            kwargs[key] = value
        else:
            kwargs[key] = finite_float(value, "params key %r", key)
    try:
        return ShapingParams(**kwargs)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
