"""Lateral tongue shaping on top of a midsagittal contour.

The midsagittal contour gives the tongue height at the midline for every
anterior-posterior position. Three shaping mechanisms turn that 2D curve
into a full height field u_t(x, z):

* posterior lateral edge elevation, driven by the tongue tip height control
  (seals the airway against the gum ridge for apical closures),
* a central groove, a full-depth lowering of the cells whose offset
  |z - z_center| from the midline is at most groove_width / 2, along the
  entire tongue (fricative channel),
* lateral lowering, a full-depth lowering of the cells whose offset is at
  least half_width - lateral_lower_width, both tongue edges along the
  entire tongue (the /l/ configuration).

Both are one strip of offsets, so every term depends on a cell only through
its offset and cells at one offset get one height. The groove and lateral
lowering are mutually exclusive.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable

from ._frozen import Frozen
from .dome import DomeSlice
from .errors import MAX_MM, ConfigError, DomainError, check_keys, finite_float, member

__all__ = [
    "TipManner",
    "DorsumManner",
    "TongueContour",
    "ShapingParams",
    "EDGE_RAMP_LENGTH",
    "midsagittal_height",
    "midsagittal_heights",
    "edge_elevation_delta",
    "groove_delta",
    "lateral_lowering_delta",
    "row_constants",
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
        self._set(points)
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


class ShapingParams(Frozen):
    """Manner settings and coronal shaping magnitudes for one speech sound.

    The manners are members or their values, and the two flags are bools.
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
        if tt_manner.__class__ is not TipManner:
            tt_manner = member(TipManner, tt_manner, "tt_manner")
        if td_manner.__class__ is not DorsumManner:
            td_manner = member(DorsumManner, td_manner, "td_manner")
        self._set(
            tt_manner, td_manner, tth, edge_elev_max, posterior_onset_x, groove_enabled,
            groove_width, groove_depth, lateral_lower_enabled, lateral_lower_width,
            lateral_lower_depth,
        )
        # a truthy non-bool such as "no" would switch a strip on
        if groove_enabled.__class__ is not bool:
            raise DomainError("groove_enabled must be a boolean")
        if lateral_lower_enabled.__class__ is not bool:
            raise DomainError("lateral_lower_enabled must be a boolean")
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


def midsagittal_height(contour: TongueContour, x: float) -> float:
    """Piecewise-linear tongue height at the midline."""
    return midsagittal_heights(contour, (x,))[0]


def midsagittal_heights(contour: TongueContour, xs: Iterable[float]) -> list[float]:
    """``midsagittal_height`` at every x in xs, walking the contour with one cursor.

    The cursor only moves forward for nondecreasing xs, so a row of them costs
    one walk of the contour. A height between two points is their lerp, kept
    between them as _frozen.lerp keeps it, so a flat contour is flat and
    every height is within MAX_MM as the points are. Raises DomainError for
    the first x outside the contour's range.
    """
    pts = contour.points
    x_first, x_last = pts[0][0], pts[-1][0]
    heights = []
    i = 1  # pts[i] is the first point after pts[0] with x <= pts[i][0]
    for x in xs:
        if not x_first <= x <= x_last:
            raise DomainError(f"x={x} outside tongue contour range [{x_first}, {x_last}]")
        while pts[i][0] < x:
            i += 1
        while i > 1 and pts[i - 1][0] >= x:
            i -= 1
        (x0, u0), (x1, u1) = pts[i - 1], pts[i]
        if x == x0:
            heights.append(u0)
        elif x == x1:
            heights.append(u1)
        else:
            t = (x - x0) / (x1 - x0)
            u = (1.0 - t) * u0 + t * u1
            # lerp's clamp, inline as the raster calls this for every frame
            if u0 <= u1:
                heights.append(u0 if u < u0 else u1 if u > u1 else u)
            else:
                heights.append(u1 if u < u1 else u0 if u > u0 else u)
    return heights


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
    """Lateral lowering: full-depth lowering of both edge strips (or 0).

    A cell is in an edge strip when its offset |z - z_center| is at least
    half_width - lateral_lower_width, the one test for both edges.
    """
    if not params.lateral_lower_enabled:
        return 0.0
    if abs(z - slice_.z_center) >= slice_.half_width - params.lateral_lower_width:
        return -params.lateral_lower_depth
    return 0.0


# an Enum member read from its class costs about 0.17 us, in a call made once a row
_FULL_TIP, _FULL_DORSUM = TipManner.FULL, DorsumManner.FULL


def row_constants(
    params: ShapingParams, slice_: DomeSlice, x: float, u_mid: float
) -> tuple[float, float, float, float, float]:
    """The constants (u0, scale, lo, hi, drop) that shape the row at x.

    The shaped height at a cell of offset o = |z - z_center| is
    ``u0 + scale * (o / half_width) ** 2 + (drop if lo <= o <= hi else 0.0)``,
    bit for bit the per-term sum ``u_mid + edge_elevation_delta + groove_delta
    + lateral_lowering_delta``: the same float operations in the same order,
    as adding 0.0 changes no sum that is not -0.0. scale >= 0 is the edge
    weight's factor, zero unless a manner is full, and the groove and the
    lateral lowering are one strip, the offsets in [lo, hi] dropped by drop;
    a row with neither strip drops every offset, [0, inf], by 0.0. So the
    height never grows as o falls, except where it steps up out of the strip.
    """
    # adding 0.0 turns -0.0 into 0.0, as the zero terms of the per-term sum
    # do; from then on no sum is -0.0, so adding a zero term changes nothing
    u0 = u_mid + 0.0
    scale = 0.0
    if params.tt_manner is _FULL_TIP or params.td_manner is _FULL_DORSUM:
        # the ramp clamped to [0, 1], as edge_elevation_delta's min and max
        # clamp it, without their calls; a ramp of 0 leaves scale 0.0
        ramp = (x - params.posterior_onset_x) / EDGE_RAMP_LENGTH
        if ramp > 0.0:
            scale = params.tth * params.edge_elev_max * (ramp if ramp < 1.0 else 1.0)
    if params.groove_enabled:
        return u0, scale, 0.0, 0.5 * params.groove_width, -params.groove_depth
    if params.lateral_lower_enabled:
        lo = slice_.half_width - params.lateral_lower_width
        return u0, scale, lo, math.inf, -params.lateral_lower_depth
    return u0, scale, 0.0, math.inf, 0.0


def params_from_dict(doc: object) -> ShapingParams:
    """Strict ShapingParams parser for preset files; ShapingParams checks all but the floats."""
    check_keys(doc, "params", ShapingParams.__slots__)
    kwargs = {
        key: finite_float(value, "params key %r", key) if key in _FLOAT_FIELDS else value
        for key, value in doc.items()
    }
    try:
        return ShapingParams(**kwargs)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
