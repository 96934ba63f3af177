"""Independent numeric oracles used to freeze expected test values."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from palatogram import (
    AnimationSpec,
    ConfigError,
    DomainError,
    DomeShape,
    DomeSlice,
    DorsumManner,
    EPGFrame,
    FullContact,
    Intersection,
    NoContact,
    PalateGeometry,
    ShapingParams,
    SoundTarget,
    TipManner,
    TongueContour,
    dome_elevation,
    edge_elevation_delta,
    groove_delta,
    lateral_lowering_delta,
    midsagittal_height,
    slice_at,
)
from palatogram.epg import column_fractions
from palatogram.errors import MAX_MM, MIN_HALF_WIDTH_MM
from palatogram.render import (
    CONTACT_COLOR,
    HEIGHT,
    NO_CONTACT_COLOR,
    OUTLINE_COLOR,
    WIDTH,
    _SVG_HEAD,
    _horseshoe_path,
    _palatal_layout,
    fmt,
)
from palatogram.shaping import _FLOAT_FIELDS
from palatogram.sounds import BLEND_GRID_POINTS, MAX_FRAMES


def bisect_crossings(slice_: DomeSlice, u: float, tol: float = 1e-12) -> tuple[float, float]:
    """Find both z where the dome profile crosses elevation u, by bisection.

    Works on the forward dome equation only; independent of the analytic
    inversion it is used to check.
    """

    def solve(lo: float, hi: float, rising: bool) -> float:
        for _ in range(200):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            below = dome_elevation(slice_, mid) < u
            if below == rising:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    center = slice_.z_center
    return (
        solve(slice_.z_min, center, rising=True),
        solve(center, slice_.z_max, rising=False),
    )


def bisect_ellipse_elevation(slice_: DomeSlice, z: float, tol: float = 1e-12) -> float:
    """Solve the implicit half-ellipse equation for the elevation at z.

    Root of ((z - z_center)/a)^2 + (u/h)^2 - 1 in u over [0, h]; the implicit
    form is increasing in u, so bisection brackets the unique root.
    """
    e2 = ((z - slice_.z_center) / slice_.half_width) ** 2

    def implicit(u: float) -> float:
        return e2 + (u / slice_.h) ** 2 - 1.0

    lo, hi = 0.0, slice_.h
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if implicit(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dome_height(slice_: DomeSlice, z: float) -> float:
    """The dome profile at one z, by the scalar formula of the per-cell raster."""
    if not slice_.z_min <= z <= slice_.z_max:
        raise DomainError(f"z={z} outside lateral span of slice at x={slice_.x}")
    if slice_.shape is DomeShape.COSINE:
        q = abs(z - slice_.z_center) / slice_.span
        return 0.5 * slice_.h * (1.0 + math.cos(2.0 * math.pi * q))
    rad = (z - slice_.z_min) * (slice_.z_max - z)
    e = slice_.h * math.sqrt(max(rad, 0.0)) / slice_.half_width
    return e if e <= slice_.h else slice_.h


def shaped_height(
    params: ShapingParams, slice_: DomeSlice, x: float, u_mid: float, z: float
) -> float:
    """u_t at one point: the midline height plus each public shaping term, in order."""
    u = u_mid
    u += edge_elevation_delta(params, slice_, x, z)
    u += groove_delta(params, slice_, z)
    u += lateral_lowering_delta(params, slice_, z)
    return u


def epg_cells(
    geometry: PalateGeometry,
    contour: TongueContour,
    params: ShapingParams,
    rows: int,
    cols: int,
) -> tuple[tuple[bool, ...], ...]:
    """The EPG grid evaluated cell by cell, one shaping sum and one dome formula each.

    This is the evaluator compute_epg ran before its row kernel; the kernel
    must agree with it on every cell.
    """
    x_lo = max(geometry.x_min, contour.x_min)
    x_hi = min(geometry.x_max, contour.x_max)
    fracs = column_fractions(cols)
    cells = []
    for i in range(rows):
        x = x_lo + (i + 0.5) * (x_hi - x_lo) / rows
        sl = slice_at(geometry, x)
        try:
            u_mid = midsagittal_height(contour, x)
        except DomainError:
            cells.append((False,) * cols)
            continue
        row = []
        for f in fracs:
            z = sl.z_center + (f - 0.5) * sl.span
            row.append(shaped_height(params, sl, x, u_mid, z) >= dome_height(sl, z))
        cells.append(tuple(row))
    return tuple(cells)


def disc_pixels(cx: float, cy: float, r: float, w: int, h: int) -> list[tuple[int, int]]:
    """The (px, py) of a w x h canvas inside a disc, testing every pixel of its box."""
    x0, x1 = max(0, int(cx - r) - 1), min(w - 1, int(cx + r) + 1)
    y0, y1 = max(0, int(cy - r) - 1), min(h - 1, int(cy + r) + 1)
    rr = r * r
    return [
        (px, py)
        for py in range(y0, y1 + 1)
        for px in range(x0, x1 + 1)
        if (px + 0.5 - cx) ** 2 + (py + 0.5 - cy) ** 2 <= rr
    ]


def palatal_ppm(frame: EPGFrame) -> bytes:
    """The palatal PPM painted pixel by pixel into a grid of RGB tuples.

    This is the painter render_palatal_ppm used before it wrote scanline
    runs; both must give the same bytes.
    """
    w, h = WIDTH, HEIGHT
    white = (255, 255, 255)
    pixels = [[white] * w for _ in range(h)]

    def hex_rgb(color: str) -> tuple[int, int, int]:
        return (int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16))

    def put_disc(cx: float, cy: float, r: float, rgb: tuple[int, int, int]) -> None:
        for px, py in disc_pixels(cx, cy, r, w, h):
            pixels[py][px] = rgb

    centers, radius, margin = _palatal_layout(frame.rows, frame.cols)
    outline = hex_rgb(OUTLINE_COLOR)
    rx = 0.5 * w - margin
    ry = 0.42 * (h - 2 * margin)
    shoulder_y = margin + ry
    steps = 160
    for k in range(steps + 1):
        t = k / steps
        put_disc(margin, h - margin + t * (shoulder_y - (h - margin)), 1.2, outline)
        put_disc(w - margin, h - margin + t * (shoulder_y - (h - margin)), 1.2, outline)
        angle = math.pi * (1.0 - t)
        put_disc(0.5 * w + rx * math.cos(angle), shoulder_y - ry * math.sin(angle), 1.2, outline)
    contact_rgb = hex_rgb(CONTACT_COLOR)
    open_rgb = hex_rgb(NO_CONTACT_COLOR)
    for i, row in enumerate(frame.cells):
        for j, contacted in enumerate(row):
            cx, cy = centers[i][j]
            put_disc(cx, cy, radius, contact_rgb if contacted else open_rgb)
    channels = itertools.chain.from_iterable(itertools.chain.from_iterable(pixels))
    return f"P6\n{w} {h}\n255\n".encode("ascii") + bytes(channels)


def interpolate(a: SoundTarget, b: SoundTarget, lam: float) -> SoundTarget:
    """Blend two targets, resampling both contours afresh for this one lam.

    This is the blend sounds.interpolate made before one blend served a
    whole transition; both must give the same target, float for float.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"blend fraction must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return a
    if lam == 1.0:
        return b
    x_lo = max(a.contour.x_min, b.contour.x_min)
    x_hi = min(a.contour.x_max, b.contour.x_max)
    if not x_lo < x_hi:
        raise DomainError(f"contours of {a.name!r} and {b.name!r} do not overlap in x")
    points = []
    for k in range(BLEND_GRID_POINTS):
        f = k / (BLEND_GRID_POINTS - 1)
        x = (1.0 - f) * x_lo + f * x_hi
        u = (1.0 - lam) * midsagittal_height(a.contour, x) + lam * midsagittal_height(
            b.contour, x
        )
        points.append((x, u))
    discrete_src = a.params if lam < 0.5 else b.params
    blended = {}
    for name in ShapingParams.__slots__:
        if name not in _FLOAT_FIELDS:
            blended[name] = getattr(discrete_src, name)
        else:
            va = getattr(a.params, name)
            vb = getattr(b.params, name)
            blended[name] = (1.0 - lam) * va + lam * vb
    return SoundTarget(
        name=f"{a.name}~{b.name}",
        contour=TongueContour(points=tuple(points)),
        params=ShapingParams(**blended),
    )


def animate(spec: AnimationSpec) -> list[SoundTarget]:
    """The frame list with one full interpolate call per transition frame."""
    segments = []  # (start_ms, duration_ms, kind, payload)
    clock = 0.0
    for i, target in enumerate(spec.targets):
        segments.append((clock, spec.hold_ms[i], "hold", (target,)))
        clock += spec.hold_ms[i]
        if i < len(spec.targets) - 1:
            segments.append(
                (clock, spec.transition_ms[i], "transition", (target, spec.targets[i + 1]))
            )
            clock += spec.transition_ms[i]
    n_frames = math.ceil(clock * spec.fps / 1000.0)
    frames = []
    for k in range(n_frames):
        t = k * 1000.0 / spec.fps
        seg = next((s for s in segments if t < s[0] + s[1]), segments[-1])
        start, duration, kind, payload = seg
        if kind == "hold":
            frames.append(payload[0])
        else:
            lam = min(max((t - start) / duration, 0.0), 1.0)
            frames.append(interpolate(payload[0], payload[1], lam))
    return frames


def palatal_svg(frame: EPGFrame) -> bytes:
    """The palatal SVG laid out and formatted afresh, cell by cell.

    This is the emitter render_palatal_svg used before it kept one layout
    per lattice; both must give the same bytes.
    """
    parts = [_SVG_HEAD]
    centers, radius, margin = _palatal_layout(frame.rows, frame.cols)
    parts.append(
        f'<path d="{_horseshoe_path(margin)}" fill="none" '
        f'stroke="{OUTLINE_COLOR}" stroke-width="2"/>'
    )
    f = fmt
    for i, row in enumerate(frame.cells):
        for j, contacted in enumerate(row):
            cx, cy = centers[i][j]
            fill = CONTACT_COLOR if contacted else NO_CONTACT_COLOR
            parts.append(
                f'<circle cx="{f(cx)}" cy="{f(cy)}" r="{f(radius)}" fill="{fill}"/>'
            )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


# The value classes as frozen dataclasses, each with the fields, defaults and
# checks the package's slotted class has; the value class tests compare the two.


@dataclass(frozen=True)
class DataclassDomeSlice:
    x: float
    z_min: float
    z_max: float
    h: float
    shape: DomeShape = DomeShape.COSINE

    def __post_init__(self) -> None:
        for name in ("x", "z_min", "z_max", "h"):
            if not -MAX_MM <= getattr(self, name) <= MAX_MM:
                raise DomainError(
                    f"slice field {name} must be finite and at most 1e+06 in magnitude"
                )
        if not (self.z_max - self.z_min) / 2 >= MIN_HALF_WIDTH_MM:
            raise DomainError(
                f"slice at x={self.x}: half width of [{self.z_min}, {self.z_max}] "
                "must be at least 1e-06"
            )
        if not self.h > 0:
            raise DomainError(f"slice at x={self.x}: dome height must be positive, got {self.h}")


@dataclass(frozen=True)
class DataclassPalateGeometry:
    slices: tuple[DomeSlice, ...]

    def __post_init__(self) -> None:
        if len(self.slices) < 2:
            raise DomainError("a palate needs at least two slices")
        xs = [s.x for s in self.slices]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("slice x positions must be strictly increasing")
        if any(s.shape is not self.slices[0].shape for s in self.slices):
            raise DomainError("all slices of a palate must share one dome shape")


@dataclass(frozen=True)
class DataclassNoContact:
    pass


@dataclass(frozen=True)
class DataclassIntersection:
    z_left: float
    z_right: float


@dataclass(frozen=True)
class DataclassFullContact:
    z_apex: float


@dataclass(frozen=True)
class DataclassEPGFrame:
    cells: tuple[tuple[bool, ...], ...]
    x_of_row: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.cells) == 0 or len(self.cells[0]) == 0:
            raise DomainError("an EPG frame needs at least one row and one column")
        if len({len(r) for r in self.cells}) != 1:
            raise DomainError("every row of cells must have the same length")
        if len(self.x_of_row) != len(self.cells):
            raise DomainError("x_of_row needs one position per row")
        xs = self.x_of_row
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("x_of_row must be strictly increasing")

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @property
    def z_frac_of_col(self) -> tuple[float, ...]:
        return column_fractions(self.cols)


@dataclass(frozen=True)
class DataclassTongueContour:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise DomainError("a tongue contour needs at least two points")
        for x, u in self.points:
            if not (-MAX_MM <= x <= MAX_MM and -MAX_MM <= u <= MAX_MM):
                raise DomainError(
                    "contour coordinates must be finite and at most 1e+06 in magnitude"
                )
        xs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("contour x positions must be strictly increasing")


@dataclass(frozen=True)
class DataclassShapingParams:
    tt_manner: TipManner = TipManner.NEAR
    td_manner: DorsumManner = DorsumManner.NEAR
    tth: float = 0.0
    edge_elev_max: float = 8.0
    posterior_onset_x: float = 12.0
    groove_enabled: bool = False
    groove_width: float = 8.0
    groove_depth: float = 23.0
    lateral_lower_enabled: bool = False
    lateral_lower_width: float = 6.4
    lateral_lower_depth: float = 23.0

    def __post_init__(self) -> None:
        for name, enum in (("tt_manner", TipManner), ("td_manner", DorsumManner)):
            value, choices = getattr(self, name), [m.value for m in enum]
            if value not in choices:
                raise DomainError(f"{name} must be one of {choices}, got {value!r}")
            object.__setattr__(self, name, enum(value))
        for name in ("groove_enabled", "lateral_lower_enabled"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise DomainError(f"{name} must be a boolean")
        for name in _FLOAT_FIELDS:
            if not -MAX_MM <= getattr(self, name) <= MAX_MM:
                raise DomainError(f"{name} must be finite and at most 1e+06 in magnitude")
        if not 0.0 <= self.tth <= 1.0:
            raise DomainError(f"tth must lie in [0, 1], got {self.tth}")
        for name in (
            "edge_elev_max",
            "groove_width",
            "groove_depth",
            "lateral_lower_width",
            "lateral_lower_depth",
        ):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.groove_enabled and self.lateral_lower_enabled:
            raise DomainError("groove and lateral lowering are mutually exclusive")


@dataclass(frozen=True)
class DataclassSoundTarget:
    name: str
    contour: TongueContour
    params: ShapingParams

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("sound target needs a non-empty name")


@dataclass(frozen=True)
class DataclassAnimationSpec:
    targets: tuple[SoundTarget, ...]
    hold_ms: tuple[float, ...]
    transition_ms: tuple[float, ...]
    fps: float

    def __post_init__(self) -> None:
        if len(self.targets) < 1:
            raise ConfigError("animation needs at least one target")
        if len(self.hold_ms) != len(self.targets):
            raise ConfigError("hold_ms needs one duration per target")
        if len(self.transition_ms) != len(self.targets) - 1:
            raise ConfigError("transition_ms needs one duration per target gap")
        if not all(math.isfinite(v) for v in (*self.hold_ms, *self.transition_ms, self.fps)):
            raise ConfigError("fps and all durations must be finite")
        if any(d <= 0 for d in self.hold_ms) or any(d <= 0 for d in self.transition_ms):
            raise ConfigError("all durations must be positive")
        if self.fps < 1:
            raise ConfigError(f"fps must be >= 1, got {self.fps}")
        n_frames = self.total_ms * self.fps / 1000.0
        if not n_frames <= MAX_FRAMES:
            raise ConfigError(
                f"animation would need {n_frames:.0f} frames, more than {MAX_FRAMES}"
            )

    @property
    def total_ms(self) -> float:
        clock = 0.0
        for i, hold in enumerate(self.hold_ms):
            clock += hold
            if i < len(self.transition_ms):
                clock += self.transition_ms[i]
        return clock


DATACLASS_OF = {
    DomeSlice: DataclassDomeSlice,
    PalateGeometry: DataclassPalateGeometry,
    NoContact: DataclassNoContact,
    Intersection: DataclassIntersection,
    FullContact: DataclassFullContact,
    EPGFrame: DataclassEPGFrame,
    TongueContour: DataclassTongueContour,
    ShapingParams: DataclassShapingParams,
    SoundTarget: DataclassSoundTarget,
    AnimationSpec: DataclassAnimationSpec,
}
