"""Preset tongue targets, target blending, and animation frame sequencing.

Targets are data files: one JSON document per speech sound, holding the
midsagittal contour and the shaping parameters. The packaged presets are
schematic, hand-tuned shapes, not measurements of any speaker.
"""

from __future__ import annotations

import functools
import math
from importlib import resources
from typing import Callable

from ._frozen import Frozen
from .errors import ConfigError, DomainError, check_keys, finite_float, parse_json
from .shaping import (
    _FLOAT_FIELDS,
    ShapingParams,
    TongueContour,
    midsagittal_height,
    params_from_dict,
)

__all__ = [
    "SoundTarget",
    "AnimationSpec",
    "SoundLibrary",
    "default_library",
    "get_target",
    "sound_names",
    "interpolate",
    "animate",
    "target_from_dict",
    "animation_spec_from_dict",
]

BLEND_GRID_POINTS = 64
MAX_FRAMES = 100_000  # frames one animation may have; bounds what animate allocates


class SoundTarget(Frozen):
    """A named articulatory target: contour plus shaping parameters."""

    __slots__ = ("name", "contour", "params")

    def __init__(self, name: str, contour: TongueContour, params: ShapingParams) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "contour", contour)
        object.__setattr__(self, "params", params)
        if not name:
            raise ConfigError("sound target needs a non-empty name")


class AnimationSpec(Frozen):
    """Timed sequence of targets: hold each, then blend into the next.

    hold_ms has one entry per target; transition_ms has one entry per gap
    between consecutive targets. All durations are positive, finite
    milliseconds; fps is finite and at least 1; the whole animation has at
    most MAX_FRAMES frames.
    """

    __slots__ = ("targets", "hold_ms", "transition_ms", "fps")

    def __init__(
        self,
        targets: tuple[SoundTarget, ...],
        hold_ms: tuple[float, ...],
        transition_ms: tuple[float, ...],
        fps: float,
    ) -> None:
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "hold_ms", hold_ms)
        object.__setattr__(self, "transition_ms", transition_ms)
        object.__setattr__(self, "fps", fps)
        if len(targets) < 1:
            raise ConfigError("animation needs at least one target")
        if len(hold_ms) != len(targets):
            raise ConfigError("hold_ms needs one duration per target")
        if len(transition_ms) != len(targets) - 1:
            raise ConfigError("transition_ms needs one duration per target gap")
        try:
            finite = all(math.isfinite(v) for v in (*hold_ms, *transition_ms, fps))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ConfigError("fps and all durations must be finite")
        if any(d <= 0 for d in hold_ms) or any(d <= 0 for d in transition_ms):
            raise ConfigError("all durations must be positive")
        if fps < 1:
            raise ConfigError(f"fps must be >= 1, got {fps}")
        # ceil(n) > MAX_FRAMES iff n > MAX_FRAMES; an infinite n fails too
        n_frames = self.total_ms * fps / 1000.0
        if not n_frames <= MAX_FRAMES:
            raise ConfigError(
                f"animation would need {n_frames:.0f} frames, more than {MAX_FRAMES}"
            )

    @property
    def total_ms(self) -> float:
        """Length of the timeline in ms, as animate reads it."""
        return _timeline(self)[1]


def _timeline(spec: AnimationSpec) -> tuple[list[tuple], float]:
    """The segments of spec and the time they end at, in ms.

    A segment is (start_ms, duration_ms, kind, payload): a "hold" of
    (target,) or a "transition" of (target, next target). The clock sums
    hold, transition, hold, ... in that order.
    """
    segments = []
    clock = 0.0
    for i, target in enumerate(spec.targets):
        segments.append((clock, spec.hold_ms[i], "hold", (target,)))
        clock += spec.hold_ms[i]
        if i < len(spec.transition_ms):
            segments.append(
                (clock, spec.transition_ms[i], "transition", (target, spec.targets[i + 1]))
            )
            clock += spec.transition_ms[i]
    return segments, clock


def target_from_dict(doc: object) -> SoundTarget:
    check_keys(doc, "sound target", ("name", "contour", "params"))
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("sound target needs a non-empty string 'name'")
    raw = doc.get("contour")
    if not isinstance(raw, list):
        raise ConfigError(f"sound target {name!r} needs a 'contour' list of [x, u] pairs")
    points = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"sound target {name!r}: contour entry #{i} must be [x, u]")
        x = finite_float(pair[0], "sound target %r: contour entry #%d x", name, i)
        u = finite_float(pair[1], "sound target %r: contour entry #%d u", name, i)
        points.append((x, u))
    try:
        contour = TongueContour(points=tuple(points))
    except DomainError as exc:
        raise ConfigError(f"sound target {name!r}: {exc}") from None
    return SoundTarget(name=name, contour=contour, params=params_from_dict(doc.get("params", {})))


def animation_spec_from_dict(doc: object) -> AnimationSpec:
    """Strict AnimationSpec parser: preset names, durations in ms and fps.

    hold_ms and transition_ms are each one number for every entry or a list
    with one number per entry; they default to 120 and 400 ms, fps to 25.
    """
    check_keys(doc, "animation spec", ("targets", "hold_ms", "transition_ms", "fps"))
    names = doc.get("targets")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names) or not names:
        raise ConfigError("animation spec needs a non-empty 'targets' list of sound names")
    targets = tuple(get_target(n) for n in names)

    def durations(key: str, count: int, default: float) -> tuple[float, ...]:
        value = doc.get(key, default)
        what = f"animation spec key {key!r}"
        if not isinstance(value, list):
            return (finite_float(value, what),) * count
        if len(value) != count:
            raise ConfigError(f"{what} must be a number or list of {count}")
        return tuple(finite_float(v, f"{what} entry #{i}") for i, v in enumerate(value))

    return AnimationSpec(
        targets=targets,
        hold_ms=durations("hold_ms", len(targets), 120.0),
        transition_ms=durations("transition_ms", len(targets) - 1, 400.0),
        fps=finite_float(doc.get("fps", 25), "animation spec key 'fps'"),
    )


class SoundLibrary:
    """Immutable name-addressed collection of sound targets."""

    def __init__(self, targets: list[SoundTarget], aliases: dict[str, str] | None = None):
        self._targets: dict[str, SoundTarget] = {}
        for t in targets:
            if t.name in self._targets:
                raise ConfigError(f"duplicate sound name {t.name!r}")
            self._targets[t.name] = t
        self._aliases = dict(aliases or {})

    def names(self) -> list[str]:
        return sorted(self._targets)

    def get(self, name: str) -> SoundTarget:
        key = self._aliases.get(name, name)
        try:
            return self._targets[key]
        except KeyError:
            raise ConfigError(
                f"unknown sound {name!r}; available: {', '.join(self.names())}"
            ) from None

    def __iter__(self):
        return iter(self._targets.values())

    def __len__(self) -> int:
        return len(self._targets)


def _parse_target_files(
    entries: list[tuple[str, bytes]],
) -> tuple[list[SoundTarget], dict[str, str]]:
    targets, aliases = [], {}
    for filename, data in entries:
        if filename == "palate.json" or not filename.endswith(".json"):
            continue
        target = target_from_dict(parse_json(data, filename))
        targets.append(target)
        stem = filename[: -len(".json")]
        if stem != target.name:
            aliases[stem] = target.name
    return targets, aliases


@functools.lru_cache(maxsize=None)
def default_library() -> SoundLibrary:
    """The packaged preset library (loaded once per process)."""
    presets = resources.files("palatogram").joinpath("presets")
    entries = sorted(
        (entry.name, entry.read_bytes())
        for entry in presets.iterdir()
        if entry.name.endswith(".json")
    )
    return SoundLibrary(*_parse_target_files(entries))


def get_target(name: str) -> SoundTarget:
    """Preset lookup in the packaged library."""
    return default_library().get(name)


def sound_names() -> list[str]:
    return default_library().names()


def interpolate(a: SoundTarget, b: SoundTarget, lam: float) -> SoundTarget:
    """Blend two targets; numeric values lerp, discrete ones switch at 0.5.

    Contours are resampled onto a common uniform grid over the overlap of
    their x ranges before the pointwise blend.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"blend fraction must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return a
    if lam == 1.0:
        return b
    return _blend(a, b)(lam)


def _blend(a: SoundTarget, b: SoundTarget) -> Callable[[float], SoundTarget]:
    """The blend of a into b as a function of lam in (0, 1).

    The common x grid, both contours' heights on it and the blended name do
    not depend on lam, so they are computed once; each call only lerps.
    """
    x_lo = max(a.contour.x_min, b.contour.x_min)
    x_hi = min(a.contour.x_max, b.contour.x_max)
    if not x_lo < x_hi:
        raise DomainError(f"contours of {a.name!r} and {b.name!r} do not overlap in x")
    heights = []  # (x, u of a, u of b) on the common grid
    for k in range(BLEND_GRID_POINTS):
        f = k / (BLEND_GRID_POINTS - 1)
        x = (1.0 - f) * x_lo + f * x_hi
        heights.append((x, midsagittal_height(a.contour, x), midsagittal_height(b.contour, x)))
    name = f"{a.name}~{b.name}"
    numeric = [(n, getattr(a.params, n), getattr(b.params, n)) for n in _FLOAT_FIELDS]
    discrete = [n for n in ShapingParams.__slots__ if n not in _FLOAT_FIELDS]

    def at(lam: float) -> SoundTarget:
        points = tuple((x, (1.0 - lam) * u0 + lam * u1) for x, u0, u1 in heights)
        blended = {n: (1.0 - lam) * va + lam * vb for n, va, vb in numeric}
        discrete_src = a.params if lam < 0.5 else b.params
        for n in discrete:
            blended[n] = getattr(discrete_src, n)
        return SoundTarget(
            name=name,
            contour=TongueContour(points=points),
            params=ShapingParams(**blended),
        )

    return at


def animate(spec: AnimationSpec) -> list[SoundTarget]:
    """One target per frame: holds repeat a target, transitions blend linearly.

    Each transition's blend is prepared once, on its first frame strictly
    inside it, and reused by the transition's later frames.
    """
    segments, total_ms = _timeline(spec)
    n_frames = math.ceil(total_ms * spec.fps / 1000.0)
    frames = []
    blends: dict[int, Callable[[float], SoundTarget]] = {}
    for k in range(n_frames):
        t = k * 1000.0 / spec.fps
        i = next((i for i, seg in enumerate(segments) if t < seg[0] + seg[1]), len(segments) - 1)
        start, duration, kind, payload = segments[i]
        if kind == "hold":
            frames.append(payload[0])
            continue
        lam = min(max((t - start) / duration, 0.0), 1.0)
        if lam == 0.0:
            frames.append(payload[0])
        elif lam == 1.0:
            frames.append(payload[1])
        else:
            if i not in blends:
                blends[i] = _blend(*payload)
            frames.append(blends[i](lam))
    return frames
