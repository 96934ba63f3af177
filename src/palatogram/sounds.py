"""Preset tongue targets, target blending, and animation frame sequencing.

Targets are data files: one JSON document per speech sound, holding the
midsagittal contour and the shaping parameters. The packaged presets are
schematic, hand-tuned shapes, not measurements of any speaker.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError, DomainError
from .shaping import DorsumManner, ShapingParams, TipManner, TongueContour, midsagittal_height

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
    "target_to_dict",
]

BLEND_GRID_POINTS = 64

_ENUM_FIELDS = {"tt_manner": TipManner, "td_manner": DorsumManner}
_FLAG_FIELDS = {"groove_enabled", "lateral_lower_enabled"}
_PARAM_FIELDS = {f.name for f in fields(ShapingParams)}


@dataclass(frozen=True)
class SoundTarget:
    """A named articulatory target: contour plus shaping parameters."""

    name: str
    contour: TongueContour
    params: ShapingParams

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("sound target needs a non-empty name")


@dataclass(frozen=True)
class AnimationSpec:
    """Timed sequence of targets: hold each, then blend into the next.

    hold_ms has one entry per target; transition_ms has one entry per gap
    between consecutive targets. All durations are positive, finite
    milliseconds; fps is finite and at least 1.
    """

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

    @property
    def total_ms(self) -> float:
        return sum(self.hold_ms) + sum(self.transition_ms)


def params_from_dict(doc: object) -> ShapingParams:
    """Strict ShapingParams parser for preset files."""
    if not isinstance(doc, dict):
        raise ConfigError("params must be a JSON object")
    unknown = set(doc) - _PARAM_FIELDS
    if unknown:
        raise ConfigError(f"params has unknown keys: {sorted(unknown)}")
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
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"params key {key!r} must be a number")
            kwargs[key] = float(value)
    try:
        return ShapingParams(**kwargs)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def params_to_dict(params: ShapingParams) -> dict:
    out = {}
    for f in fields(ShapingParams):
        value = getattr(params, f.name)
        out[f.name] = value.value if f.name in _ENUM_FIELDS else value
    return out


def target_from_dict(doc: object) -> SoundTarget:
    if not isinstance(doc, dict):
        raise ConfigError("sound target must be a JSON object")
    unknown = set(doc) - {"name", "contour", "params"}
    if unknown:
        raise ConfigError(f"sound target has unknown keys: {sorted(unknown)}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("sound target needs a non-empty string 'name'")
    raw = doc.get("contour")
    if not isinstance(raw, list):
        raise ConfigError(f"sound target {name!r} needs a 'contour' list of [x, u] pairs")
    points = []
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)
        ):
            raise ConfigError(f"sound target {name!r}: contour entry #{i} must be [x, u]")
        points.append((float(pair[0]), float(pair[1])))
    try:
        contour = TongueContour(points=tuple(points))
    except DomainError as exc:
        raise ConfigError(f"sound target {name!r}: {exc}") from None
    return SoundTarget(name=name, contour=contour, params=params_from_dict(doc.get("params", {})))


def target_to_dict(target: SoundTarget) -> dict:
    return {
        "name": target.name,
        "contour": [[x, u] for x, u in target.contour.points],
        "params": params_to_dict(target.params),
    }


class SoundLibrary:
    """Immutable name-addressed collection of sound targets."""

    def __init__(self, targets: list[SoundTarget], aliases: dict[str, str] | None = None):
        self._targets: dict[str, SoundTarget] = {}
        for t in targets:
            if t.name in self._targets:
                raise ConfigError(f"duplicate sound name {t.name!r}")
            self._targets[t.name] = t
        self._aliases = dict(aliases or {})

    @classmethod
    def from_dir(cls, path: str | Path) -> "SoundLibrary":
        """Load every *.json target in a directory; file stems become aliases."""
        directory = Path(path)
        entries = [(f.name, f.read_text(encoding="utf-8")) for f in sorted(directory.glob("*.json"))]
        if not any(name != "palate.json" for name, _ in entries):
            raise ConfigError(f"no sound target files found in {directory}")
        return cls(*_parse_target_files(entries))

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


def _parse_target_files(entries: list[tuple[str, str]]) -> tuple[list[SoundTarget], dict[str, str]]:
    targets, aliases = [], {}
    for filename, text in entries:
        if filename == "palate.json" or not filename.endswith(".json"):
            continue
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {filename}: {exc}") from None
        target = target_from_dict(doc)
        targets.append(target)
        stem = filename[: -len(".json")]
        if stem != target.name:
            aliases[stem] = target.name
    return targets, aliases


_default_library: SoundLibrary | None = None


def default_library() -> SoundLibrary:
    """The packaged preset library (loaded once per process)."""
    global _default_library
    if _default_library is None:
        presets = resources.files("palatogram").joinpath("presets")
        entries = sorted(
            (entry.name, entry.read_text(encoding="utf-8"))
            for entry in presets.iterdir()
            if entry.name.endswith(".json")
        )
        _default_library = SoundLibrary(*_parse_target_files(entries))
    return _default_library


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
    for fld in fields(ShapingParams):
        if fld.name in _ENUM_FIELDS or fld.name in _FLAG_FIELDS:
            blended[fld.name] = getattr(discrete_src, fld.name)
        else:
            va = getattr(a.params, fld.name)
            vb = getattr(b.params, fld.name)
            blended[fld.name] = (1.0 - lam) * va + lam * vb
    return SoundTarget(
        name=f"{a.name}~{b.name}",
        contour=TongueContour(points=tuple(points)),
        params=ShapingParams(**blended),
    )


def animate(spec: AnimationSpec) -> list[SoundTarget]:
    """One target per frame: holds repeat a target, transitions blend linearly."""
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
