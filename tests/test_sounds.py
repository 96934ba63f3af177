from __future__ import annotations

import itertools
import math

import pytest

from palatogram import (
    AnimationSpec,
    ConfigError,
    DomainError,
    DomeShape,
    ShapingParams,
    SoundLibrary,
    SoundTarget,
    TipManner,
    TongueContour,
    animate,
    compute_epg,
    default_library,
    default_palate,
    get_target,
    interpolate,
    midsagittal_height,
    slice_at,
    sound_names,
)
from palatogram.sounds import (
    MAX_FRAMES,
    _parse_target_files,
    animation_spec_from_dict,
    target_from_dict,
)
from palatogram.shaping import shaped_heights
from patterns import PATTERN_CHECKS

EXPECTED_NAMES = ["a:", "i:", "j", "k", "l", "s", "t", "u:", "x", "ç", "ʃ", "θ"]


def flat_target(name: str, u: float, x0: float = 0.0, x1: float = 40.0) -> SoundTarget:
    return SoundTarget(
        name=name,
        contour=TongueContour(points=((x0, u), (x1, u))),
        params=ShapingParams(),
    )


def test_preset_names():
    assert sound_names() == EXPECTED_NAMES


def test_unknown_name_lists_available():
    with pytest.raises(ConfigError) as err:
        get_target("b")
    for name in EXPECTED_NAMES:
        assert name in str(err.value)


def test_ascii_aliases_resolve():
    assert get_target("theta").name == "θ"
    assert get_target("esh").name == "ʃ"
    assert get_target("a_long").name == "a:"


def test_a_contour_below_baseline_under_palate():
    geometry = default_palate()
    target = get_target("a:")
    for k in range(81):
        x = geometry.x_min + (geometry.x_max - geometry.x_min) * k / 80
        assert midsagittal_height(target.contour, x) < 0.0


def test_t_preset_fields():
    geometry = default_palate()
    target = get_target("t")
    assert target.params.tt_manner is TipManner.FULL
    assert target.params.tth == 1.0
    anterior_x = 2.5
    u = midsagittal_height(target.contour, anterior_x)
    assert u >= slice_at(geometry, anterior_x).h  # anterior closure


def test_l_preset_fields():
    target = get_target("l")
    assert target.params.tt_manner is TipManner.LATERAL
    assert target.params.lateral_lower_enabled


@pytest.mark.parametrize("shape", list(DomeShape))
def test_s_groove_channel_stays_open(shape):
    from palatogram import dome_elevation

    geometry = default_palate(shape)
    target = get_target("s")
    for k in range(41):
        x = geometry.x_min + 20.0 * k / 40  # anterior half of the palate
        sl = slice_at(geometry, x)
        u_mid = midsagittal_height(target.contour, x)
        (midline,) = shaped_heights(target.params, sl, x, u_mid, (sl.z_center,))
        assert midline < dome_elevation(sl, sl.z_center)


@pytest.mark.parametrize("shape", list(DomeShape))
def test_pattern_classes_both_models(shape):
    geometry = default_palate(shape)
    failures = []
    for name, check in PATTERN_CHECKS.items():
        target = get_target(name)
        frame = compute_epg(geometry, target.contour, target.params, rows=8, cols=8)
        failures += [f"{shape.value}: {msg}" for msg in check(frame)]
    assert not failures, "\n".join(failures)


def test_duplicate_names_rejected():
    target = flat_target("dup", 1.0)
    with pytest.raises(ConfigError, match="duplicate"):
        SoundLibrary([target, target])


def test_bad_target_file_is_named_in_the_error():
    for data in (
        b'{"name": "hum", "contour": [[0, 1], [40, 1]]}\xff',
        b'{"name": "hum", "contour": [[0, NaN], [40, 1]]}',
    ):
        with pytest.raises(ConfigError, match="hum.json"):
            _parse_target_files([("hum.json", data)])


def test_target_file_validation():
    with pytest.raises(ConfigError, match="unknown keys"):
        target_from_dict({"name": "z", "contour": [[0, 1], [1, 2]], "params": {}, "color": 1})
    with pytest.raises(ConfigError):
        target_from_dict({"name": "z", "contour": [[0, 1]], "params": {}})
    with pytest.raises(ConfigError, match="tt_manner"):
        target_from_dict(
            {"name": "z", "contour": [[0, 1], [1, 2]], "params": {"tt_manner": "open"}}
        )


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"name": "z", "contour": [[0, 1], [1, "2"]]},
            "sound target 'z': contour entry #1 u must be a number, got str",
        ),
        (
            {"name": "z", "contour": [[0, 1], [1]]},
            "sound target 'z': contour entry #1 must be [x, u]",
        ),
        (
            {"name": "z", "contour": [[0, 1], [1, 2]], "params": {"tth": None}},
            "params key 'tth' must be a number, got NoneType",
        ),
    ],
    ids=["contour-number", "contour-pair", "params-number"],
)
def test_target_error_messages(doc, message):
    with pytest.raises(ConfigError) as info:
        target_from_dict(doc)
    assert str(info.value) == message


def test_interpolate_endpoints():
    a, b = flat_target("a", 2.0), flat_target("b", 8.0)
    assert interpolate(a, b, 0.0) is a
    assert interpolate(a, b, 1.0) is b


def test_interpolate_midpoint_blends_flat_contours():
    a, b = flat_target("a", 2.0), flat_target("b", 8.0)
    mid = interpolate(a, b, 0.5)
    assert len(mid.contour.points) == 64
    assert all(u == pytest.approx(5.0) for _, u in mid.contour.points)


def test_interpolate_discrete_switch():
    a = flat_target("a", 2.0)
    b = SoundTarget(
        name="b",
        contour=a.contour,
        params=ShapingParams(tt_manner=TipManner.FULL, tth=1.0),
    )
    assert interpolate(a, b, 0.49).params.tt_manner is TipManner.NEAR
    assert interpolate(a, b, 0.5).params.tt_manner is TipManner.FULL
    assert interpolate(a, b, 0.5).params.tth == pytest.approx(0.5)


def test_interpolate_rejects_disjoint():
    a = flat_target("a", 2.0, 0.0, 10.0)
    b = flat_target("b", 3.0, 20.0, 30.0)
    with pytest.raises(DomainError):
        interpolate(a, b, 0.5)


def test_animation_spec_validation():
    a = flat_target("a", 1.0)
    with pytest.raises(ConfigError):
        AnimationSpec(targets=(a,), hold_ms=(100.0, 100.0), transition_ms=(), fps=10.0)
    with pytest.raises(ConfigError):
        AnimationSpec(targets=(a,), hold_ms=(0.0,), transition_ms=(), fps=10.0)
    with pytest.raises(ConfigError):
        AnimationSpec(targets=(a,), hold_ms=(100.0,), transition_ms=(), fps=0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["hold_ms", "transition_ms", "fps"])
def test_animation_spec_rejects_non_finite(field, bad):
    a, b = flat_target("a", 1.0), flat_target("b", 2.0)
    kwargs = {"targets": (a, b), "hold_ms": (100.0, 100.0), "transition_ms": (100.0,), "fps": 10.0}
    kwargs[field] = bad if field == "fps" else (bad,) + kwargs[field][1:]
    with pytest.raises(ConfigError, match="finite"):
        AnimationSpec(**kwargs)


def test_animation_spec_frame_cap():
    a, b = flat_target("a", 1.0), flat_target("b", 2.0)
    at_cap = AnimationSpec(targets=(a,), hold_ms=(1000.0,), transition_ms=(), fps=MAX_FRAMES)
    assert at_cap.total_ms * at_cap.fps / 1000.0 == MAX_FRAMES
    with pytest.raises(ConfigError, match="frames"):
        AnimationSpec(targets=(a,), hold_ms=(1000.0,), transition_ms=(), fps=MAX_FRAMES + 1)
    with pytest.raises(ConfigError, match="frames"):
        AnimationSpec(targets=(a, b), hold_ms=(120.0, 120.0), transition_ms=(400.0,), fps=5e8)
    # each duration finite, their sum not: this used to reach math.ceil(inf)
    with pytest.raises(ConfigError, match="frames"):
        AnimationSpec(targets=(a, b), hold_ms=(1e308, 1e308), transition_ms=(1e308,), fps=1.0)


def test_animation_spec_from_dict():
    spec = animation_spec_from_dict({"targets": ["t", "s", "t"]})
    assert [t.name for t in spec.targets] == ["t", "s", "t"]
    assert spec.targets[0] is get_target("t")
    assert (spec.hold_ms, spec.transition_ms, spec.fps) == ((120.0,) * 3, (400.0,) * 2, 25.0)
    spec = animation_spec_from_dict(
        {"targets": ["t", "s"], "hold_ms": [50, 60], "transition_ms": 70, "fps": 10}
    )
    assert (spec.hold_ms, spec.transition_ms, spec.fps) == ((50.0, 60.0), (70.0,), 10.0)
    for bad, match in (
        ([], "object"),
        ({"targets": ["t"], "loop": True}, "unknown keys"),
        ({"targets": []}, "targets"),
        ({"targets": ["t", "zz"]}, "unknown sound"),
        ({"targets": ["t", "s"], "hold_ms": [1]}, "hold_ms"),
        ({"targets": ["t", "s"], "transition_ms": True}, "transition_ms"),
        ({"targets": ["t"], "fps": "25"}, "fps"),
    ):
        with pytest.raises(ConfigError, match=match):
            animation_spec_from_dict(bad)


def test_animate_single_hold():
    a = flat_target("a", 1.0)
    spec = AnimationSpec(targets=(a,), hold_ms=(1000.0,), transition_ms=(), fps=10.0)
    frames = animate(spec)
    assert len(frames) == 10
    assert all(f is a for f in frames)


def test_animate_frame_count():
    a, b = flat_target("a", 2.0), flat_target("b", 8.0)
    spec = AnimationSpec(targets=(a, b), hold_ms=(100.0, 100.0), transition_ms=(100.0,), fps=10.0)
    frames = animate(spec)
    assert len(frames) == 3


def test_animate_transition_midpoint():
    a, b = flat_target("a", 2.0), flat_target("b", 8.0)
    spec = AnimationSpec(targets=(a, b), hold_ms=(100.0, 100.0), transition_ms=(200.0,), fps=10.0)
    frames = animate(spec)
    assert len(frames) == 4
    assert frames[0] is a
    mid = frames[2]  # t = 200 ms, halfway through the 100..300 ms transition
    assert all(u == pytest.approx(5.0) for _, u in mid.contour.points)


@pytest.mark.parametrize("shape", list(DomeShape))
def test_transition_continuity_budget(shape):
    # every ordered preset pair, blended at teaching speed, flips at most
    # 15% of the grid between consecutive frames
    geometry = default_palate(shape)
    targets = {t.name: t for t in default_library()}
    worst = 0
    for a, b in itertools.permutations(sorted(targets), 2):
        spec = AnimationSpec(
            targets=(targets[a], targets[b]),
            hold_ms=(120.0, 120.0),
            transition_ms=(1600.0,),
            fps=25.0,
        )
        grids = [
            compute_epg(geometry, t.contour, t.params, rows=8, cols=8).cells
            for t in animate(spec)
        ]
        for ga, gb in zip(grids, grids[1:]):
            flips = sum(ca != cb for ra, rb in zip(ga, gb) for ca, cb in zip(ra, rb))
            worst = max(worst, flips)
            assert flips <= 0.15 * 64, f"{a}->{b}: {flips} flips"
    assert worst > 0  # transitions do change the pattern
