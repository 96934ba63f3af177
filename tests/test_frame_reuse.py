"""Frame-invariant work done once, against the per-frame code in oracles.py.

sounds.animate prepares one blend per transition, which builds its frames
without the constructors' checks, and render_palatal_svg one layout per
lattice. Both must give exactly what the per-frame oracles give:
the same targets float for float (and the same objects for holds and
endpoints), the same DomainError for contours that do not overlap, and the
same SVG bytes whatever order lattices arrive in.
"""

from __future__ import annotations

import math
import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from palatogram import (
    AnimationSpec,
    DomainError,
    EPGFrame,
    ShapingParams,
    SoundTarget,
    TipManner,
    TongueContour,
    animate,
    default_library,
    interpolate,
    render_palatal_svg,
)
import oracles

PRESETS = sorted(default_library(), key=lambda t: t.name)
# fps whose frame period 1000 / fps is exact, so whole-period durations put
# frames exactly on segment boundaries (a transition's first frame at lam == 0)
EXACT_FPS = (1.0, 2.0, 4.0, 5.0, 8.0, 10.0, 20.0, 25.0, 40.0, 50.0)
MAX_TEST_FRAMES = 400


def flat(name: str, u: float, x0: float, x1: float, **params) -> SoundTarget:
    return SoundTarget(
        name=name,
        contour=TongueContour(points=((x0, u), (x1, u))),
        params=ShapingParams(**params),
    )


def outcome(fn, spec):
    """What one animate implementation makes of spec: frames or the error text."""
    try:
        return "frames", fn(spec)
    except DomainError as exc:
        return "error", str(exc)


def assert_same_frames(got: list, want: list, spec: AnimationSpec) -> None:
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        if any(w is t for t in spec.targets):
            assert g is w, f"frame {k} should be the spec's own target"
        # repr round-trips floats exactly and tells -0.0 from 0.0
        assert repr(g) == repr(w), f"frame {k} differs"


@st.composite
def durations(draw, fps: float, count: int) -> tuple[float, ...]:
    period = 1000.0 / fps
    one = st.one_of(
        st.integers(1, 12).map(lambda n: n * period),  # on frame times
        st.floats(0.05, 1.5).map(lambda f: f * period),  # shorter than a frame or so
        st.floats(1.0, 2500.0),  # short and long, anywhere
    )
    return tuple(draw(st.lists(one, min_size=count, max_size=count)))


@st.composite
def specs(draw, targets=st.sampled_from(PRESETS)) -> AnimationSpec:
    n = draw(st.integers(1, 6))
    names = draw(st.lists(targets, min_size=n, max_size=n))
    fps = draw(st.one_of(st.sampled_from(EXACT_FPS), st.floats(1.0, 60.0)))
    hold = draw(durations(fps, n))
    transition = draw(durations(fps, n - 1))
    spec = AnimationSpec(targets=tuple(names), hold_ms=hold, transition_ms=transition, fps=fps)
    # keep each example quick; the frame count depends only on timing
    scale = min(1.0, MAX_TEST_FRAMES / (spec.total_ms * fps / 1000.0))
    if scale < 1.0:
        spec = AnimationSpec(
            targets=spec.targets,
            hold_ms=tuple(d * scale for d in hold),
            transition_ms=tuple(d * scale for d in transition),
            fps=fps,
        )
    return spec


@settings(max_examples=150, deadline=None)
@given(spec=specs())
@example(
    spec=AnimationSpec(
        targets=(PRESETS[0], PRESETS[5], PRESETS[0]),
        hold_ms=(100.0, 100.0, 100.0),
        transition_ms=(200.0, 100.0),
        fps=10.0,
    )
)
def test_animate_matches_per_frame_interpolate(spec):
    frames = animate(spec)
    assert_same_frames(frames, oracles.animate(spec), spec)
    assert len(frames) == math.ceil(spec.total_ms * spec.fps / 1000.0)


# contours over [0, 10], [5, 25] and [20, 40]: the first and last do not overlap
SPANS = (
    flat("front", 3.0, 0.0, 10.0),
    flat("mid", 5.0, 5.0, 25.0, tt_manner=TipManner.FULL, tth=1.0),
    flat("back", 8.0, 20.0, 40.0, groove_enabled=True, groove_depth=2.0),
)


@settings(max_examples=150, deadline=None)
@given(spec=specs(targets=st.sampled_from(SPANS)))
@example(  # the disjoint transition is shorter than a frame: no frame inside it
    spec=AnimationSpec(
        targets=(SPANS[0], SPANS[2], SPANS[1]),
        hold_ms=(100.0, 100.0, 100.0),
        transition_ms=(50.0, 100.0),
        fps=10.0,
    )
)
@example(  # a frame lands strictly inside the disjoint transition
    spec=AnimationSpec(
        targets=(SPANS[1], SPANS[0], SPANS[2]),
        hold_ms=(100.0, 100.0, 100.0),
        transition_ms=(100.0, 300.0),
        fps=10.0,
    )
)
def test_non_overlapping_contours_fail_at_the_same_frame(spec):
    got, want = outcome(animate, spec), outcome(oracles.animate, spec)
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_frames(got[1], want[1], spec)


def test_interpolate_matches_oracle_on_every_preset_pair():
    lams = (1e-300, 0.25, 0.49, 0.5, 0.51, 1.0 - 2**-53)
    for a in PRESETS:
        for b in PRESETS:
            for lam in lams:
                frame = interpolate(a, b, lam)
                assert repr(frame) == repr(oracles.interpolate(a, b, lam))
                # unpickling runs the constructors' checks on the unchecked values
                assert pickle.loads(pickle.dumps(frame)) == frame


def test_blended_frames_run_no_constructor(monkeypatch):
    spec = AnimationSpec(
        targets=(PRESETS[0], PRESETS[5], PRESETS[0]),
        hold_ms=(100.0, 100.0, 100.0),
        transition_ms=(200.0, 100.0),
        fps=10.0,
    )
    calls = []

    def counted(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            calls.append(cls.__name__)
            init(self, *args, **kwargs)

        return wrapper

    for cls in (ShapingParams, TongueContour, SoundTarget):
        monkeypatch.setattr(cls, "__init__", counted(cls))
    frames = animate(spec)
    assert any(all(f is not t for t in spec.targets) for f in frames)
    interpolate(PRESETS[0], PRESETS[5], 0.3)
    assert calls == []
    ShapingParams()  # the wrappers do count
    assert calls == ["ShapingParams"]


@st.composite
def frames(draw) -> EPGFrame:
    rows = draw(st.sampled_from((1, 2, 5, 8, 11)))
    cols = draw(st.sampled_from((1, 2, 3, 8, 12)))
    cells = draw(
        st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return EPGFrame(
        cells=tuple(tuple(row) for row in cells),
        x_of_row=tuple(float(i) for i in range(rows)),
    )


@settings(max_examples=200, deadline=None)
@given(jobs=st.lists(frames(), min_size=1, max_size=8))
def test_palatal_svg_matches_per_cell_emitter(jobs):
    # several lattices in turn within one example, so a layout cached under
    # too coarse a key is handed to the wrong frame
    for frame in jobs + jobs[::-1]:
        assert render_palatal_svg(frame) == oracles.palatal_svg(frame)


def test_palatal_svg_alternating_lattices():
    lattices = [
        EPGFrame(
            cells=tuple(tuple((i + j) % 3 == 0 for j in range(cols)) for i in range(rows)),
            x_of_row=tuple(float(i) for i in range(rows)),
        )
        for rows, cols in ((8, 8), (8, 12), (12, 8), (5, 8), (62, 62))
    ]
    for _ in range(2):
        for frame in lattices:
            assert render_palatal_svg(frame) == oracles.palatal_svg(frame)
