"""The slotted value classes against the frozen dataclasses they replace.

For random field values, valid or not, each value class must do what the
frozen dataclass in oracles.py does: raise the same error, or build a value
with the same repr text, equality and hash, the same constructor defaults and
keywords, no assignment or deletion, and equal copies and pickle round trips.
The package must also import without the dataclasses module.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import palatogram
from palatogram import (
    AnimationSpec,
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
    get_target,
)
from palatogram._frozen import Frozen
from palatogram.errors import MAX_MM, MIN_MM
import oracles

# small values, so that equal draws and ordering failures both come up often
numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 10.0, float("nan"), float("inf")]),
    st.floats(-20.0, 20.0),
)
# widths, depths and the like: mostly valid, so that later checks are reached
magnitudes = st.sampled_from([0.0, 1.0, 6.4, 8.0, 12.0, 23.0, -1.0, float("nan")])
# mostly bools, so that later checks are reached
flags = st.one_of(st.booleans(), st.sampled_from([0, 1, "no", None]))
ascending = st.lists(st.floats(-20.0, 20.0), max_size=4).map(lambda xs: tuple(sorted(xs)))

slices = st.builds(
    DomeSlice,
    x=st.floats(-20.0, 20.0),
    z_min=st.floats(-10.0, -1.0),
    z_max=st.floats(1.0, 10.0),
    h=st.floats(0.5, 15.0),
    shape=st.sampled_from(DomeShape),
)
contours = st.builds(
    TongueContour,
    points=st.sampled_from([((0.0, 1.0), (10.0, 2.0)), ((0.0, -1.0), (5.0, 0.5), (40.0, 3.0))]),
)
params = st.builds(ShapingParams, tth=st.sampled_from([0.0, 0.5, 1.0]))
targets = st.builds(SoundTarget, name=st.sampled_from(["a", "t"]), contour=contours, params=params)


def epg_args(draw) -> tuple:
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(0, 4))
    cells = [tuple(draw(st.booleans()) for _ in range(cols)) for _ in range(rows)]
    if rows and draw(st.booleans()):  # one row of another length
        cells[draw(st.integers(0, rows - 1))] = (True,) * draw(st.integers(0, 5))
    return tuple(cells), draw(ascending)


# one strategy per class: its fields in constructor order, as a tuple
ARGS = {
    DomeSlice: lambda draw: (
        draw(numbers),
        draw(numbers),
        draw(numbers),
        draw(numbers),
        draw(st.sampled_from(DomeShape)),
    ),
    PalateGeometry: lambda draw: (tuple(draw(st.lists(slices, max_size=3))),),
    NoContact: lambda draw: (),
    Intersection: lambda draw: (draw(numbers), draw(numbers)),
    FullContact: lambda draw: (draw(numbers),),
    EPGFrame: epg_args,
    TongueContour: lambda draw: (
        tuple(draw(st.lists(st.tuples(numbers, numbers), max_size=4))),
    ),
    ShapingParams: lambda draw: (
        draw(st.sampled_from([*TipManner, "full", "lateral", "bogus", None])),
        draw(st.sampled_from([*DorsumManner, "near", "Full", 0])),
        draw(st.sampled_from([0.0, 0.3, 1.0, 1.5, float("nan")])),
        draw(magnitudes),
        draw(numbers),
        draw(flags),
        draw(magnitudes),
        draw(magnitudes),
        draw(flags),
        draw(magnitudes),
        draw(magnitudes),
    ),
    SoundTarget: lambda draw: (draw(st.sampled_from(["", "t", "s~t"])), draw(contours), draw(params)),
    AnimationSpec: lambda draw: (
        tuple(draw(st.lists(targets, max_size=3))),
        tuple(draw(st.lists(st.sampled_from([100.0, 0.0, 1e308]), max_size=3))),
        tuple(draw(st.lists(st.sampled_from([200.0, -1.0]), max_size=2))),
        draw(st.sampled_from([10.0, 0.5, 1e9, float("nan")])),
    ),
}
CLASSES = list(ARGS)
VALUE_CLASS_NAME = {old.__name__: new.__name__ for new, old in oracles.DATACLASS_OF.items()}


def build(cls, args: tuple, kwargs: dict | None = None):
    """(value, None) or (None, (error type, message)) for cls(*args, **kwargs).

    A dataclass's name in its message reads as the value class's name.
    """
    try:
        return cls(*args, **(kwargs or {})), None
    except Exception as exc:  # the comparison is of whichever error arises
        name = cls.__name__
        return None, (type(exc), str(exc).replace(name, VALUE_CLASS_NAME.get(name, name)))


@functools.cache
def lookalike_class(cls: type) -> type:
    """Another value class with the same fields as cls."""
    return type("Lookalike", (Frozen,), {"__slots__": cls.__slots__})


def lookalike(value: Frozen) -> Frozen:
    twin = object.__new__(lookalike_class(type(value)))
    for name in value.__slots__:
        object.__setattr__(twin, name, getattr(value, name))
    return twin


def renamed(old_repr: str, cls: type) -> str:
    """A dataclass's repr text under the name of the value class it stands for."""
    return cls.__name__ + old_repr[len(oracles.DATACLASS_OF[cls].__name__) :]


def test_every_value_class_has_its_dataclass():
    assert set(CLASSES) == set(oracles.DATACLASS_OF)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_and_defaults_match_the_dataclass(cls):
    old = oracles.DATACLASS_OF[cls]
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(old))
    assert cls.__match_args__ == old.__match_args__
    assert not dataclasses.is_dataclass(cls)
    defaults = [f.default for f in dataclasses.fields(old) if f.default is not dataclasses.MISSING]
    if len(defaults) == len(cls.__slots__):
        assert cls() == cls(*defaults)
        assert repr(cls()) == renamed(repr(old()), cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_value_class_matches_the_dataclass(cls, data):
    old_cls = oracles.DATACLASS_OF[cls]
    args = ARGS[cls](data.draw)
    new, new_error = build(cls, args)
    old, old_error = build(old_cls, args)
    assert new_error == old_error
    if new_error:
        return
    assert type(new) is cls
    assert repr(new) == renamed(repr(old), cls)
    assert hash(new) == hash(new) == hash(old)  # worked out, then kept

    # keywords, and every shorter positional prefix that the defaults complete
    keywords = dict(zip(cls.__slots__, args))
    assert build(cls, (), keywords)[0] == new
    for k in range(len(args)):
        shorter, shorter_old = build(cls, args[:k]), build(old_cls, args[:k])
        assert shorter[1] == shorter_old[1]
        if shorter[1] is None:
            assert repr(shorter[0]) == renamed(repr(shorter_old[0]), cls)

    # equality follows the dataclass's, within a class and across classes
    other_args = ARGS[cls](data.draw)
    other, other_error = build(cls, other_args)
    if other_error is None:
        other_old = old_cls(*other_args)
        assert (new == other) == (old == other_old)
        assert (new != other) == (old != other_old)
        if new == other:
            assert hash(new) == hash(other)
    assert new != old and not new == old
    others = (lookalike(new), NoContact(), FullContact(0.0), (), None)
    assert all(new != value for value in others if type(value) is not cls)

    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(new, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(new, name)
    assert build(cls, args)[0] == new  # unchanged by the attempts

    # a NaN field makes a pickled twin unequal, as it does the dataclass's
    for twin_of in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        twin = twin_of(new)
        assert type(twin) is cls and repr(twin) == repr(new)
        assert (twin == new) == (twin_of(old) == old)


def test_a_copy_is_the_value_itself():
    # a value built unchecked copies as itself even where the checks reject
    # it, as a slice a half width an ulp under MIN_MM does; unpickling runs
    # the checks
    sl = DomeSlice._unchecked(0.5, 0.0, math.nextafter(2 * MIN_MM, 0.0), 10.0, DomeShape.HALF_ELLIPSE)
    assert copy.copy(sl) is sl and copy.deepcopy(sl) is sl
    with pytest.raises(palatogram.DomainError, match="half width"):
        pickle.loads(pickle.dumps(sl))
    ends = dict(z_min=0.0, z_max=2e-6, h=10.0, shape=DomeShape.HALF_ELLIPSE)
    geometry = PalateGeometry(slices=(DomeSlice(x=0.0, **ends), DomeSlice(x=1.0, **ends)))
    assert copy.deepcopy([geometry])[0] is geometry


# Values at and near the bounds the checks enforce: lengths within 1 of
# +-MAX_MM or anywhere between, half widths at the MIN_MM floor or within
# 1e-12 above it, and dome heights at MIN_MM or within 1e-15 above it.
def near(bound: float, width: float = 1.0):
    return st.just(bound) | st.floats(min(bound, bound - width), max(bound, bound - width))


lengths = near(MAX_MM) | near(-MAX_MM, -1.0) | st.floats(-MAX_MM, MAX_MM)


def at_least_half_width(z_min: float, half_width: float) -> float:
    """The least z_max whose slice over [z_min, z_max] has at least half_width."""
    z_max = z_min + 2.0 * half_width
    while not 0.5 * (z_max - z_min) >= half_width:
        z_max = math.nextafter(z_max, math.inf)
    return z_max


@st.composite
def slices_near_bounds(draw, x: float, shape: DomeShape) -> DomeSlice:
    z_min = draw(lengths.filter(lambda z: z <= MAX_MM - 3 * MIN_MM))
    floor = at_least_half_width(z_min, MIN_MM)
    z_max = draw(st.sampled_from([floor, MAX_MM]) | st.floats(floor, min(floor + 1e-12, MAX_MM)))
    h = draw(near(MIN_MM, -1e-15) | near(MAX_MM))
    return DomeSlice(x=x, z_min=z_min, z_max=z_max, h=h, shape=shape)


@st.composite
def spans_near_bounds(draw) -> tuple[float, float]:
    """x0 < x1, at least 1 apart, so that any blend grid between them has its points."""
    x0 = draw(lengths.filter(lambda x: x <= MAX_MM - 1.0))
    return x0, draw(st.floats(x0 + 1.0, MAX_MM) | st.just(MAX_MM))


@st.composite
def targets_near_bounds(draw, x0: float, x1: float) -> SoundTarget:
    heights = draw(st.lists(lengths, min_size=2, max_size=4))
    xs = [x0 + (x1 - x0) * k / (len(heights) - 1) for k in range(len(heights))]
    xs[-1] = x1
    fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e-12) | st.floats(1.0 - 1e-12, 1.0)
    magnitudes = st.just(0.0) | near(MAX_MM)
    params = ShapingParams(
        tth=draw(fractions),
        edge_elev_max=draw(magnitudes),
        posterior_onset_x=draw(lengths),
        groove_width=draw(magnitudes),
        groove_depth=draw(magnitudes),
        lateral_lower_width=draw(magnitudes),
        lateral_lower_depth=draw(magnitudes),
    )
    return SoundTarget(name="near", contour=TongueContour(points=tuple(zip(xs, heights))), params=params)


def round_trip(value):
    return pickle.loads(pickle.dumps(value))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)
def test_derived_values_near_the_bounds_survive_a_pickle_round_trip(data):
    # Interpolated slices, EPG frames and blended targets are built without
    # the checks; each lerp is kept between its ends, so unpickling, which
    # runs the checks, takes every one back. The example is the palate of
    # two [0, 2e-6] slices, 24 of whose 999 interpolated slices below once
    # rounded to a half width under MIN_MM.
    if data is None:
        ends = dict(z_min=0.0, z_max=2e-6, h=10.0, shape=DomeShape.HALF_ELLIPSE)
        geometry = PalateGeometry(slices=(DomeSlice(x=0.0, **ends), DomeSlice(x=1.0, **ends)))
        for k in range(1, 1000):
            sl = palatogram.slice_at(geometry, k / 1000)
            assert round_trip(sl) == sl
        return
    x0, x1 = data.draw(spans_near_bounds())
    shape = data.draw(st.sampled_from(DomeShape))
    geometry = PalateGeometry(slices=(
        data.draw(slices_near_bounds(x0, shape)), data.draw(slices_near_bounds(x1, shape))
    ))
    for x in data.draw(st.lists(st.floats(x0, x1), min_size=1, max_size=8)):
        sl = palatogram.slice_at(geometry, x)
        assert round_trip(sl) == sl
    a, b = data.draw(targets_near_bounds(x0, x1)), data.draw(targets_near_bounds(x0, x1))
    lattice = dict(rows=data.draw(st.integers(1, 6)), cols=data.draw(st.integers(2, 6)))
    frame = palatogram.compute_epg(geometry, a.contour, a.params, **lattice)
    assert round_trip(frame) == frame
    for lam in data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=8)):
        blended = palatogram.interpolate(a, b, lam)
        assert round_trip(blended) == blended


HUGE = 10**400  # an int too large for a float


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: DomeSlice(x=HUGE, z_min=-1, z_max=1, h=1), palatogram.DomainError),
        (lambda: TongueContour(points=((0, 1), (1, HUGE))), palatogram.DomainError),
        (lambda: ShapingParams(groove_width=HUGE), palatogram.DomainError),
        (lambda: AnimationSpec((get_target("t"),), (HUGE,), (), 25.0), palatogram.ConfigError),
    ],
    ids=["DomeSlice", "TongueContour", "ShapingParams", "AnimationSpec"],
)
def test_int_too_large_for_a_float_is_the_usual_error(make, error):
    with pytest.raises(error, match="finite"):
        make()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # what a CLI run pays to import: the modules beyond the interpreter's own
    src = str(Path(palatogram.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import palatogram.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "palatogram.cli" in added
    assert "dataclasses" not in added and "inspect" not in added
