"""The row-at-a-time OBJ emitter and surface sampler against the per-vertex ones in oracles.py.

export_obj formats each row of vertices with one bytes ``%`` and joins each
row of faces from its vertex numbers in one join; the bytes, the sampled
floats and every error, with its message, must equal those of the emitter
that formats one vertex line and one face pair at a time. The mesh rows and
the coronal curve take their elevations from one mirrored unit profile, so
each reads the same reversed.
"""

from __future__ import annotations

import itertools
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palatogram import (
    DomainError,
    DomeShape,
    DomeSlice,
    FullContact,
    Intersection,
    NoContact,
    PalateGeometry,
    default_library,
    default_palate,
    export_obj,
    render_coronal_svg,
    sample_surface,
    slice_at,
    surface_contacts,
    with_shape,
)
from palatogram import render
from palatogram.dome import MAX_SURFACE_STEPS, _unit_profile, surface_xs

PRESETS = default_library().names()


@st.composite
def palates(draw) -> PalateGeometry:
    shape = draw(st.sampled_from(list(DomeShape)))
    n = draw(st.integers(2, 5))
    x0 = draw(st.floats(-20.0, 20.0))
    gaps = draw(st.lists(st.floats(0.01, 20.0), min_size=n - 1, max_size=n - 1))
    slices = [
        DomeSlice(
            x=x,
            z_min=draw(st.floats(-30.0, -0.5)),
            z_max=draw(st.floats(0.5, 30.0)),
            h=draw(st.floats(0.5, 25.0)),
            shape=shape,
        )
        for x in itertools.accumulate([x0, *gaps])
    ]
    return PalateGeometry(slices=tuple(slices))


@st.composite
def mixed_contacts(draw, geometry: PalateGeometry, nx: int) -> list:
    """One contact per mesh row, of any of the three classes, inside the row's slice."""
    contacts = []
    for x in surface_xs(geometry, nx):
        sl = slice_at(geometry, x)
        kind = draw(st.sampled_from([NoContact, Intersection, FullContact]))
        if kind is NoContact:
            contacts.append(NoContact())
        elif kind is Intersection:
            t = draw(st.floats(0.0, 0.5))
            contacts.append(Intersection(sl.z_min + t * sl.span, sl.z_max - t * sl.span))
        else:
            contacts.append(FullContact(sl.z_center))
    return contacts


@settings(max_examples=150, deadline=None)
@given(
    geometry=palates(),
    nx=st.integers(1, 40),
    nz=st.integers(1, 40),
    kind=st.sampled_from(["none", "model", "mixed"]),
    data=st.data(),
)
def test_obj_matches_per_vertex_emitter(geometry, nx, nz, kind, data):
    if kind == "none":
        contacts = None
    elif kind == "model":
        contour = default_library().get(data.draw(st.sampled_from(PRESETS))).contour
        contacts = surface_contacts(geometry, contour, nx)
    else:
        contacts = data.draw(mixed_contacts(geometry, nx))
    assert export_obj(geometry, nx, nz, contacts) == oracles.export_obj(geometry, nx, nz, contacts)
    assert sample_surface(geometry, nx, nz) == oracles.sample_surface(geometry, nx, nz)


@pytest.mark.parametrize("nx, nz", [(MAX_SURFACE_STEPS, 3), (3, MAX_SURFACE_STEPS)])
def test_obj_at_the_largest_grid_matches_per_vertex_emitter(nx, nz):
    geometry = default_palate(DomeShape.HALF_ELLIPSE)
    contacts = surface_contacts(geometry, default_library().get("k").contour, nx)
    assert export_obj(geometry, nx, nz, contacts) == oracles.export_obj(geometry, nx, nz, contacts)


@pytest.mark.parametrize("nx, nz", [(1, 1), (1, 6), (6, 1)])
@pytest.mark.parametrize("shape", list(DomeShape))
def test_obj_of_one_row_or_column_of_quads_matches_per_vertex_emitter(nx, nz, shape):
    # a row of faces opens with "f " where each later quad opens with "\nf "
    geometry = default_palate(shape)
    contacts = surface_contacts(geometry, default_library().get("t").contour, nx)
    for given_contacts in (None, contacts):
        want = oracles.export_obj(geometry, nx, nz, given_contacts)
        assert export_obj(geometry, nx, nz, given_contacts) == want


@pytest.mark.parametrize("nx, nz", [(96, 128), (128, 96)])
@pytest.mark.parametrize("shape", list(DomeShape))
def test_obj_at_the_figure_sizes_matches_per_vertex_emitter(nx, nz, shape):
    geometry = default_palate(shape)
    contacts = surface_contacts(geometry, default_library().get("s").contour, nx)
    assert export_obj(geometry, nx, nz, contacts) == oracles.export_obj(geometry, nx, nz, contacts)


def test_obj_peak_memory_holds_no_text_copy_of_the_document():
    # The rows are sampled as they are written, as bytes, and the document
    # is one join of them: the peak is the rows' bytes, the document and the
    # vertex numbers, about 3.0 times the output at 256 x 256. Sampling
    # every row's floats up front read 3.9 times, and holding the document
    # also as text 4.9 times.
    geometry = default_palate()
    contacts = surface_contacts(geometry, default_library().get("k").contour, 256)
    export_obj(geometry, 2, 2, contacts[:3])
    tracemalloc.start()
    try:
        data = export_obj(geometry, 256, 256, contacts)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.4 * len(data)


@pytest.mark.parametrize("shape", list(DomeShape))
def test_unit_profile_is_mirrored_and_within_unit_height(shape):
    # render.py and dome.py scale it by h and take no clamp: no point may
    # pass 1.0, the ends are exact 0.0 and an even n's middle exact 1.0
    for n in range(1, MAX_SURFACE_STEPS + 1):
        unit = _unit_profile(shape, n)
        assert len(unit) == n + 1
        assert unit == unit[::-1]
        assert unit[0] == unit[-1] == 0.0
        assert max(unit) <= 1.0
        if n % 2 == 0:
            assert unit[n // 2] == 1.0


def coronal_curve_ys(sl: DomeSlice, u: float) -> list[float]:
    """The y of each point of render_coronal_svg's dome curve, as floats before formatting."""
    seen = []

    class Points(str):
        def __mod__(self, values):
            seen.append(values)
            return str.__mod__(self, values)

    with mock.patch.object(render, "_CORONAL_POINTS", Points(render._CORONAL_POINTS)):
        render_coronal_svg(sl, u)
    (xy,) = seen
    return list(xy[1::2])


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=100, deadline=None)
@given(
    geometry=palates(),
    nx=st.integers(1, 24),
    nz=st.integers(1, 160),
    g=st.floats(0.0, 1.0),
    u=st.floats(-5.0, 30.0),
)
def test_mesh_rows_and_coronal_curve_read_the_same_reversed(geometry, nx, nz, g, u):
    for shape in DomeShape:
        geometry = with_shape(geometry, shape)
        for row in sample_surface(geometry, nx, nz):
            ys = bits(y for _x, y, _z in row)
            assert ys == ys[::-1]
        x = geometry.x_min + g * (geometry.x_max - geometry.x_min)
        ys = bits(coronal_curve_ys(slice_at(geometry, min(x, geometry.x_max)), u))
        assert len(ys) == render.CORONAL_CURVE_SAMPLES
        assert ys == ys[::-1]


def test_a_second_obj_within_the_bound_makes_no_vertex_numbers(monkeypatch):
    geometry = default_palate()
    export_obj(geometry, 128, 128)
    kept = render._kept_numbers
    made = sys.getsizeof(kept) + sum(map(sys.getsizeof, kept))

    def peak() -> int:
        tracemalloc.start()
        try:
            export_obj(geometry, 128, 128)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kept_peak = peak()
    assert render._kept_numbers is kept
    # the same call with every mesh past the bound makes its numbers afresh,
    # which peaks higher by about their size
    monkeypatch.setattr(render, "_KEPT_VERTEX_NUMBERS", 0)
    assert peak() - kept_peak > 0.9 * made


def test_kept_vertex_numbers_grow_to_the_largest_mesh_and_stop_at_128_by_128(monkeypatch):
    monkeypatch.setattr(render, "_kept_numbers", [])
    geometry = default_palate(DomeShape.HALF_ELLIPSE)
    contour = default_library().get("t").contour
    for nx, nz, kept_len in [
        (40, 32, 41 * 33),
        (2, 2, 41 * 33),
        (128, 128, 129 * 129),
        (1, MAX_SURFACE_STEPS, 129 * 129),
        (200, 200, 129 * 129),
    ]:
        contacts = surface_contacts(geometry, contour, nx)
        want = oracles.export_obj(geometry, nx, nz, contacts)
        assert export_obj(geometry, nx, nz, contacts) == want
        kept = render._kept_numbers
        assert kept == list(map(str, range(1, kept_len + 1)))
    assert render._KEPT_VERTEX_NUMBERS == 129 * 129


def test_threads_growing_the_kept_vertex_numbers_each_get_whole_meshes(monkeypatch):
    # every thread starts on an empty kept list and the sizes grow it in
    # turn; a grown list is a new one, so no call reads a list another grows
    geometry = default_palate()
    sizes = [(2, 3), (40, 32), (12, 90), (64, 64), (30, 100), (7, 7)] * 2
    want = {size: oracles.export_obj(geometry, *size) for size in sizes}
    monkeypatch.setattr(render, "_kept_numbers", [])
    got, errors = {}, []

    def draw(size):
        try:
            for _ in range(3):
                got.setdefault(size, []).append(export_obj(geometry, *size))
        except Exception as exc:  # reported below, with the size it came from
            errors.append((size, exc))

    threads = [threading.Thread(target=draw, args=(size,)) for size in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for size in want:
        assert got[size] == [want[size]] * 6
    kept = render._kept_numbers
    assert kept == list(map(str, range(1, len(kept) + 1)))


def intersection_outside_the_slice(geometry: PalateGeometry) -> Intersection:
    sl = geometry.slices[0]
    return Intersection(sl.z_min - 1.0, sl.z_max)


BAD = {
    "nx 0": (0, 4, None),
    "nx too large": (MAX_SURFACE_STEPS + 1, 4, None),
    "nz 0": (4, 0, None),
    "nz too large": (4, MAX_SURFACE_STEPS + 1, None),
    "nz checked before nx": (0, 0, None),
    "nz checked before contacts": (3, 0, [NoContact()]),
    "nx checked before contacts": (-1, 3, [NoContact()]),
    "too few contacts": (3, 3, [NoContact()] * 3),
    "too many contacts": (1, 3, [NoContact()] * 3),
    "a None entry": (2, 2, [NoContact(), None, NoContact()]),
    "a class, not an instance": (2, 2, [NoContact, NoContact(), NoContact()]),
    "length before entries": (2, 2, ["no_contact"] * 2),
    "a marker outside the slice": (1, 2, "outside"),
}


@pytest.mark.parametrize("case", BAD, ids=list(BAD))
@pytest.mark.parametrize("shape", list(DomeShape))
def test_obj_errors_match_per_vertex_emitter(case, shape):
    geometry = default_palate(shape)
    nx, nz, contacts = BAD[case]
    if contacts == "outside":
        contacts = [intersection_outside_the_slice(geometry), NoContact()]
    with pytest.raises(DomainError) as want:
        oracles.export_obj(geometry, nx, nz, contacts)
    with pytest.raises(DomainError) as got:
        export_obj(geometry, nx, nz, contacts)
    assert str(got.value) == str(want.value)
    if contacts is None:
        with pytest.raises(DomainError) as got:
            sample_surface(geometry, nx, nz)
        assert str(got.value) == str(want.value)
