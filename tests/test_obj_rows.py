"""The row-at-a-time OBJ emitter and surface sampler against the per-vertex ones in oracles.py.

export_obj formats each row of vertices with one bytes ``%`` and joins each
row of faces from its vertex numbers in one join; the bytes, the sampled
floats and every error, with its message, must equal those of the emitter
that formats one vertex line and one face pair at a time.
"""

from __future__ import annotations

import itertools
import tracemalloc

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
    sample_surface,
    slice_at,
    surface_contacts,
)
from palatogram.dome import MAX_SURFACE_STEPS, surface_xs

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
    # The rows are bytes and the document one join of them: the peak is the
    # rows, the document and the vertex numbers, about 3.9 times the output
    # at 256 x 256. Holding the document also as text read 4.9 times.
    geometry = default_palate()
    contacts = surface_contacts(geometry, default_library().get("k").contour, 256)
    export_obj(geometry, 2, 2, contacts[:3])
    tracemalloc.start()
    try:
        data = export_obj(geometry, 256, 256, contacts)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.3 * len(data)


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
