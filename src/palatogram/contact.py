"""Analytic tongue-palate contact per coronal slice.

A flat coronal tongue at elevation ``u`` meets a dome slice in one of three
ways: it stays below the tooth row (no contact), it lies at or above the
apex (full contact across the span), or it crosses the dome profile at two
lateral points that ``dome.invert_dome`` computes in closed form. Where the
tongue contour does not reach a slice, the tongue is absent there: no contact.
"""

from __future__ import annotations

import math
from typing import Union

from ._frozen import Frozen
from .dome import DomeSlice, PalateGeometry, invert_dome, slice_at, surface_xs
from .errors import DomainError
from .shaping import TongueContour, midsagittal_heights

__all__ = [
    "NoContact",
    "Intersection",
    "FullContact",
    "ContactClass",
    "classify_slice",
    "surface_contacts",
    "contact_to_dict",
]


class NoContact(Frozen):
    """Tongue below the tooth-row baseline: no intersection exists."""

    __slots__ = ()


class Intersection(Frozen):
    """Tongue crosses the dome profile at two lateral points."""

    __slots__ = ("z_left", "z_right")

    def __init__(self, z_left: float, z_right: float) -> None:
        self._set(z_left, z_right)


class FullContact(Frozen):
    """Tongue at or above the apex: contact across the whole span."""

    __slots__ = ("z_apex",)

    def __init__(self, z_apex: float) -> None:
        self._set(z_apex)


ContactClass = Union[NoContact, Intersection, FullContact]


def classify_slice(slice_: DomeSlice, u: float) -> ContactClass:
    """Three-way contact classification of a flat tongue at elevation u."""
    if not math.isfinite(u):
        raise DomainError(f"tongue elevation must be finite, got {u}")
    if u <= 0.0:
        return NoContact()
    if u >= slice_.h:
        return FullContact(z_apex=slice_.z_center)
    return Intersection(*invert_dome(slice_, u))


def surface_contacts(
    geometry: PalateGeometry, contour: TongueContour, nx: int
) -> list[ContactClass]:
    """The contact at each row x of surface_xs(geometry, nx), as export_obj marks them.

    A row the contour covers is classified by classify_slice at the
    contour's midline height there; any other row is NoContact. nx must lie
    in [1, MAX_SURFACE_STEPS].
    """
    x_lo, x_hi = contour.x_min, contour.x_max
    xs = surface_xs(geometry, nx)
    # the rows the contour covers are contiguous and nondecreasing
    heights = iter(midsagittal_heights(contour, [x for x in xs if x_lo <= x <= x_hi]))
    return [
        classify_slice(slice_at(geometry, x), next(heights)) if x_lo <= x <= x_hi else NoContact()
        for x in xs
    ]


def contact_to_dict(contact: ContactClass) -> dict:
    """JSON-ready form: {"case": "none" | "intersection" | "full", ...}."""
    if isinstance(contact, NoContact):
        return {"case": "none"}
    if isinstance(contact, Intersection):
        return {"case": "intersection", "z_left": contact.z_left, "z_right": contact.z_right}
    if isinstance(contact, FullContact):
        return {"case": "full", "z_apex": contact.z_apex}
    raise TypeError(f"not a contact classification: {contact!r}")
