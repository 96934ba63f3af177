"""Base class of the package's immutable value classes, and the lerp their derived values use."""

from __future__ import annotations

import operator


def lerp(a: float, b: float, s: float, t: float) -> float:
    """s * a + t * b, for s = 1 - t, kept in [min(a, b), max(a, b)].

    The sum of two roundings can land an ulp outside that range, and so past
    a bound that a and b both keep; kept inside it, a lerp of two checked
    values is one their constructor accepts, and Frozen._unchecked may hold
    it.
    """
    v = s * a + t * b
    if a <= b:
        return a if v < a else b if v > b else v
    return b if v < b else a if v > a else v


class Frozen:
    """An immutable value whose fields are named, in constructor order, in ``__slots__``.

    A subclass's ``__init__`` normalises its arguments, stores them as its
    fields with one call of ``_set`` and then validates them; only this base
    writes past the blocking ``__setattr__``. ``_unchecked`` keeps its own
    loop rather than calling ``_set``: it builds every interpolated slice,
    raster frame and blended frame, and the extra call would cost each of
    them. This base gives what ``@dataclass(frozen=True)`` would: field-wise
    equality between instances of the same class, a hash and repr of the
    fields, ``__match_args__``, and ``AttributeError`` on assignment or
    deletion. A copy, shallow or deep, is the value itself. Unpickling
    rebuilds the value through the constructor, so it is validated like the
    original.

    The hash is worked out on first use and kept in the one slot of this
    base, which is not a field: a palate's hash, a key of compute_epg's dome
    cache, is then one slot read after the first, not one per slice.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = fields = cls.__slots__
        # _values(value) is the tuple of value's fields; attrgetter returns a
        # bare value for one name and needs at least one
        if len(fields) > 1:
            values = operator.attrgetter(*fields)
        elif fields:
            get = operator.attrgetter(*fields)
            values = lambda value: (get(value),)
        else:
            values = lambda value: ()
        cls._values = staticmethod(values)

    def _set(self, *values: object) -> None:
        """Store values as the fields, in ``__slots__`` order, past the blocking ``__setattr__``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls, *values: object):
        """An instance of values, in ``__slots__`` order, that skips ``__init__``'s checks.

        Only for values derived from checked ones, which the checks would
        accept. Its three uses are slice_at's interpolated slices,
        compute_epg's frames and the blended frames of interpolate and
        animate; their lerps go through lerp. Unpickling it runs the checks
        after all.
        """
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # not hashed yet
            value = hash(self._values(self))
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo: dict):
        return self

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)
