"""Exception types shared across the package, and the strict reading of config documents."""

from __future__ import annotations

import json
import sys
from enum import Enum
from typing import Iterable

# largest magnitude of any model length, in mm; a human palate is tens of mm
MAX_MM = 1e6
# smallest half width of a dome slice, in mm; a narrower half-ellipse underflows
MIN_HALF_WIDTH_MM = 1e-6


class PalatogramError(Exception):
    """Base class for all package errors; `code` feeds the CLI diagnostics."""

    code = "error"


class DomainError(PalatogramError, ValueError):
    """A value lies outside the range an operation is defined on."""

    code = "domain"


class ConfigError(PalatogramError, ValueError):
    """A configuration document (palate, preset, animation spec) is invalid."""

    code = "config"


def finite_float(value: object, what: str, *args: object) -> float:
    """A number read from a config document, as a finite float.

    Raises ConfigError naming `what % args` (or `what` without args) for a
    bool or any other non-number, and for NaN, an infinity or an int too
    large for a float; the name is formatted only then.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        what = what % args if args else what
        raise ConfigError(f"{what} must be a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity or an int past any float
        what = what % args if args else what
        raise ConfigError(f"{what} must be a finite number")
    return float(value)


def member(enum: type[Enum], value: object, what: str) -> Enum:
    """The member of enum that value is or has as its value; else DomainError naming `what`."""
    try:
        return enum(value)
    except ValueError:
        choices = [m.value for m in enum]
    try:
        shown = repr(value)
    except ValueError:  # an int past the int-to-str digit limit
        shown = f"{type(value).__name__} too long to print"
    raise DomainError(f"{what} must be one of {choices}, got {shown}") from None


def check_keys(
    doc: object, what: str, allowed: Iterable[str], required: Iterable[str] = ()
) -> None:
    """Reject a config document that is not a JSON object with the expected keys.

    Raises ConfigError naming `what` when doc is not a dict, when it has a
    key outside `allowed`, or when it lacks one of `required`.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = doc.keys() - allowed
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {sorted(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{what} is missing keys: {sorted(missing)}")


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


def parse_json(data: str | bytes, source: object) -> object:
    """Decode a config document, rejecting NaN and Infinity.

    Any decoding failure (bad syntax, bad UTF-8, an integer with too many
    digits, nesting too deep) raises ConfigError naming `source`.
    """
    try:
        return json.loads(data, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {source}: {exc}") from None
