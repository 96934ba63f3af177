"""Exception types shared across the package, and the strict reading of config documents."""

from __future__ import annotations

import json
import math


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
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        what = what % args if args else what
        raise ConfigError(f"{what} must be a finite number")
    return number


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
