"""The strict reading of config documents: one number check, one JSON decode."""

from __future__ import annotations

import math

import pytest

from palatogram.errors import ConfigError, finite_float, parse_json


@pytest.mark.parametrize("value", [0, -3, 2.5, 10**300, -1e308])
def test_finite_float_accepts_numbers(value):
    assert finite_float(value, "v") == float(value)
    assert type(finite_float(value, "v")) is float


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "v must be a number, got bool"),
        ("1", "v must be a number, got str"),
        (None, "v must be a number, got NoneType"),
        ([1.0], "v must be a number, got list"),
        (10**400, "v must be a finite number"),
        (-(10**400), "v must be a finite number"),
        (math.nan, "v must be a finite number"),
        (-math.inf, "v must be a finite number"),
    ],
)
def test_finite_float_rejects(value, message):
    with pytest.raises(ConfigError) as info:
        finite_float(value, "v")
    assert str(info.value) == message


def test_finite_float_formats_its_label_only_on_failure():
    class Name:
        calls = 0

        def __repr__(self) -> str:
            Name.calls += 1
            return "'k'"

    assert finite_float(2, "key %r #%d", Name(), 3) == 2.0
    assert Name.calls == 0
    with pytest.raises(ConfigError) as info:
        finite_float(math.nan, "key %r #%d", Name(), 3)
    assert str(info.value) == "key 'k' #3 must be a finite number"


def test_parse_json_decodes_text_and_bytes():
    doc = {"a": [1, 2.5, None, True], "b": "θ"}
    assert parse_json('{"a": [1, 2.5, null, true], "b": "θ"}', "doc") == doc
    assert parse_json('{"a": [1, 2.5, null, true], "b": "θ"}'.encode("utf-8"), "doc") == doc


@pytest.mark.parametrize(
    "data",
    ["NaN", '{"fps": Infinity}', "[-Infinity]", "{", "[" * 100_000, "1" * 5000, b"\xff"],
    ids=["nan", "infinity", "minus-infinity", "syntax", "deep", "digits", "utf8"],
)
def test_parse_json_rejects(data):
    with pytest.raises(ConfigError, match="invalid JSON in doc.json"):
        parse_json(data, "doc.json")
