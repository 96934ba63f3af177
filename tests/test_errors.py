"""The strict reading of config documents: one number check, one JSON decode."""

from __future__ import annotations

import math

import pytest

from palatogram.dome import palate_from_dict
from palatogram.errors import ConfigError, finite_float, parse_json
from palatogram.shaping import params_from_dict
from palatogram.sounds import animation_spec_from_dict, target_from_dict


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


def palate_with_slice(item: object) -> dict:
    return {"shape": "cosine", "slices": [item, {"x": 1, "z_min": -1, "z_max": 1, "h": 1}]}


@pytest.mark.parametrize(
    "read, doc, message",
    [
        (palate_from_dict, [], "palate config must be a JSON object"),
        (palate_from_dict, {"slices": [], "color": 1}, "palate config has unknown keys: ['color']"),
        (palate_from_dict, palate_with_slice(5), "slice #0 must be a JSON object"),
        (palate_from_dict, palate_with_slice({"x": 0, "z_min": -1, "z_max": 1, "h": 1, "w": 2}),
         "slice #0 has unknown keys: ['w']"),
        (palate_from_dict, palate_with_slice({"x": 0, "z_min": -1}),
         "slice #0 is missing keys: ['h', 'z_max']"),
        (params_from_dict, "full", "params must be a JSON object"),
        (params_from_dict, {"tth": 1, "tilt": 2, "bend": 3},
         "params has unknown keys: ['bend', 'tilt']"),
        (target_from_dict, [[0, 1], [1, 1]], "sound target must be a JSON object"),
        (target_from_dict, {"name": "z", "colour": 1}, "sound target has unknown keys: ['colour']"),
        (animation_spec_from_dict, None, "animation spec must be a JSON object"),
        (animation_spec_from_dict, {"targets": ["t"], "loop": True},
         "animation spec has unknown keys: ['loop']"),
    ],
    ids=[
        "palate-object", "palate-unknown", "slice-object", "slice-unknown", "slice-missing",
        "params-object", "params-unknown", "target-object", "target-unknown", "spec-object",
        "spec-unknown",
    ],
)
def test_key_check_messages(read, doc, message):
    with pytest.raises(ConfigError) as info:
        read(doc)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"tt_manner": "bogus"},
         "tt_manner must be one of ['full', 'near', 'lateral'], got 'bogus'"),
        ({"td_manner": ["full"]}, "td_manner must be one of ['full', 'near'], got ['full']"),
        ({"groove_enabled": "no"}, "groove_enabled must be a boolean"),
        ({"lateral_lower_enabled": 1}, "lateral_lower_enabled must be a boolean"),
        ({"tth": "1"}, "params key 'tth' must be a number, got str"),
        ({"tth": True}, "params key 'tth' must be a number, got bool"),
        ({"groove_width": -1}, "groove_width must be >= 0"),
    ],
    ids=["tip-name", "dorsum-list", "groove-str", "lateral-int", "tth-str", "tth-bool",
         "negative-width"],
)
def test_params_reader_messages(doc, message):
    # the reader checks the float fields; ShapingParams checks manners and flags
    with pytest.raises(ConfigError) as info:
        params_from_dict(doc)
    assert str(info.value) == message
