"""Round-trip fidelity of the JSON emitter."""

import json
import math

from bngap.jsonutil import dumps, format_float


def test_float_round_trip_17_digits():
    for x in (1 / 3, math.sqrt(2), 4.381966011250105, -1e-17, 6.02e23, 0.1):
        assert float(format_float(x)) == x


def test_dumps_parses_back():
    obj = {
        "name": 'quo"te\\slash',
        "vals": [1, 2.5, None, True, False],
        "nested": {"gap": -1.4210854715202004e-13},
    }
    parsed = json.loads(dumps(obj))
    assert parsed["name"] == obj["name"]
    assert parsed["vals"] == obj["vals"]
    assert parsed["nested"]["gap"] == obj["nested"]["gap"]


def test_int_not_floatified():
    assert dumps({"n": 6, "m": 12}) == '{"n": 6, "m": 12}'


def test_non_finite_floats_are_null():
    assert dumps(float("-inf")) == "null"
    assert dumps(float("inf")) == "null"
    assert dumps(float("nan")) == "null"
    assert dumps({"gap": float("nan")}) == '{"gap": null}'
    assert format_float(float("-inf")) == "-Infinity"
