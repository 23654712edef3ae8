"""Round-trip fidelity of the JSON emitter."""

import json
import math

from hypothesis import given
from hypothesis import strategies as st

from bngap.jsonutil import csv_cell, dumps


def test_float_round_trip_17_digits():
    for x in (1 / 3, math.sqrt(2), 4.381966011250105, -1e-17, 6.02e23, 0.1):
        assert float(csv_cell(x)) == x


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
    assert csv_cell(float("-inf")) == "-Infinity"
    assert csv_cell(float("inf")) == "Infinity"
    assert csv_cell(float("nan")) == "NaN"
    assert csv_cell(7) == "7"


def escape_loop(s: str) -> str:
    """The reference string rule of ``dumps``: escape quote, backslash and
    control characters below 0x20, keep everything else."""
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


# Quote, backslash, control characters, DEL, non-ASCII and non-printable
# code points, mixed with arbitrary text.
TRICKY = st.sampled_from('"\\\x00\x1f\n\t\x7f\x85\xa0é漢 \U0001f600 a[],;')
SOURCES = st.text(TRICKY | st.characters(), max_size=40)


def test_dumps_matches_escape_loop():
    for s in ("", "multipartite[3,2,1]", 'a"b', "a\\b", "\x7f", "\x00", "é漢",
              "tab\there", " ", "graph6:line=3"):
        assert dumps(s) == escape_loop(s)


@given(SOURCES)
def test_dumps_matches_escape_loop_on_random_text(s):
    assert dumps(s) == escape_loop(s)
    assert json.loads(dumps(s)) == s
