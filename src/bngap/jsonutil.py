"""JSON and CSV emission with round-trip-safe float formatting.

Floats are written with 17 significant digits so every IEEE double survives
a serialize/parse cycle byte-for-byte; the standard library encoder would
use the shortest repr, which is fine for reading back but not stable across
formatting layers.

JSON has no NaN or infinity, so ``dumps`` writes non-finite floats as
``null`` and its output stays strict JSON.  CSV cells keep the text
``NaN``, ``Infinity`` and ``-Infinity``.

A string is escaped through one translation table: quote, backslash and
control characters below 0x20; every other character is copied.
``conjecture.REPORT_LINE`` lays out a sweep's report lines directly,
writing each finite float with ``%.17g``, the same text.
"""

from __future__ import annotations

import math
from typing import Any


_DIGITS = ".17g"

# The escape of each code point that a JSON string may not hold as itself.
_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\",
                          **{c: f"\\u{c:04x}" for c in range(0x20)}})


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, _DIGITS)


def dumps(obj: Any) -> str:
    """Compact one-line JSON with 17-significant-digit floats; NaN and
    infinities become null."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, _DIGITS) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return '"' + obj.translate(_ESCAPES) + '"'
    if isinstance(obj, dict):
        items = (f"{dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)
