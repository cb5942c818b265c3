"""Deterministic JSON input/output for channels and reports.

All numbers are written with 17 significant digits (enough to round-trip a
double exactly), nesting is indented by two spaces, keys keep their
insertion order, and no timestamps or other environment-dependent fields
are ever emitted, so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .maps import CpMap

__all__ = [
    "dumps",
    "loads",
    "write_json",
    "read_json",
    "channel_to_dict",
    "channel_from_dict",
]


def _emit(obj, parts, level):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        val = float(obj)
        if not math.isfinite(val):
            raise ValueError(f"non-finite value {val!r} cannot be serialized")
        parts.append("%.17g" % val)
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            parts.append(pad_in + json.dumps(key) + ": ")
            _emit(value, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            parts.append("[]")
            return
        # short leaf lists (like [re, im] pairs) stay on one line
        if all(isinstance(v, (int, float, np.integer, np.floating))
               for v in obj):
            inner = []
            for v in obj:
                _emit(v, inner, 0)
            parts.append("[" + ", ".join(inner) + "]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(pad_in)
            _emit(value, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")
    else:
        raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to a deterministic JSON string with %.17g floats."""
    parts: list = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def loads(text: str):
    """Parse JSON text; raises ValueError on malformed input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _complex_to_pairs(mat: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _pairs_to_complex(rows, shape, what: str) -> np.ndarray:
    """The matrix `what` from its rows of [re, im] pairs of finite JSON
    numbers; every refusal names `what`."""
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and len(row) == len(rows[0]) and all(
                isinstance(pair, list) and len(pair) == 2 for pair in row)
            for row in rows)):
        raise ValueError(f"{what}: expected a matrix of [re, im] pairs")
    for x in (x for row in rows for pair in row for x in pair):
        # JSON's true is a Python int, and null would read as nan
        if type(x) not in (int, float):
            raise ValueError(
                f"{what}: entries must be JSON numbers, got {json.dumps(x)}")
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the doubles
        raise ValueError(f"{what}: entries must be finite") from exc
    if not np.isfinite(arr).all():
        raise ValueError(f"{what}: entries must be finite")
    if arr.shape[:2] != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {arr.shape[:2]}")
    return arr[..., 0] + 1j * arr[..., 1]


def channel_to_dict(t: CpMap) -> dict:
    """JSON-ready dict {"d_in", "d_out", "kraus"} with entries as [re, im] pairs."""
    return {
        "d_in": int(t.d_in),
        "d_out": int(t.d_out),
        "kraus": [_complex_to_pairs(k) for k in t.kraus],
    }


def channel_from_dict(obj: dict) -> CpMap:
    """Inverse of channel_to_dict; raises ValueError on malformed input,
    a d_in or d_out that is not a JSON integer included."""
    if not isinstance(obj, dict):
        raise ValueError("channel document must be a JSON object")
    try:
        d_in = obj["d_in"]
        d_out = obj["d_out"]
        kraus_rows = obj["kraus"]
    except KeyError as exc:
        raise ValueError(f"channel document missing or malformed field: {exc}") from exc
    for field, value in (("d_in", d_in), ("d_out", d_out)):
        # JSON's true is a Python int too
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"channel field {field!r} must be an integer, got {value!r}")
    if not isinstance(kraus_rows, list):
        raise ValueError("channel field 'kraus' must be a list of matrices")
    kraus = [
        _pairs_to_complex(rows, (d_in, d_out), f"kraus[{i}]")
        for i, rows in enumerate(kraus_rows)
    ]
    return CpMap(d_in, d_out, kraus)

