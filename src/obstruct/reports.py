"""Versioned JSON report envelope and number formatting.

Reports are deterministic: keys are sorted, floats carry 17 significant
digits as strings, rationals are numerator/denominator strings, and the
timestamp lives in a separate meta block excluded from comparisons.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = 1


def fmt_float(x) -> str:
    return f"{float(x):.17g}"


def fmt_number(x: Fraction) -> str:
    """A rational as its numerator/denominator string."""
    return f"{x.numerator}/{x.denominator}"


def make_report(kind: str, payload: dict, config: dict | None = None) -> dict:
    # ISO 8601 in UTC with microseconds: YYYY-MM-DDTHH:MM:SS.ffffff+00:00
    seconds, ns = divmod(time.time_ns(), 1_000_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "meta": {
            "timestamp": f"{stamp}.{ns // 1000:06d}+00:00",
            "tool": "obstruct 0.1.0",
        },
        "config": config or {},
        "payload": payload,
    }


def _encode(o, indent: str) -> str:
    """`json.dumps(o, sort_keys=True, indent=2)` at the nesting `indent`, for
    string keys, without the pure-Python encoder an indent puts `json` on."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    inner = indent + "  "
    if isinstance(o, dict):
        items = [f"{encode_basestring_ascii(k)}: "
                 f"{encode_basestring_ascii(v) if type(v) is str else _encode(v, inner)}"
                 for k, v in sorted(o.items())]
    elif isinstance(o, (list, tuple)):
        items = [encode_basestring_ascii(v) if type(v) is str else _encode(v, inner) for v in o]
    elif o is None or isinstance(o, bool):
        return "null" if o is None else "true" if o else "false"
    elif isinstance(o, int):
        return int.__repr__(o)
    elif isinstance(o, float):
        if not math.isfinite(o):
            return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    ends = "{}" if isinstance(o, dict) else "[]"
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


def dumps_report(report: dict) -> str:
    """The report as `json.dumps(report, sort_keys=True, indent=2)` and a
    newline, byte for byte."""
    return _encode(report, "") + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_report(report))


def reports_equal(a: dict, b: dict) -> bool:
    """Byte-level equality after dropping the meta block."""
    strip_a = {k: v for k, v in a.items() if k != "meta"}
    strip_b = {k: v for k, v in b.items() if k != "meta"}
    return dumps_report(strip_a) == dumps_report(strip_b)
