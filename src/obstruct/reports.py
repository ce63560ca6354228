"""Versioned JSON report envelope and number formatting.

Reports are deterministic: keys are sorted, floats carry 17 significant
digits as strings, rationals are numerator/denominator strings, and the
timestamp lives in a separate meta block excluded from comparisons.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

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


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_report(report))


def reports_equal(a: dict, b: dict) -> bool:
    """Byte-level equality after dropping the meta block."""
    strip_a = {k: v for k, v in a.items() if k != "meta"}
    strip_b = {k: v for k, v in b.items() if k != "meta"}
    return dumps_report(strip_a) == dumps_report(strip_b)
