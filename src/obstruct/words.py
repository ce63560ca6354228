"""Finite words, the word file format, and the symbolic scale convention.

Words are plain tuples of small non-negative ints.  The metric on one-sided
sequence spaces is d(x, y) = 2^-min{k >= 0 : x_k != y_k}, so two points are
within 2^-j in the n-step Bowen metric exactly when their first n + j
symbols agree.  Every epsilon in a statement therefore becomes an integer
depth index j = ceil(log2(1/epsilon)), and a Bowen ball becomes the cylinder
of its depth-(n + j) prefix.

Multiplying a scale by a constant c only shifts the depth index by
floor(log2 c): the multipliers that show up when chaining estimates stay
within a bounded depth shift (at most 3 for c in [1, 8]), recorded in
SCALE_MULTIPLIER_DEPTH_SHIFT.  At symbolic scales the checks in this package
are exact at every depth, so no check below depends on which multiplier
produced its depth.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import InputError

Word = tuple[int, ...]

EMPTY: Word = ()

#: depth shift floor(log2 c) for the scale multipliers used by the estimates
SCALE_MULTIPLIER_DEPTH_SHIFT = {1: 0, 2: 1, 3: 1, 6: 2, 7: 2, 12: 3, 14: 3, 28: 4}


def depth_for_scale(epsilon: float) -> int:
    """Depth index j with 2^-j <= epsilon, i.e. ceil(log2(1/epsilon))."""
    if epsilon <= 0 or epsilon > 1:
        raise InputError(f"scale must lie in (0, 1], got {epsilon}")
    return max(0, math.ceil(-math.log2(epsilon)))


def scaled_depth(j: int, multiplier: int) -> int:
    """Depth index of the scale multiplier * 2^-j (clamped at 0)."""
    if multiplier < 1:
        raise InputError("multiplier must be >= 1")
    return max(0, j - math.floor(math.log2(multiplier)))


def word(text: str) -> Word:
    """Parse a compact digit string like '00101' into a word."""
    return tuple(int(c) for c in text)


def format_word(w: Word, alphabet_size: int = 10) -> str:
    """One-line text form: concatenated digits when the alphabet fits base 10."""
    if alphabet_size <= 10:
        return "".join(str(s) for s in w)
    return " ".join(str(s) for s in w)


def parse_word(line: str, alphabet_size: int = 10) -> Word:
    line = line.strip()
    if not line:
        return EMPTY
    tokens = line if alphabet_size <= 10 and " " not in line else line.split()
    try:
        w = tuple(map(int, tokens))
    except ValueError as exc:
        raise InputError(f"non-integer symbol in word {line!r}") from exc
    if min(w) < 0:
        raise InputError(f"negative symbol in word {line!r}")
    if max(w) >= alphabet_size:
        raise InputError(f"symbol out of range in word {line!r}")
    return w


def write_word_file(path, words: Iterable[Word], alphabet_size: int = 10) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for w in words:
            fh.write(format_word(w, alphabet_size) + "\n")


def read_word_file(path, alphabet_size: int = 10) -> list[Word]:
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(parse_word(line, alphabet_size))
    return out


def bowen_cylinder(x_prefix: Word, n: int, j: int) -> Word:
    """The depth-(n + j) prefix naming the Bowen ball B_n(x, 2^-j) as a cylinder."""
    if n < 0 or j < 0:
        raise InputError("n and j must be non-negative")
    if len(x_prefix) < n + j:
        raise InputError(
            f"prefix of length {len(x_prefix)} too short for depth {n + j}"
        )
    return x_prefix[: n + j]
