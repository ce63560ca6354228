"""Finite words and their one-line text form.

Words are plain tuples of small non-negative ints.  Two points are within
2^-j in the n-step Bowen metric, d(x, y) = 2^-min{k : x_k != y_k}, exactly
when their first n + j symbols agree, so a scale is a depth index j and a
Bowen ball the cylinder of its depth-(n + j) prefix.
"""

from __future__ import annotations

from .errors import InputError

Word = tuple[int, ...]

EMPTY: Word = ()


def word(text: str) -> Word:
    """Parse a compact digit string like '00101' into a word."""
    return tuple(int(c) for c in text)


def format_word(w: Word, alphabet_size: int = 10) -> str:
    """One-line text form: concatenated digits when the alphabet fits base 10."""
    if alphabet_size <= 10:
        return "".join(str(s) for s in w)
    return " ".join(str(s) for s in w)


def overlay(pieces, length: int) -> tuple | None:
    """Template of `length` positions, None where free, with each (offset,
    word) piece written at its offset; None when two pieces clash."""
    template: list[int | None] = [None] * length
    for offset, w in pieces:
        for i, a in enumerate(w, offset):
            cur = template[i]
            if cur is not None and cur != a:
                return None
            template[i] = a
    return tuple(template)


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
