import pytest
from hypothesis import given, strategies as st

from obstruct.errors import InputError
from obstruct.decomposition import _merge_template
from obstruct.words import format_word, overlay, parse_word, word


def test_word_parsing():
    assert word("00101") == (0, 0, 1, 0, 1)
    assert parse_word("") == ()
    assert parse_word("12 0 3", alphabet_size=13) == (12, 0, 3)
    with pytest.raises(InputError):
        parse_word("19", alphabet_size=5)


@pytest.mark.parametrize(
    "line, alphabet_size, message",
    [
        ("0x1", 10, "non-integer symbol in word '0x1'"),
        ("1 a 2", 12, "non-integer symbol in word '1 a 2'"),
        ("1 -1 2", 12, "negative symbol in word '1 -1 2'"),
        # both faults: the negative symbol is reported first
        ("13 -1", 12, "negative symbol in word '13 -1'"),
        ("-1 13", 12, "negative symbol in word '-1 13'"),
        ("0129", 9, "symbol out of range in word '0129'"),
        ("  3 12 ", 12, "symbol out of range in word '3 12'"),
    ],
)
def test_parse_word_errors(line, alphabet_size, message):
    with pytest.raises(InputError) as info:
        parse_word(line, alphabet_size)
    assert str(info.value) == message


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=12))
def test_format_parse_roundtrip(symbols):
    w = tuple(symbols)
    assert parse_word(format_word(w)) == w


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=12))
def test_wide_alphabet_roundtrip(symbols):
    w = tuple(symbols)
    assert parse_word(format_word(w, 31), 31) == w


def _segments_template(elements, gap, depth):
    """The gluing search's former builder: depth-extended segments at
    gap-spaced offsets, as a list; None on clash."""
    total = sum(len(w) - depth for w in elements) + (len(elements) - 1) * gap + depth
    template = [None] * total
    offset = 0
    for w in elements:
        for i, a in enumerate(w):
            cur = template[offset + i]
            if cur is not None and cur != a:
                return None
            template[offset + i] = a
        offset += (len(w) - depth) + gap
    return template


def _two_window_template(u, m, v):
    """The mixing probe's former builder: u at 0 and v at m, as a list."""
    length = max(len(u), m + len(v))
    template = [None] * length
    for i, a in enumerate(u):
        template[i] = a
    for i, a in enumerate(v):
        cur = template[m + i]
        if cur is not None and cur != a:
            return None
        template[m + i] = a
    return template


def _as_tuple(template):
    return None if template is None else tuple(template)


_short_words = st.lists(st.integers(0, 2), max_size=5).map(tuple)


@given(_short_words, st.integers(0, 7), _short_words)
def test_overlay_of_two_windows_matches_the_former_builder(u, m, v):
    assert overlay(((0, u), (m, v)), max(len(u), m + len(v))) == _as_tuple(
        _two_window_template(u, m, v)
    )


@given(st.data())
def test_merged_segments_match_the_former_builder(data):
    depth = data.draw(st.integers(0, 2), label="depth")
    gap = data.draw(st.integers(0, 3), label="gap")
    segment = st.lists(st.integers(0, 2), min_size=depth + 1, max_size=depth + 4)
    elements = data.draw(st.lists(segment.map(tuple), min_size=1, max_size=4))
    assert _merge_template(elements, gap, depth) == _as_tuple(
        _segments_template(elements, gap, depth)
    )
