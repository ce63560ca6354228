import pytest
from hypothesis import given, strategies as st

from obstruct.errors import InputError
from obstruct.words import (
    SCALE_MULTIPLIER_DEPTH_SHIFT,
    bowen_cylinder,
    depth_for_scale,
    format_word,
    parse_word,
    read_word_file,
    scaled_depth,
    word,
    write_word_file,
)


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


def test_word_file_io(tmp_path):
    words = [(0, 1), (1, 0, 1), ()]
    path = tmp_path / "words.txt"
    write_word_file(path, [w for w in words if w])
    assert read_word_file(path) == [(0, 1), (1, 0, 1)]


def test_bowen_cylinder_examples():
    x = word("10100") + (0,) * 5
    assert bowen_cylinder(x, 2, 0) == word("10")
    assert bowen_cylinder(x, 2, 1) == word("101")
    zeros = (0,) * 10
    assert bowen_cylinder(zeros, 5, 2) == (0,) * 7


def test_bowen_cylinder_too_short():
    with pytest.raises(InputError):
        bowen_cylinder(word("10"), 2, 1)


def test_depth_for_scale():
    assert depth_for_scale(1.0) == 0
    assert depth_for_scale(0.5) == 1
    assert depth_for_scale(0.3) == 2
    with pytest.raises(InputError):
        depth_for_scale(0.0)


def test_scale_multiplier_table():
    # c * 2^-j sits at depth j - floor(log2 c); the table freezes the shifts
    for c, shift in SCALE_MULTIPLIER_DEPTH_SHIFT.items():
        assert scaled_depth(10, c) == 10 - shift
    assert all(s <= 3 for c, s in SCALE_MULTIPLIER_DEPTH_SHIFT.items() if c < 8)
