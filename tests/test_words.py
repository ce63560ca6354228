import pytest
from hypothesis import given, strategies as st

from obstruct.errors import InputError
from obstruct.words import format_word, parse_word, word


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
