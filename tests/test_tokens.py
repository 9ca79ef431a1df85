"""Tests for the shared tokenizer: decimal digits only, and the digit and text caps.

Run also under ``python -X int_max_str_digits=640``: the cap, not the
interpreter's conversion limit, decides which integers are accepted.
"""

from __future__ import annotations

import time

import pytest

from daha import _tokens, parse_laurent, parse_scalar, parse_skein, parse_word
from daha._tokens import MAX_EXPONENT, MAX_INT_DIGITS, MAX_TEXT_CHARS, tokenize
from daha.errors import ParseError


def test_cap_is_within_every_interpreter_limit():
    assert 0 < MAX_INT_DIGITS <= 640


@pytest.mark.parametrize("text", ["²", "X1^²", "x²", "s1^٣²"])
def test_non_decimal_digits_are_rejected_with_a_position(text):
    with pytest.raises(ParseError) as info:
        tokenize(text)
    assert info.value.pos == text.index("²")


def test_decimal_digits_of_other_scripts_are_integers():
    assert [t.text for t in tokenize("٣ + 7")] == ["٣", "+", "7", ""]
    assert parse_scalar("٣") == parse_scalar("3")


def test_integer_over_the_cap_is_rejected_at_its_position():
    text = "s1^" + "9" * (MAX_INT_DIGITS + 1)
    with pytest.raises(ParseError, match=f"longer than {MAX_INT_DIGITS} digits") as info:
        parse_word(text, 2)
    assert info.value.pos == 3


def test_name_index_over_the_cap_is_rejected_at_its_position():
    text = "1 + X" + "1" * (MAX_INT_DIGITS + 1)
    with pytest.raises(ParseError, match=f"longer than {MAX_INT_DIGITS} digits") as info:
        parse_laurent(text, 1)
    assert info.value.pos == 5


def test_coefficient_of_exactly_the_cap_parses():
    digits = "9" * MAX_INT_DIGITS
    value = parse_laurent(f"{digits}*X1", 1)
    assert value.terms[(1,)] == parse_scalar(digits)
    assert str(value) == f"{digits}*X1"


_OVER = MAX_EXPONENT + 1


@pytest.mark.parametrize("text, variable, pos", [
    (f"X1^{_OVER}", "X1", 0),
    (f"1 + 3*X1^{MAX_EXPONENT}*X2*X1", "X1", 4),
    (f"X2 - X1*X2^-{_OVER}", "X2", 5),
])
def test_laurent_exponent_over_the_cap_is_rejected(text, variable, pos):
    with pytest.raises(ParseError, match=f"exponent of {variable} exceeds {MAX_EXPONENT}") as info:
        parse_laurent(text, 2)
    assert info.value.pos == pos


def test_skein_exponent_over_the_cap_is_rejected():
    text = f"(a1,[1 2]) + s*(a2^{MAX_EXPONENT}*a1*a2,[2 1])"
    with pytest.raises(ParseError, match=f"exponent of a2 exceeds {MAX_EXPONENT}") as info:
        parse_skein(text, 2)
    assert info.value.pos == text.index("(a2")


def test_exponents_at_the_cap_parse():
    assert parse_laurent(f"X1^{_OVER}*X1^-1*X2^-{MAX_EXPONENT}", 2).terms == {
        (MAX_EXPONENT, -MAX_EXPONENT): parse_scalar("1"),
    }
    assert str(parse_skein(f"(a1^-{MAX_EXPONENT},[1 2])", 2)) == f"(a1^-{MAX_EXPONENT},[1 2])"


def test_text_over_the_length_cap_is_rejected_before_any_token(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a token was built")

    monkeypatch.setattr(_tokens, "Token", refuse)
    with pytest.raises(ParseError, match=f"longer than {MAX_TEXT_CHARS} characters") as info:
        tokenize("+" * (MAX_TEXT_CHARS + 1))
    assert info.value.pos == MAX_TEXT_CHARS


@pytest.mark.parametrize("text, expected", [
    ("X1" + " " * (MAX_TEXT_CHARS - 2), [("name", "X1", 0), ("end", "", MAX_TEXT_CHARS)]),
    ("\u3000" * MAX_TEXT_CHARS, [("end", "", MAX_TEXT_CHARS)]),
], ids=["trailing-spaces", "only-spaces"])
def test_whitespace_run_at_the_cap_is_scanned_in_linear_time(text, expected):
    # A pattern that takes whitespace before each token backtracks through
    # the whole run at every position of it: minutes here, not milliseconds.
    start = time.perf_counter()
    tokens = tokenize(text)
    assert time.perf_counter() - start < 2.0
    assert [(t.kind, t.text, t.pos) for t in tokens] == expected


@pytest.mark.parametrize("text, expected", [
    # Unicode whitespace between tokens and after the last one.
    ("X1　+\x85a2\x1c", [("name", "X1", 0), ("+", "+", 3), ("name", "a2", 5), ("end", "", 8)]),
    ("\x1c(a1,[1 2])　\x85", [
        ("(", "(", 1), ("name", "a1", 2), (",", ",", 4), ("[", "[", 5), ("int", "1", 6),
        ("int", "2", 8), ("]", "]", 9), (")", ")", 10), ("end", "", 13)]),
    # A Greek name and a titlecase-letter name.
    ("α2*ǅ", [("name", "α2", 0), ("*", "*", 2), ("name", "ǅ", 3), ("end", "", 4)]),
    # An Arabic-Indic index.
    ("X٣^-1", [("name", "X٣", 0), ("^", "^", 2), ("-", "-", 3), ("int", "1", 4), ("end", "", 5)]),
    # Refused characters, at their positions.
    ("s_1", 1),
    ("X1@2", 2),
    ("X1́", 2),
    ("X1½", 2),
    ("X2Ⅻ", 2),
], ids=["spaces-between", "spaces-around", "greek-titlecase", "arabic-indic-index",
        "underscore", "at-sign", "combining-accent", "vulgar-fraction", "roman-numeral"])
def test_scanner_edges(text, expected):
    if isinstance(expected, int):
        with pytest.raises(ParseError, match="unexpected character") as info:
            tokenize(text)
        assert info.value.pos == expected
    else:
        assert [(t.kind, t.text, t.pos) for t in tokenize(text)] == expected
