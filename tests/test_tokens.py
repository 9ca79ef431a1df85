"""Tests for the shared tokenizer: decimal digits only, and the digit cap.

Run also under ``python -X int_max_str_digits=640``: the cap, not the
interpreter's conversion limit, decides which integers are accepted.
"""

from __future__ import annotations

import pytest

from daha import parse_laurent, parse_scalar, parse_word
from daha._tokens import MAX_INT_DIGITS, tokenize
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
