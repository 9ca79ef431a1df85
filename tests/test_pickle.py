"""Values survive a pickle round trip, so they can be shared between processes.

Every value class pickles under every protocol.  Unpickling a
:class:`~daha.ScalarPoly`, :class:`~daha.LaurentPoly`,
:class:`~daha.SkeinElement`, :class:`~daha.Permutation`,
:class:`~daha.GeneratorWord`, :class:`~daha.GeneratorLetter` or
:class:`~daha.CheckReport` goes through its validating constructor, so a
forged pickle cannot build a non-canonical or invalid value.
"""

from __future__ import annotations

import pickle

import pytest

from daha import (
    CheckReport, Counterexample, GeneratorLetter, GeneratorWord, LaurentPoly, Permutation, ScalarPoly, SkeinElement, c_power, hbar, parse_laurent,
    parse_skein, parse_word,
)


VALUES = [
    Permutation((2, 3, 1)),
    Permutation.identity(1),
    parse_skein("c^4*(a1^-1*a2^2,[1 2]) - d*(a1,[2 1])", 2),
    SkeinElement.zero(3),
    parse_laurent("(s + s^-1)*X1^2*X2^-1 + c^2*X2", 2),
    LaurentPoly.zero(1),
    hbar() * c_power(-2) + ScalarPoly.integer(3),
    ScalarPoly.zero(),
    parse_word("x1^-1*y1*x1*y1^-1*s1^2", 2),
    parse_word("", 3),
    GeneratorLetter("y", 2, -1),
    CheckReport("x", 2, 3, 0, None, None),
    CheckReport("poly:braid", 3, 5, 2, 42, Counterexample("s1*s2", "X1", "X2", "X3")),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: f"{type(v).__name__}:{v}")
@pytest.mark.parametrize("protocol", range(0, pickle.HIGHEST_PROTOCOL + 1))
def test_round_trip(value, protocol):
    copy = pickle.loads(pickle.dumps(value, protocol))
    assert type(copy) is type(value)
    assert copy == value
    assert str(copy) == str(value)


class _Two:
    def __index__(self):
        return 2


@pytest.mark.parametrize("protocol", range(0, pickle.HIGHEST_PROTOCOL + 1))
def test_words_built_from_integer_like_fields_round_trip(protocol):
    # The constructors store plain ints, so the pickle holds no _Two.
    letter = GeneratorLetter("y", _Two(), True)
    word = GeneratorWord(_Two(), (letter, letter.inverse()))
    for value in (letter, word):
        data = pickle.dumps(value, protocol)
        assert b"_Two" not in data
        copy = pickle.loads(data)
        assert copy == value
        assert str(copy) == str(value)
    assert str(word) == "y2*y2^-1"


def test_unpickled_keys_hold_permutations():
    element = pickle.loads(pickle.dumps(parse_skein("(a1,[2 1]) + 3*(1,[1 2])", 2)))
    assert all(type(perm) is Permutation for _, perm in element.terms)


def test_unpickling_validates_a_permutation():
    # Rewrite the pickled images (2, 1) as (2, 2): BININT1 opcodes ``K``.
    data = pickle.dumps(Permutation((2, 1)))
    forged = data.replace(b"K\x02K\x01", b"K\x02K\x02")
    assert forged != data
    with pytest.raises(ValueError, match="not a permutation"):
        pickle.loads(forged)


def test_unpickling_validates_a_permutation_under_protocol_0():
    # Protocol 0 writes integers as text (``I2\n``), and rebuilds a plain
    # tuple subclass without calling its constructor unless told otherwise.
    data = pickle.dumps(Permutation((2, 1)), 0)
    forged = data.replace(b"I2\nI1\n", b"I2\nI2\n")
    assert forged != data
    with pytest.raises(ValueError, match="not a permutation"):
        pickle.loads(forged)


def test_unpickling_canonicalizes_a_scalar():
    # Rewrite the coefficient 3 of ScalarPoly.integer(3) as 0.  The
    # constructor prunes the zero term, so the value is the canonical zero.
    data = pickle.dumps(ScalarPoly.integer(3), 2)
    assert data.count(b"K\x03") == 1
    copy = pickle.loads(data.replace(b"K\x03", b"K\x00"))
    assert not copy
    assert copy == ScalarPoly.zero()


def test_unpickling_validates_a_word():
    # Rewrite kappa 2 as 1 (BININT1 ``K``): s1 needs at least two strands.
    data = pickle.dumps(parse_word("s1", 2), 2)
    assert data.count(b"K\x02") == 1
    with pytest.raises(ValueError, match="out of range for kappa=1"):
        pickle.loads(data.replace(b"K\x02", b"K\x01"))


def test_unpickling_validates_a_letter():
    # Rewrite the sign 1 of x3 as 5.
    data = pickle.dumps(GeneratorLetter("x", 3, 1), 2)
    assert data.count(b"K\x01") == 1
    with pytest.raises(ValueError, match="sign must be"):
        pickle.loads(data.replace(b"K\x01", b"K\x05"))


def test_unpickling_validates_a_check_report():
    # Rewrite failures 0 as 1: a report with failures needs a counterexample.
    data = pickle.dumps(CheckReport("x", 2, 3, 0, None, None), 2)
    assert data.count(b"K\x00") == 1
    with pytest.raises(ValueError, match="failures == 0 must coincide"):
        pickle.loads(data.replace(b"K\x00", b"K\x01"))


def test_unpickling_checks_the_counts_of_a_check_report():
    # Rewrite cases 3 as 1: two failures cannot come from one case.
    witness = Counterexample("w", "v", "l", "r")
    data = pickle.dumps(CheckReport("x", 2, 3, 2, None, witness), 2)
    assert data.count(b"K\x03") == 1
    with pytest.raises(ValueError, match="failures must lie in 0..cases"):
        pickle.loads(data.replace(b"K\x03", b"K\x01"))


def test_validating_dataclasses_share_one_unpickling_rule():
    assert GeneratorLetter.__reduce__ is GeneratorWord.__reduce__ is CheckReport.__reduce__
