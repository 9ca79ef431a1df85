"""Tests for generator words, parsing, loop expansion and the relation table."""

from __future__ import annotations

import pytest
from hypothesis import given

from daha import (
    GeneratorLetter,
    GeneratorWord,
    ScalarPoly,
    c_power,
    expand_x,
    expand_y,
    hbar,
    parse_word,
    relation_table,
)
from daha import LaurentPoly, SkeinElement, polyrep, skein, words
from daha.errors import ParseError, RankMismatchError
from daha.words import MAX_WORD_LETTERS, apply_word

from conftest import generator_words


def refuse_parse_word(text: str, kappa: int) -> GeneratorWord:
    raise AssertionError(f"parse_word({text!r}, {kappa}) was called")


def letters(*triples: tuple[str, int, int]) -> list[GeneratorLetter]:
    return [GeneratorLetter(kind, index, sign) for kind, index, sign in triples]


class TestParsing:
    def test_basic_word(self):
        word = parse_word("s1 * y1^-1 * x2", 2)
        assert word.letters == tuple(letters(("s", 1, 1), ("y", 1, -1), ("x", 2, 1)))

    def test_empty_is_identity(self):
        assert parse_word("", 3) == GeneratorWord(3)
        assert parse_word("   ", 3) == GeneratorWord(3)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="index out of range"):
            parse_word("x3", 2)
        with pytest.raises(ParseError, match="index out of range"):
            parse_word("s1", 1)

    def test_exponent_expansion(self):
        word = parse_word("s1^3 * x1^-2", 2)
        assert word.letters == tuple(
            letters(("s", 1, 1), ("s", 1, 1), ("s", 1, 1), ("x", 1, -1), ("x", 1, -1))
        )

    def test_zero_exponent_vanishes(self):
        assert parse_word("s1^0", 2) == GeneratorWord(2)

    def test_word_length_cap(self):
        # Only one letter past the cap: the check runs before any expansion.
        with pytest.raises(ParseError, match=f"more than {MAX_WORD_LETTERS} letters"):
            parse_word(f"s1^{MAX_WORD_LETTERS + 1}", 2)
        with pytest.raises(ParseError, match=f"more than {MAX_WORD_LETTERS} letters"):
            parse_word(f"x1 * s1^-{MAX_WORD_LETTERS}", 2)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse_word("s1 *", 2)
        with pytest.raises(ParseError):
            parse_word("s * x1", 2)
        with pytest.raises(ParseError):
            parse_word("s1 x1", 2)

    @given(generator_words())
    def test_round_trip(self, word):
        assert parse_word(str(word), word.kappa) == word


class TestWordAlgebra:
    def test_concatenation(self):
        left = parse_word("s1", 2)
        right = parse_word("x1", 2)
        assert str(left * right) == "s1*x1"

    def test_product_takes_only_words(self):
        with pytest.raises(TypeError):
            parse_word("s1", 2) * 2

    def test_repr(self):
        assert repr(parse_word("s1*x2^-1", 2)) == "<GeneratorWord kappa=2 s1*x2^-1>"
        assert repr(GeneratorWord(3)) == "<GeneratorWord kappa=3 (identity)>"

    def test_kappa_mismatch(self):
        with pytest.raises(ValueError):
            parse_word("s1", 2) * parse_word("s1", 3)

    def test_kappa_mismatch_raises_the_rank_error(self):
        with pytest.raises(RankMismatchError, match="cannot concatenate words with kappa 2 and 3"):
            parse_word("s1", 2) * parse_word("s1", 3)

    def test_letter_out_of_range_at_construction(self):
        with pytest.raises(ValueError):
            GeneratorWord(2, letters(("s", 2, 1)))
        with pytest.raises(ValueError):
            GeneratorWord(2, letters(("x", 3, 1)))

    def test_constructors_reject_bad_fields(self):
        with pytest.raises(ValueError, match="unknown generator kind 'z'"):
            GeneratorLetter("z", 1, 1)
        with pytest.raises(ValueError, match="sign must be"):
            GeneratorLetter("s", 1, 0)
        with pytest.raises(ValueError, match="index must be >= 1"):
            GeneratorLetter("s", 0, 1)
        with pytest.raises(ValueError, match="kappa must be >= 1"):
            GeneratorWord(0)

    @pytest.mark.parametrize("build", [
        lambda: GeneratorLetter("x", 1.0, 1),
        lambda: GeneratorLetter("x", "1", 1),
        lambda: GeneratorLetter("x", 1, 1.0),
        lambda: GeneratorLetter("x", 1, -1.0),
        lambda: GeneratorWord(2.0),
        lambda: GeneratorWord("2"),
        lambda: GeneratorWord(2, ["s1"]),
        lambda: GeneratorWord(2, [("s", 1, 1)]),
    ])
    def test_constructors_take_integers_and_letters(self, build):
        with pytest.raises(TypeError):
            build()

    def test_integer_like_fields_become_ints(self):
        class One:
            def __index__(self):
                return 1

        letter = GeneratorLetter("x", One(), One())
        assert (type(letter.index), type(letter.sign)) == (int, int)
        assert str(letter) == "x1"
        word = GeneratorWord(One(), [letter])
        assert type(word.kappa) is int
        assert word == parse_word("x1", 1)

    def test_runs_of_both_signs_print_apart(self):
        word = GeneratorWord(2, letters(("s", 1, 1), ("s", 1, 1), ("s", 1, -1),
                                        ("x", 2, -1), ("x", 2, -1)))
        assert str(word) == "s1^2*s1^-1*x2^-2"
        assert parse_word(str(word), 2) == word

    @pytest.mark.parametrize("text, printed", [
        ("s1*s1*s1^-1*x2^-1*x2^-1", "s1^2*s1^-1*x2^-2"),
        ("y1^-1", "y1^-1"),
        ("s2^-1*s2^-1*s1*s2^-1", "s2^-2*s1*s2^-1"),
        ("x3*x3*x3", "x3^3"),
        ("", ""),
    ])
    def test_word_prints(self, text, printed):
        assert str(parse_word(text, 3)) == printed

    @pytest.mark.parametrize("sign, printed", [(1, "y3"), (-1, "y3^-1")])
    def test_letter_prints(self, sign, printed):
        assert str(GeneratorLetter("y", 3, sign)) == printed

    @given(generator_words())
    def test_inverse_reverses_and_flips(self, word):
        inv = word.inverse()
        assert len(inv) == len(word)
        assert inv.inverse() == word


class TestExpansion:
    def test_x1_is_trivial(self):
        assert expand_x(1, 3).letters == tuple(letters(("x", 1, 1)))

    def test_x2(self):
        assert expand_x(2, 2).letters == tuple(letters(("s", 1, 1), ("x", 1, 1), ("s", 1, 1)))

    def test_x3(self):
        assert expand_x(3, 3).letters == tuple(
            letters(("s", 2, 1), ("s", 1, 1), ("x", 1, 1), ("s", 1, 1), ("s", 2, 1))
        )

    def test_y_variants(self):
        assert expand_y(1, 2).letters == tuple(letters(("y", 1, 1)))
        assert expand_y(2, 3).letters == tuple(letters(("s", 1, 1), ("y", 1, 1), ("s", 1, 1)))
        assert expand_y(3, 4).letters == tuple(
            letters(("s", 2, 1), ("s", 1, 1), ("y", 1, 1), ("s", 1, 1), ("s", 2, 1))
        )

    def test_index_validation(self):
        with pytest.raises(IndexError):
            expand_x(0, 2)
        with pytest.raises(IndexError):
            expand_y(3, 2)

    @pytest.mark.parametrize("expand", [expand_x, expand_y])
    def test_expansion_is_capped_like_a_parsed_word(self, expand):
        # A loop of index i expands to 2i - 1 letters.
        last = (MAX_WORD_LETTERS + 1) // 2
        assert len(expand(last, last)) == 2 * last - 1
        with pytest.raises(ParseError, match=f"more than {MAX_WORD_LETTERS} letters"):
            expand(last + 1, last + 1)


class TestApplyWord:
    @pytest.mark.parametrize("v, rank_name", [(LaurentPoly.one(2), "rank"),
                                              (SkeinElement.zero(2), "kappa")])
    @pytest.mark.parametrize("text", ["", "x1*y2"])
    def test_word_kappa_must_be_the_element_rank(self, v, rank_name, text):
        def no_action(*args):
            raise AssertionError("a letter acted before the kappa check")

        word = parse_word(text, 3)
        message = rf"^word kappa 3 does not match {rank_name} 2$"
        with pytest.raises(RankMismatchError, match=message):
            apply_word(word, v, (no_action,) * 5)
        act_word = polyrep.act_word if rank_name == "rank" else skein.act_word
        with pytest.raises(RankMismatchError, match=message):
            act_word(word, v)


def table_text(kappa: int) -> list[tuple]:
    """relation_table(kappa) as (number, label, lhs, rhs), each side a tuple
    of (printed coefficient, printed word)."""
    return [
        (r.number, r.label,
         tuple((str(c), str(w)) for c, w in r.lhs),
         tuple((str(c), str(w)) for c, w in r.rhs))
        for r in relation_table(kappa)
    ]


# Every relation of the kappa = 4 and kappa = 2 tables, pinned as text.
HBAR = "s - s^-1"
TABLE_TWO_TAIL = [
    (5, "R5", (("1", "x1*s1*x1*s1"),), (("1", "s1*x1*s1*x1"),)),
    (6, "R6", (("1", "y1*s1*y1*s1"),), (("1", "s1*y1*s1*y1"),)),
    (7, "R7", (("1", "x1*s1*y1*s1^-1"),), (("1", "s1*y1*s1*x1"),)),
    (8, "R8(s1)", (("1", "s1^2"),), ((HBAR, "s1"), ("1", ""))),
]
TABLE_TWO = TABLE_TWO_TAIL + [
    (9, "R9", (("1", "x1^-1*y1*x1*y1^-1"),), (("c^2", "s1^2"),)),
]
TABLE_FOUR = [
    (1, "R1(s1,s3)", (("1", "s1*s3"),), (("1", "s3*s1"),)),
    (2, "R2(s1)", (("1", "s1*s2*s1"),), (("1", "s2*s1*s2"),)),
    (2, "R2(s2)", (("1", "s2*s3*s2"),), (("1", "s3*s2*s3"),)),
    (3, "R3(s2)", (("1", "s2*x1"),), (("1", "x1*s2"),)),
    (3, "R3(s3)", (("1", "s3*x1"),), (("1", "x1*s3"),)),
    (4, "R4(s2)", (("1", "s2*y1"),), (("1", "y1*s2"),)),
    (4, "R4(s3)", (("1", "s3*y1"),), (("1", "y1*s3"),)),
    *TABLE_TWO_TAIL,
    (8, "R8(s2)", (("1", "s2^2"),), ((HBAR, "s2"), ("1", ""))),
    (8, "R8(s3)", (("1", "s3^2"),), ((HBAR, "s3"), ("1", ""))),
    (9, "R9", (("1", "x1^-1*y1*x1*y1^-1"),), (("c^2", "s1*s2*s3^2*s2*s1"),)),
]


class TestRelationTable:
    def test_kappa_four_as_text(self):
        assert table_text(4) == TABLE_FOUR

    def test_kappa_two_as_text(self):
        assert table_text(2) == TABLE_TWO

    def test_braid_relation_instance(self):
        table = {r.label: r for r in relation_table(3)}
        relation = table["R2(s1)"]
        assert relation.lhs == ((ScalarPoly.one(), parse_word("s1*s2*s1", 3)),)
        assert relation.rhs == ((ScalarPoly.one(), parse_word("s2*s1*s2", 3)),)

    def test_torus_relation_kappa_two(self):
        table = {r.label: r for r in relation_table(2)}
        relation = table["R9"]
        assert relation.lhs == ((ScalarPoly.one(), parse_word("x1^-1*y1*x1*y1^-1", 2)),)
        assert relation.rhs == ((c_power(2), parse_word("s1^2", 2)),)

    def test_torus_relation_kappa_one_degenerates(self):
        table = relation_table(1)
        assert [r.number for r in table] == [9]
        assert table[0].rhs == ((c_power(2), GeneratorWord(1)),)

    def test_far_commutation_instances(self):
        table = relation_table(4)
        far = [r for r in table if r.number == 1]
        assert [r.label for r in far] == ["R1(s1,s3)"]
        assert far[0].lhs == ((ScalarPoly.one(), parse_word("s1*s3", 4)),)

    def test_quadratic_relation_is_a_linear_combination(self):
        table = {r.label: r for r in relation_table(2)}
        relation = table["R8(s1)"]
        assert relation.lhs == ((ScalarPoly.one(), parse_word("s1^2", 2)),)
        assert relation.rhs == (
            (hbar(), parse_word("s1", 2)),
            (ScalarPoly.one(), GeneratorWord(2)),
        )

    def test_instance_counts(self):
        counts = {}
        for relation in relation_table(4):
            counts[relation.number] = counts.get(relation.number, 0) + 1
        assert counts == {1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1, 7: 1, 8: 3, 9: 1}

    def test_rejects_kappa_zero(self):
        with pytest.raises(ValueError, match="kappa must be >= 1"):
            relation_table(0)

    def test_kappa_past_the_word_cap_fails_before_any_row(self, monkeypatch):
        # Relation 9's right side has 2(kappa - 1) letters: 12 at kappa 7.
        monkeypatch.setattr(words, "MAX_WORD_LETTERS", 10)
        monkeypatch.setattr(words, "parse_word", refuse_parse_word)
        with pytest.raises(ParseError, match="more than 10 letters"):
            relation_table(7)

    def test_all_sides_share_kappa(self):
        for kappa in (1, 2, 3, 4, 5):
            for relation in relation_table(kappa):
                for _, word in relation.lhs + relation.rhs:
                    assert word.kappa == kappa
