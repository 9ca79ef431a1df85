"""Both module actions against the modular oracle of :mod:`modp_oracle`.

Each case evaluates the library's result at a seeded point of F_p^3 and
compares it with the oracle's computation on the evaluated input.  Inputs
are multi-term elements with multi-term coefficients, and words draw every
letter kind (s_i, x_i, y_i, each with both signs).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from daha import (
    GeneratorLetter, GeneratorWord, LaurentPoly, SkeinElement, all_permutations, parse_scalar,
    parse_word, polyrep, skein,
)

import modp_oracle as oracle
from conftest import generator_words, laurent_polys, skein_elements

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# Longest random word per kappa: skein terms multiply by up to kappa at
# every braid letter of a y_i expansion.
_MAX_LEN = {2: 5, 3: 4, 4: 3, 5: 2}


def every_letter(kappa: int) -> list[GeneratorWord]:
    kinds = [("s", kappa - 1), ("x", kappa), ("y", kappa)]
    return [
        GeneratorWord(kappa, [GeneratorLetter(kind, i, sign)])
        for kind, top in kinds
        for i in range(1, top + 1)
        for sign in (1, -1)
    ]


def assert_poly_agrees(word: GeneratorWord, f: LaurentPoly, seed: int) -> None:
    point = oracle.random_point(seed)
    expected = oracle.poly_act(word, oracle.evaluate(f, point), point)
    assert oracle.evaluate(polyrep.act_word(word, f), point) == expected, (str(word), str(f))


def assert_skein_agrees(word: GeneratorWord, v, seed: int) -> None:
    point = oracle.random_point(seed)
    expected = oracle.skein_act(word, oracle.evaluate(v, point), point)
    assert oracle.evaluate(skein.act_word(word, v), point) == expected, (str(word), str(v))


@pytest.mark.parametrize("kappa", [2, 3, 4, 5])
class TestRandomWords:
    @settings(max_examples=25)
    @given(data=st.data(), seed=seeds)
    def test_polynomial_representation(self, kappa, data, seed):
        word = data.draw(generator_words(kappa, max_len=_MAX_LEN[kappa]))
        f = data.draw(laurent_polys(rank=kappa, min_terms=2, max_terms=3, max_exp=2))
        assert_poly_agrees(word, f, seed)

    @settings(max_examples=25)
    @given(data=st.data(), seed=seeds)
    def test_skein_module(self, kappa, data, seed):
        word = data.draw(generator_words(kappa, max_len=_MAX_LEN[kappa]))
        v = data.draw(skein_elements(kappa, min_terms=2, max_terms=3))
        assert_skein_agrees(word, v, seed)


@pytest.mark.parametrize("kappa", [2, 3, 4, 5])
def test_every_letter_on_multi_term_elements(kappa):
    f = LaurentPoly(kappa, [
        ((1,) + (0,) * (kappa - 1), 1),
        ((0,) * (kappa - 1) + (-2,), 3),
        (tuple(range(kappa)), 1),
    ]).scale(parse_scalar("s^2 - 3*c*d^-1 + s^-1*c^-2"))
    v = SkeinElement(kappa, [
        ((key, perm), coeff)
        for (key, coeff), perm in zip(f.terms.items(), all_permutations(kappa))
    ])
    for n, word in enumerate(every_letter(kappa)):
        assert_poly_agrees(word, f, seed=n)
        assert_skein_agrees(word, v, seed=n)


def test_relation_nine_holds_in_the_oracle():
    # The oracle stands on its own: x1^-1 y1 x1 y1^-1 acts as c^2 s1 s2 s2 s1.
    point = oracle.random_point(7)
    lhs, rhs = parse_word("x1^-1*y1*x1*y1^-1", 3), parse_word("s1*s2*s2*s1", 3)
    c2 = point.c * point.c % oracle.P
    f = {(2, -1, 0): 5, (0, 0, 1): 1}
    assert oracle.poly_act(lhs, f, point) == oracle.combine((c2, oracle.poly_act(rhs, f, point)))
    v = {((1, 0, -1), (2, 3, 1)): 4, ((0, 0, 0), (1, 2, 3)): 1}
    assert oracle.skein_act(lhs, v, point) == oracle.combine((c2, oracle.skein_act(rhs, v, point)))


def test_long_division_rejects_a_remainder():
    with pytest.raises(ArithmeticError):
        oracle.divide_by_y_minus_one({(1, 0): 1, (0, 1): 2}, 1)
