"""Tests for the standard polynomial representation."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from daha import (
    GeneratorWord,
    LaurentPoly,
    ScalarPoly,
    SkeinElement,
    c_power,
    d_power,
    hbar,
    parse_word,
    rotate_variables,
    s_power,
    swap_variables,
)
from daha.errors import RankMismatchError
from daha.polyrep import act_sigma, act_sigma_inv, act_word, act_x, act_y1, act_y1_inv

from conftest import laurent_polys


def X(i: int, exp: int = 1, rank: int = 2) -> LaurentPoly:
    return LaurentPoly.variable(rank, i, exp)


def monomials(rank: int, bound: int):
    for exps in product(range(-bound, bound + 1), repeat=rank):
        yield LaurentPoly.monomial(rank, exps)


class TestLoopLetters:
    def test_x_multiplies(self):
        assert act_x(1, LaurentPoly.one(2)) == X(1)
        assert act_x(2, X(2, -1)) == LaurentPoly.one(2)
        assert act_x(1, X(1, 2) * X(2)) == X(1, 3) * X(2)

    def test_x_inverse_divides(self):
        assert act_x(1, X(1), -1) == LaurentPoly.one(2)

    def test_index_range(self):
        with pytest.raises(IndexError):
            act_x(3, LaurentPoly.one(2))

    @pytest.mark.parametrize("exp", [2.5, "1"])
    @pytest.mark.parametrize("f", [LaurentPoly.one(2), LaurentPoly.zero(2)], ids=["one", "zero"])
    def test_exponent_must_be_an_integer(self, exp, f):
        with pytest.raises(TypeError):
            act_x(1, f, exp)


class TestBraidLetter:
    @pytest.mark.parametrize("act", [
        act_sigma, act_sigma_inv, act_x,
        pytest.param(lambda i, f: act_word(GeneratorWord(2), f), id="act_word-empty"),
        pytest.param(lambda i, f: act_word(parse_word(f"s{i}", 2), f), id="act_word-s1"),
    ])
    @pytest.mark.parametrize("value", [SkeinElement.basis(2, (1, 0)), s_power(1)],
                             ids=["SkeinElement", "ScalarPoly"])
    def test_refuses_another_class(self, act, value):
        with pytest.raises(TypeError, match=f"expects a LaurentPoly, got {type(value).__name__}$"):
            act(1, value)

    def test_on_constant(self):
        assert act_sigma(1, LaurentPoly.one(2)) == LaurentPoly.one(2).scale(s_power(1))

    def test_symmetric_input_scales_by_s(self):
        f = X(1) + X(2)
        assert act_sigma(1, f) == f.scale(s_power(1))

    def test_on_x1(self):
        # s*X2 + (s - s^-1) * ((X2 - X1)/(X1 X2^-1 - 1)) = s*X2 - (s - s^-1)*X2
        assert act_sigma(1, X(1)) == X(2).scale(s_power(-1))

    def test_inverse_round_trip(self):
        assert act_sigma_inv(1, act_sigma(1, X(1))) == X(1)

    def test_inverse_on_constant(self):
        assert act_sigma_inv(1, LaurentPoly.one(2)) == LaurentPoly.one(2).scale(s_power(-1))

    def test_inverse_on_symmetric(self):
        f = X(1) + X(2)
        assert act_sigma_inv(1, f) == f.scale(s_power(-1))

    @given(laurent_polys(rank=3), st.integers(min_value=1, max_value=2))
    def test_hecke_relation(self, f, i):
        # The quadratic relation rearranged: s_i^2 f = (s - s^-1) s_i f + f.
        twice = act_sigma(i, act_sigma(i, f))
        assert twice == act_sigma(i, f).scale(hbar()) + f

    @given(laurent_polys(rank=3), st.integers(min_value=1, max_value=2))
    def test_inverse_both_ways(self, f, i):
        assert act_sigma_inv(i, act_sigma(i, f)) == f
        assert act_sigma(i, act_sigma_inv(i, f)) == f

    @given(laurent_polys(rank=3))
    def test_braid_relation(self, f):
        lhs = act_sigma(1, act_sigma(2, act_sigma(1, f)))
        rhs = act_sigma(2, act_sigma(1, act_sigma(2, f)))
        assert lhs == rhs

    @given(laurent_polys(rank=3), st.integers(min_value=1, max_value=2))
    def test_preserves_symmetric_polynomials(self, f, i):
        symmetric = f + swap_variables(f, i)
        assert act_sigma(i, symmetric) == symmetric.scale(s_power(1))


class TestInverseClosedForm:
    """s^-1 * swap_i f + X_i X_{i+1}^-1 * g against the quadratic relation's
    s_i f - (s - s^-1) f, on seeded grids."""

    POOL = [s_power(1), hbar(), c_power(2) - d_power(-1) + ScalarPoly.integer(3), ScalarPoly.integer(-2)]

    @staticmethod
    def oracle(i: int, f: LaurentPoly) -> LaurentPoly:
        return act_sigma(i, f) - f.scale(hbar())

    def random_poly(self, rng: random.Random, rank: int) -> LaurentPoly:
        return LaurentPoly(rank, [
            (tuple(rng.randint(-3, 3) for _ in range(rank)), rng.choice(self.POOL))
            for _ in range(rng.randint(2, 5))
        ])

    def test_monomials(self):
        for kappa in (2, 3):
            for f in monomials(kappa, 2):
                for i in range(1, kappa):
                    assert act_sigma_inv(i, f) == self.oracle(i, f), (i, str(f))

    def test_multi_term(self):
        rng = random.Random(37)
        for kappa in (2, 3, 4):
            for _ in range(15):
                f = self.random_poly(rng, kappa)
                for i in range(1, kappa):
                    assert act_sigma_inv(i, f) == self.oracle(i, f), (i, str(f))

    def test_symmetric(self):
        rng = random.Random(41)
        for kappa in (2, 3, 4):
            for _ in range(10):
                g = self.random_poly(rng, kappa)
                for i in range(1, kappa):
                    f = g + swap_variables(g, i)
                    assert act_sigma_inv(i, f) == self.oracle(i, f) == f.scale(s_power(-1))


class TestYLetter:
    def test_rank_one_is_pure_rotation(self):
        for n in range(-3, 4):
            f = LaurentPoly.variable(1, 1, n)
            assert act_y1(f) == f.scale(c_power(2 * n))

    def test_rank_two_on_constant(self):
        assert act_y1(LaurentPoly.one(2)) == LaurentPoly.one(2).scale(s_power(-1))

    def test_rank_two_on_x1(self):
        assert act_y1(X(1)) == act_sigma_inv(1, X(2).scale(c_power(2)))

    @given(laurent_polys())
    def test_round_trip(self, f):
        assert act_y1_inv(act_y1(f)) == f
        assert act_y1(act_y1_inv(f)) == f

    def test_rotation_must_act_first(self):
        # Applying the rotation after the braid chain breaks the torus
        # relation x1^-1 y1 x1 y1^-1 = c^2 s1 s1; with the implemented order
        # it holds.  This pins the composition order of act_y1.
        from daha import rotate_variables_inverse

        def wrong_y1(f):
            return rotate_variables(act_sigma_inv(1, f))

        def wrong_y1_inv(f):
            return act_sigma(1, rotate_variables_inverse(f))

        def torus_word(f, y1, y1_inv):
            return act_x(1, y1(act_x(1, y1_inv(f))), -1)

        f = LaurentPoly.one(2)
        rhs = act_sigma(1, act_sigma(1, f)).scale(c_power(2))
        assert torus_word(f, wrong_y1, wrong_y1_inv) != rhs
        assert torus_word(f, act_y1, act_y1_inv) == rhs


class TestWordAction:
    def test_identity_word(self):
        f = X(1, 2) * X(2)
        assert act_word(GeneratorWord(2), f) == f

    def test_inverse_pair(self):
        f = X(1, 2) * X(2)
        assert act_word(parse_word("s1*s1^-1", 2), f) == f

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            act_word(parse_word("x1", 3), LaurentPoly.one(2))

    def test_torus_relation_on_small_monomials(self):
        lhs_word = parse_word("x1^-1*y1*x1*y1^-1", 2)
        rhs_word = parse_word("s1^2", 2)
        for f in monomials(2, 2):
            assert act_word(lhs_word, f) == act_word(rhs_word, f).scale(c_power(2))

    @given(laurent_polys(rank=2, max_exp=2), st.integers(min_value=1, max_value=1))
    def test_derived_loop_conjugation(self, f, i):
        # s_i x_i s_i = x_{i+1} and the same for y, as operator identities.
        from daha import expand_x, expand_y

        for expand in (expand_x, expand_y):
            conjugated = GeneratorWord(2, [*parse_word(f"s{i}", 2).letters]) * expand(i, 2) * parse_word(f"s{i}", 2)
            assert act_word(conjugated, f) == act_word(expand(i + 1, 2), f)

    def test_derived_loop_conjugation_rank_three(self):
        from daha import expand_x, expand_y

        f = LaurentPoly.monomial(3, (1, -1, 2))
        for expand in (expand_x, expand_y):
            for i in (1, 2):
                sigma = parse_word(f"s{i}", 3)
                conjugated = sigma * expand(i, 3) * sigma
                assert act_word(conjugated, f) == act_word(expand(i + 1, 3), f)
