"""Tests for the coefficient ring Z[s^±1, c^±1, d^±1]."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from daha import ScalarPoly, c_power, d_power, hbar, parse_scalar, s_power
from daha.errors import ParseError

from conftest import lopsided_pairs, scalar_polys
from product_oracle import scalar_product, scalar_sum

ZERO = ScalarPoly.zero()
ONE = ScalarPoly.one()

# One-term factors: coefficients +-1 and |c| > 1, with and without a shift.
UNIT_COEFFS = (1, -1, 2, -3, 7, -1000)
one_term_scalars = st.builds(
    ScalarPoly.monomial,
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.sampled_from(UNIT_COEFFS),
)


def evaluate(poly: ScalarPoly, s=1, c=1, d=1) -> Fraction:
    """Evaluate at nonzero rational points."""
    total = Fraction(0)
    for (e_s, e_c, e_d), coeff in poly.terms.items():
        total += coeff * Fraction(s) ** e_s * Fraction(c) ** e_c * Fraction(d) ** e_d
    return total


class TestArithmetic:
    def test_additive_inverse(self):
        assert s_power(1) + (-s_power(1)) == ZERO

    def test_sum_without_cancellation(self):
        total = s_power(1) + s_power(-1)
        assert total == ScalarPoly({(1, 0, 0): 1, (-1, 0, 0): 1})

    def test_partial_cancellation(self):
        assert hbar() + s_power(-1) == s_power(1)

    @pytest.mark.parametrize("operate", [
        lambda a: a + 1.5,
        lambda a: a - 1.5,
        lambda a: a * 1.5,
        lambda a: 1.5 + a,
        lambda a: 1.5 - a,
    ], ids=["add-float", "sub-float", "mul-float", "radd-float", "rsub-float"])
    def test_operand_of_another_class_raises(self, operate):
        with pytest.raises(TypeError):
            operate(ONE)

    @pytest.mark.parametrize("operate, scalar_form", [
        (lambda a, n: a + n, lambda a, n: a + ScalarPoly.integer(n)),
        (lambda a, n: n + a, lambda a, n: ScalarPoly.integer(n) + a),
        (lambda a, n: a - n, lambda a, n: a - ScalarPoly.integer(n)),
        (lambda a, n: n - a, lambda a, n: ScalarPoly.integer(n) - a),
    ], ids=["add-int", "radd-int", "sub-int", "rsub-int"])
    @pytest.mark.parametrize("n", [0, 1, -2, 7])
    def test_integer_operand_is_its_scalar(self, operate, scalar_form, n):
        for a in (d_power(2), ZERO, ONE, hbar() + 2 * ONE):
            assert operate(a, n) == scalar_form(a, n)

    def test_integer_sums_and_differences(self):
        assert d_power(2) - 2 == ScalarPoly({(0, 0, 2): 1, (0, 0, 0): -2})
        assert 2 + d_power(2) == ScalarPoly({(0, 0, 2): 1, (0, 0, 0): 2})
        assert 2 - ONE == ONE

    @given(lopsided_pairs(scalar_polys(min_terms=0, max_terms=12), scalar_polys(max_terms=3)))
    def test_difference_matches_the_sum_oracle(self, pair):
        big, little = pair
        for a, b in (pair, (little, big)):
            expected = scalar_sum(a, ScalarPoly([(key, -n) for key, n in b.terms.items()]))
            difference = a - b
            assert difference == expected
            assert 0 not in difference.terms.values()

    def test_values_of_another_class_are_unequal(self):
        assert (ONE == 1) is False

    @given(lopsided_pairs(scalar_polys(min_terms=8, max_terms=16), scalar_polys(max_terms=2)))
    def test_sum_of_unequal_operands_matches_oracle(self, pair):
        big, little = pair
        expected = scalar_sum(big, little)
        for total in (big + little, little + big):
            assert total == expected
            assert 0 not in total.terms.values()

    def test_unit_inverse(self):
        assert c_power(2) * c_power(-2) == ONE

    def test_difference_of_squares(self):
        product = hbar() * (s_power(1) + s_power(-1))
        assert product == s_power(2) - s_power(-2)

    def test_hbar_squared(self):
        # (s - s^-1)^2 expanded by hand: s^2 - 2 + s^-2.
        expected = ScalarPoly({(2, 0, 0): 1, (0, 0, 0): -2, (-2, 0, 0): 1})
        assert hbar() * hbar() == expected

    def test_integer_multiplication(self):
        assert hbar() * 2 == hbar() + hbar()
        assert 0 * hbar() == ZERO

    @pytest.mark.parametrize("exps", [(1, 2), (1, 2, 3, 4), ()])
    def test_wrong_length_exponent_triple_raises_value_error(self, exps):
        with pytest.raises(ValueError, match="exponent triple expected"):
            ScalarPoly([(exps, 1)])

    def test_zero_terms_pruned_on_construction(self):
        poly = ScalarPoly([((1, 0, 0), 2), ((1, 0, 0), -2), ((0, 1, 0), 0)])
        assert poly == ZERO
        assert not poly

    @pytest.mark.parametrize("value", [0.5, 2.5, 1.0000001, Fraction(3, 2)])
    def test_constructor_rejects_non_integers(self, value):
        with pytest.raises(TypeError):
            ScalarPoly({(0, 0, 0): value})
        with pytest.raises(TypeError):
            ScalarPoly({(value, 0, 0): 1})

    @pytest.mark.parametrize("value", [0.5, 2.5, 1.0000001, Fraction(3, 2)])
    def test_integer_rejects_non_integers(self, value):
        with pytest.raises(TypeError):
            ScalarPoly.integer(value)

    @pytest.mark.parametrize("value", [0.5, 2.5, 1.0000001, Fraction(3, 2)])
    def test_monomial_rejects_non_integers(self, value):
        for kwargs in ({"e_s": value}, {"e_c": value}, {"e_d": value}, {"coeff": value}):
            with pytest.raises(TypeError):
                ScalarPoly.monomial(**kwargs)


class TestHbar:
    def test_value(self):
        assert hbar() == s_power(1) - s_power(-1)

    def test_plus_s_inverse(self):
        assert hbar() + s_power(-1) == s_power(1)

    def test_vanishes_at_s_equals_one(self):
        assert evaluate(hbar(), s=1) == 0
        assert evaluate(hbar(), s=2) == Fraction(3, 2)


class TestSubstituteD:
    def test_d_becomes_s(self):
        assert d_power(1).substitute_d_eq_s() == s_power(1)

    def test_exponent_cancellation(self):
        assert (d_power(-1) * s_power(1)).substitute_d_eq_s() == ONE

    def test_exponent_arithmetic(self):
        value = c_power(2) * d_power(3) * s_power(-1)
        assert value.substitute_d_eq_s() == c_power(2) * s_power(2)

    def test_colliding_terms_merge(self):
        assert (d_power(1) - s_power(1)).substitute_d_eq_s() == ZERO

    def test_has_d(self):
        assert not (s_power(2) + c_power(-1)).has_d()
        assert not ZERO.has_d()
        assert (s_power(2) + c_power(-1) * d_power(-1)).has_d()
        assert not (d_power(1) * d_power(-1)).has_d()

    def test_d_free_value_is_returned_unchanged(self):
        value = s_power(2) + c_power(-1)
        assert value.substitute_d_eq_s() is value

    @given(scalar_polys(), scalar_polys())
    def test_is_ring_homomorphism(self, a, b):
        assert (a + b).substitute_d_eq_s() == a.substitute_d_eq_s() + b.substitute_d_eq_s()
        assert (a * b).substitute_d_eq_s() == a.substitute_d_eq_s() * b.substitute_d_eq_s()


class TestRingAxioms:
    @given(scalar_polys(), scalar_polys(), scalar_polys())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(scalar_polys(), scalar_polys())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(scalar_polys(), scalar_polys())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(scalar_polys(), scalar_polys(), scalar_polys())
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(scalar_polys(), scalar_polys(), scalar_polys())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalar_polys())
    def test_evaluation_is_consistent_with_mul(self, a):
        point = dict(s=Fraction(2), c=Fraction(1, 3), d=Fraction(-5))
        assert evaluate(a * a, **point) == evaluate(a, **point) ** 2


class TestOneTermProduct:
    """Products with a one-term factor against the plain double loop."""

    @given(one_term_scalars, scalar_polys(max_terms=6))
    def test_matches_double_loop_in_both_orders(self, unit, poly):
        expected = scalar_product(unit, poly)
        assert unit * poly == expected
        assert poly * unit == expected

    @given(scalar_polys(max_terms=6))
    def test_factor_one_returns_the_operand(self, poly):
        assert poly * ONE == poly == ONE * poly
        if len(poly.terms) > 1:
            assert poly * ONE is poly
            assert ONE * poly is poly

    def test_shift_and_scale(self):
        poly = s_power(2) - 3 * c_power(-1) + d_power(1)
        unit = ScalarPoly.monomial(1, -2, 3, coeff=-5)
        expected = ScalarPoly({(3, -2, 3): -5, (1, -3, 3): 15, (1, -2, 4): -5})
        assert unit * poly == expected == poly * unit
        assert scalar_product(unit, poly) == expected


class TestTextFormat:
    def test_canonical_examples(self):
        assert str(hbar() * hbar()) == "s^2 - 2 + s^-2"
        assert str(ZERO) == "0"
        assert str(ScalarPoly.integer(-7)) == "-7"
        assert str(s_power(1)) == "s"
        assert str(-s_power(1)) == "-s"
        assert str(c_power(2) * d_power(-3) * 2) == "2*c^2*d^-3"
        assert repr(hbar()) == "<ScalarPoly s - s^-1>"

    @pytest.mark.parametrize("exps, coeff, text", [
        ((-1, 2, 1), 3, "3*s^-1*c^2*d"),
        ((0, -1, 2), -1, "-c^-1*d^2"),
        ((2, 0, -1), 1, "s^2*d^-1"),
        ((1, 1, 0), -2, "-2*s*c"),
        ((0, 0, 0), 1, "1"),
        ((0, 0, 0), -5, "-5"),
    ])
    def test_powers_in_every_position(self, exps, coeff, text):
        # Exponents -1, 1, 2 and 0 each reach s, c and d; a factor 1 is dropped.
        assert str(ScalarPoly.monomial(*exps, coeff=coeff)) == text

    def test_parse_examples(self):
        assert parse_scalar("s^2 - 2 + s^-2") == hbar() * hbar()
        assert parse_scalar("-3*c*d^-1 + 1") == ScalarPoly({(0, 1, -1): -3, (0, 0, 0): 1})
        assert parse_scalar("0") == ZERO

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("s +")
        with pytest.raises(ParseError):
            parse_scalar("q")
        with pytest.raises(ParseError):
            parse_scalar("s1")
        with pytest.raises(ParseError):
            parse_scalar("2 2")

    @given(scalar_polys())
    def test_round_trip(self, a):
        assert parse_scalar(str(a)) == a
