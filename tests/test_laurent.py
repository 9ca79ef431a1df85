"""Tests for sparse Laurent polynomials and their structure operators."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from daha import (
    LaurentPoly,
    NonDivisibleError,
    RankMismatchError,
    ScalarPoly,
    SkeinElement,
    c_power,
    d_power,
    exact_divide,
    hbar,
    parse_laurent,
    parse_skein,
    rotate_variables,
    rotate_variables_inverse,
    s_power,
    swap_variables,
    symmetrize,
)
from daha import laurent
from daha._tokens import MAX_EXPONENT
from daha.errors import ParseError
from daha.laurent import adjacent_ratio, braid_kernel

from conftest import laurent_polys, lopsided_pairs, scalar_polys, shared_coefficient_runs
from kernel_oracle import composed_kernel
from product_oracle import combination_sum, d_eq_s, laurent_product


def X(i: int, exp: int = 1, rank: int = 2) -> LaurentPoly:
    return LaurentPoly.variable(rank, i, exp)


def run_optimized(script: str) -> str:
    """Run script under ``python -O`` with this checkout's sources; return its stdout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def shift_the_wrong_way(p: LaurentPoly, i: int) -> LaurentPoly:
    """p * X_i^-1 * X_{i+1}: a wrong stand-in for laurent._times_ratio, which
    multiplies by X_i * X_{i+1}^-1."""
    return LaurentPoly(p.rank, {
        exps[: i - 1] + (exps[i - 1] - 1, exps[i] + 1) + exps[i + 1 :]: coeff
        for exps, coeff in p.terms.items()
    })


def crossing_binomial(rank: int, i: int) -> LaurentPoly:
    """X_i * X_{i+1}^-1 - 1, the divisor used throughout."""
    return X(i, 1, rank) * X(i + 1, -1, rank) - LaurentPoly.one(rank)


class TestRingOps:
    def test_additive_inverse(self):
        assert X(1) + (-X(1)) == LaurentPoly.zero(2)

    def test_two_term_sum(self):
        assert (X(1) + X(2)).term_count() == 2

    def test_coefficient_merge(self):
        total = X(1).scale(s_power(1)) + X(1).scale(s_power(-1))
        assert total == X(1).scale(s_power(1) + s_power(-1))

    def test_unit_cancellation(self):
        assert X(1) * X(1, -1) == LaurentPoly.one(2)

    def test_difference_of_squares(self):
        assert (X(1) - X(2)) * (X(1) + X(2)) == X(1, 2) - X(2, 2)

    def test_cross_variable_product(self):
        got = X(2).scale(c_power(2)) * X(1, -1)
        assert got == LaurentPoly.monomial(2, (-1, 1), c_power(2))

    @pytest.mark.parametrize("operate", [
        lambda f, v: f + v,
        lambda f, v: f - v,
        lambda f, v: f * v,
        lambda f, v: f * 1.5,
    ], ids=["add", "sub", "mul", "mul-float"])
    def test_operand_of_another_class_raises(self, operate):
        with pytest.raises(TypeError):
            operate(X(1), SkeinElement.basis(2, (1, 0)))

    def test_values_of_another_class_are_unequal(self):
        assert X(1) != SkeinElement.basis(2, (1, 0))
        assert LaurentPoly.one(2) != 1

    def test_equal_values_hash_equal(self):
        assert hash(X(1) + X(2)) == hash(parse_laurent("X2 + X1", 2))
        assert hash(SkeinElement.basis(2, (1, 0))) == hash(parse_skein("(a1,[1 2])", 2))

    @pytest.mark.parametrize("value", [0.5, 1.7, 1.0000001])
    def test_constructor_rejects_non_integer_exponents(self, value):
        with pytest.raises(TypeError):
            LaurentPoly(2, {(value, 0): 1})
        with pytest.raises(TypeError):
            LaurentPoly(2, {(0, 1): value})

    @pytest.mark.parametrize("value", [0.5, 1.5, 1.0000001])
    def test_monomial_rejects_non_integer_exponents(self, value):
        with pytest.raises(TypeError):
            LaurentPoly.monomial(2, (value, 0))
        with pytest.raises(TypeError):
            LaurentPoly.monomial(2, (0, 0), value)

    def test_constructor_rejects_bad_rank_and_exponent_length(self):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            LaurentPoly(0)
        with pytest.raises(ValueError, match="has length 1, expected 2"):
            LaurentPoly(2, {(1,): 1})

    @pytest.mark.parametrize("build", [
        lambda: LaurentPoly(0),
        lambda: LaurentPoly.zero(0),
        lambda: LaurentPoly.monomial(0, []),
        lambda: LaurentPoly.one(0),
        lambda: LaurentPoly.variable(0, 1),
    ])
    def test_every_constructor_rejects_rank_zero(self, build):
        with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$"):
            build()

    @pytest.mark.parametrize("coeff", [2.5, "2", None, [1]])
    def test_scale_takes_an_int_or_a_scalar(self, coeff):
        with pytest.raises(TypeError):
            LaurentPoly.one(2).scale(coeff)

    def test_scale_multiplies_once_per_coefficient_run(self, monkeypatch):
        # The product is looked up on ScalarPoly when scale runs, so a
        # replaced __mul__ sees every product.
        a, b = s_power(1) - c_power(2), ScalarPoly.integer(-3)
        f = LaurentPoly(2, [((j, -j), coeff) for j, coeff in enumerate([a, a, b, a, b, b, a])])
        calls = []
        multiply = ScalarPoly.__mul__
        monkeypatch.setattr(ScalarPoly, "__mul__",
                            lambda self, other: calls.append(self) or multiply(self, other))
        got = f.scale(hbar())
        monkeypatch.undo()
        assert calls == [a, b, a, b, a]
        assert got == laurent_product(LaurentPoly.monomial(2, (0, 0), hbar()), f)

    @pytest.mark.parametrize("rank", [2.0, "2"])
    def test_rejects_a_non_integer_rank(self, rank):
        with pytest.raises(TypeError):
            LaurentPoly(rank, {(1, 0): 1})
        with pytest.raises(TypeError):
            LaurentPoly.zero(rank)
        with pytest.raises(TypeError):
            LaurentPoly.monomial(rank, (1, 0))
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            LaurentPoly.variable(rank, 1)

    @given(lopsided_pairs(
        laurent_polys(rank=2, min_terms=8, max_terms=16, max_exp=2),
        laurent_polys(rank=2, max_terms=2, max_exp=2),
    ))
    def test_sum_of_unequal_operands_matches_oracle(self, pair):
        big, little = pair
        expected = combination_sum(big, little, 2)
        for total in (big + little, little + big):
            assert total == expected
            assert all(c and 0 not in c.terms.values() for c in total.terms.values())

    def test_rank_mismatch_is_an_error(self):
        with pytest.raises(RankMismatchError):
            X(1, 1, 2) + X(1, 1, 3)
        with pytest.raises(RankMismatchError):
            X(1, 1, 2) * X(1, 1, 3)

    @given(
        st.tuples(*[st.integers(-3, 3)] * 3),
        st.one_of(
            st.sampled_from([1, -1, 2, -3, 7]).map(ScalarPoly.integer),
            scalar_polys(max_terms=3).filter(bool),
        ),
        laurent_polys(rank=3, max_terms=6),
    )
    def test_one_term_product_matches_double_loop(self, shift, coeff, f):
        unit = LaurentPoly.monomial(3, shift, coeff)
        expected = laurent_product(unit, f)
        assert unit * f == expected
        assert f * unit == expected

    @given(laurent_polys(rank=3, max_terms=6))
    def test_one_term_product_by_one(self, f):
        assert f * LaurentPoly.one(3) == f == LaurentPoly.one(3) * f

    def test_scale_with_shared_coefficient_objects(self):
        # Runs of one coefficient object, as in exact_divide's quotients, and
        # runs broken by another object, against the double loop.
        a, b = s_power(1) - c_power(2), ScalarPoly.integer(-3)
        pattern = [a, a, b, a, b, b, a]
        f = LaurentPoly(2, [((j, -j), coeff) for j, coeff in enumerate(pattern)])
        for factor in (hbar(), ScalarPoly.integer(2), s_power(-1), ScalarPoly.one()):
            expected = laurent_product(LaurentPoly.monomial(2, (0, 0), factor), f)
            assert f.scale(factor) == expected

    @pytest.mark.parametrize("zero", [0, ScalarPoly.zero()], ids=["int", "scalar"])
    def test_scale_by_zero_is_the_zero_of_the_same_rank(self, zero):
        # Every product is zero, so _map_coefficients keeps no term.
        f = parse_laurent("(s + s^-1)*X1^2*X2^-1 + c^2*X3", 3)
        v = parse_skein("c^4*(a1^-1*a2^2,[1 2]) - d*(a1,[2 1])", 2)
        assert f.scale(zero) == LaurentPoly.zero(3)
        assert v.scale(zero) == SkeinElement.zero(2)

    def test_one_term_product_shifts_keys(self):
        f = X(1, 2).scale(s_power(1) - s_power(-1)) - X(2).scale(c_power(3))
        unit = LaurentPoly.monomial(2, (1, -1), ScalarPoly.monomial(-1, 0, 2, coeff=-2))
        expected = LaurentPoly(2, [
            ((3, -1), ScalarPoly({(0, 0, 2): -2, (-2, 0, 2): 2})),
            ((1, 0), ScalarPoly({(-1, 3, 2): 2})),
        ])
        assert unit * f == expected == f * unit
        assert laurent_product(unit, f) == expected

    @given(laurent_polys(rank=3), laurent_polys(rank=3), laurent_polys(rank=3))
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


class TestSwap:
    def test_swaps_single_variable(self):
        assert swap_variables(X(1), 1) == X(2)

    def test_fixes_symmetric_monomial(self):
        assert swap_variables(X(1) * X(2), 1) == X(1) * X(2)

    def test_swaps_exponents(self):
        f = LaurentPoly.monomial(2, (2, -1))
        assert swap_variables(f, 1) == LaurentPoly.monomial(2, (-1, 2))

    def test_index_range(self):
        with pytest.raises(IndexError):
            swap_variables(X(1), 2)
        with pytest.raises(IndexError):
            swap_variables(X(1), 0)

    @given(laurent_polys(rank=3), st.integers(min_value=1, max_value=2))
    def test_involution(self, f, i):
        assert swap_variables(swap_variables(f, i), i) == f

    @given(laurent_polys(rank=3), laurent_polys(rank=3), st.integers(min_value=1, max_value=2))
    def test_ring_automorphism(self, f, g, i):
        assert swap_variables(f + g, i) == swap_variables(f, i) + swap_variables(g, i)
        assert swap_variables(f * g, i) == swap_variables(f, i) * swap_variables(g, i)


class TestRotate:
    def test_monomial_formula(self):
        # (n1, n2, n3) -> c^(2 n1) X3^n1 X1^n2 X2^n3
        f = LaurentPoly.monomial(3, (2, -1, 3))
        assert rotate_variables(f) == LaurentPoly.monomial(3, (-1, 3, 2), c_power(4))

    def test_fixes_constants(self):
        one = LaurentPoly.one(3)
        assert rotate_variables(one) == one

    def test_rank_two_instance(self):
        f = LaurentPoly.monomial(2, (2, -1))
        assert rotate_variables(f) == LaurentPoly.monomial(2, (-1, 2), c_power(4))

    @given(laurent_polys(rank=3))
    def test_additive(self, f):
        g = LaurentPoly.monomial(3, (1, 0, -2))
        assert rotate_variables(f + g) == rotate_variables(f) + rotate_variables(g)

    @given(laurent_polys())
    def test_inverse_round_trip(self, f):
        assert rotate_variables_inverse(rotate_variables(f)) == f
        assert rotate_variables(rotate_variables_inverse(f)) == f

    @given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3),
           st.integers(min_value=-3, max_value=3))
    def test_full_cycle_scales_by_total_degree(self, n1, n2, n3):
        f = LaurentPoly.monomial(3, (n1, n2, n3))
        g = f
        for _ in range(3):
            g = rotate_variables(g)
        assert g == f.scale(c_power(2 * (n1 + n2 + n3)))


class TestExactDivide:
    def test_zero(self):
        assert exact_divide(LaurentPoly.zero(2), 1) == LaurentPoly.zero(2)

    def test_first_derived_example(self):
        # (-X2) * (X1*X2^-1 - 1) = -X1 + X2, so (X2 - X1) / divisor = -X2.
        quotient = exact_divide(X(2) - X(1), 1)
        assert quotient == -X(2)
        assert quotient * crossing_binomial(2, 1) == X(2) - X(1)

    def test_second_derived_example(self):
        quotient = exact_divide(X(1) - X(2), 1)
        assert quotient == X(2)
        assert quotient * crossing_binomial(2, 1) == X(1) - X(2)

    def test_non_divisible_raises(self):
        with pytest.raises(NonDivisibleError):
            exact_divide(LaurentPoly.one(2), 1)
        with pytest.raises(NonDivisibleError):
            exact_divide(X(1) + X(2), 1)

    def test_certification_runs_under_optimize_flag(self):
        # The multiply-back check must not be an assert: under python -O a
        # wrong product still makes exact_divide raise NonDivisibleError.
        script = textwrap.dedent(
            """
            import sys
            from daha import LaurentPoly, NonDivisibleError, exact_divide
            if __debug__:
                sys.exit("expected to run under python -O")
            f = LaurentPoly.variable(2, 2) - LaurentPoly.variable(2, 1)
            LaurentPoly.__mul__ = lambda self, other: LaurentPoly.zero(self.rank)
            try:
                exact_divide(f, 1)
            except NonDivisibleError:
                print("raised")
            """
        )
        assert run_optimized(script) == "raised"

    def test_high_power_difference(self):
        f = X(1, 3) - X(2, 3) * X(1, 0)
        swapped_diff = swap_variables(f, 1) - f
        quotient = exact_divide(swapped_diff, 1)
        assert quotient * crossing_binomial(2, 1) == swapped_diff

    @given(laurent_polys(max_exp=4), st.data())
    def test_swap_difference_always_divides(self, f, data):
        if f.rank == 1:
            return
        i = data.draw(st.integers(min_value=1, max_value=f.rank - 1))
        g = swap_variables(f, i) - f
        quotient = exact_divide(g, i)
        divisor = (
            LaurentPoly.variable(f.rank, i) * LaurentPoly.variable(f.rank, i + 1, -1)
            - LaurentPoly.one(f.rank)
        )
        assert quotient * divisor == g

    @given(laurent_polys(rank=3), st.integers(min_value=1, max_value=2))
    def test_multiply_then_divide_round_trip(self, q, i):
        divisor = (
            LaurentPoly.variable(3, i) * LaurentPoly.variable(3, i + 1, -1) - LaurentPoly.one(3)
        )
        assert exact_divide(q * divisor, i) == q


def _scalar_sum(a: dict, b: dict) -> dict:
    """The sum of two scalars held as plain {triple: int} dicts."""
    total = dict(a)
    for key, n in b.items():
        total[key] = total.get(key, 0) + n
    return {key: n for key, n in total.items() if n}


def long_division(terms: dict, i: int) -> tuple[dict, dict]:
    """Divide ``{exps: {triple: int}}`` by X_i X_{i+1}^-1 - 1 by schoolbook
    long division in Y = X_i X_{i+1}^-1, class by class, on plain dicts.

    Return (quotient, {class: nonzero remainder}).  Each step takes the
    leading term a*Y^top of what is left, puts a*Y^(top-1) in the quotient
    and subtracts a*Y^(top-1) * (Y - 1), which moves a down one degree.
    """
    idx = i - 1
    classes: dict[tuple, dict[int, dict]] = {}
    for exps, coeff in terms.items():
        cls = exps[:idx] + (exps[idx] + exps[idx + 1],) + exps[idx + 2 :]
        classes.setdefault(cls, {})[exps[idx]] = dict(coeff)
    quotient, remainders = {}, {}
    for cls, left in classes.items():
        low = min(left)
        while left and max(left) > low:
            top = max(left)
            lead = left.pop(top)
            quotient[cls[:idx] + (top - 1, cls[idx] - top + 1) + cls[idx + 1 :]] = lead
            moved = _scalar_sum(left.get(top - 1, {}), lead)
            if moved:
                left[top - 1] = moved
            else:
                left.pop(top - 1, None)
        if left:
            remainders[cls] = left[low]
    return quotient, remainders


def plain(f: LaurentPoly) -> dict:
    return {exps: dict(coeff.terms) for exps, coeff in f.terms.items()}


def seeded_poly(rng, rank: int, terms: int, spread: int) -> LaurentPoly:
    """A polynomial whose exponents lie in a small box, so that several
    terms share a class; coefficients come from a few multi-term scalars."""
    pool = [hbar(), s_power(1) + c_power(-1) * 3, d_power(2) - ScalarPoly.integer(2), ScalarPoly.integer(-5)]
    return LaurentPoly(rank, [
        (tuple(rng.randint(-spread, spread) for _ in range(rank)), rng.choice(pool))
        for _ in range(terms)
    ])


class TestExactDivideSweep:
    """The class-by-class sweep against a long division on plain dicts."""

    @pytest.mark.parametrize("kappa", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_swap_differences_match_long_division(self, kappa, seed):
        rng = random.Random(1000 * kappa + seed)
        f = seeded_poly(rng, kappa, terms=3 + 2 * kappa, spread=2)
        i = rng.randint(1, kappa - 1)
        g = swap_variables(f, i) - f
        quotient, remainders = long_division(plain(g), i)
        assert not remainders
        classes = {exps[: i - 1] + (exps[i - 1] + exps[i],) + exps[i + 1 :] for exps in g.terms}
        assert len(classes) > 1
        assert plain(exact_divide(g, i)) == quotient

    def test_a_class_at_the_exponent_cap(self):
        m = MAX_EXPONENT
        f = X(1, m) * X(2, -m).scale(hbar()) + X(2, 3).scale(c_power(1))
        g = swap_variables(f, 1) - f
        quotient, remainders = long_division(plain(g), 1)
        assert not remainders
        assert len(quotient) == 2 * m + 3
        assert plain(exact_divide(g, 1)) == quotient

    def test_a_zero_gap_inside_one_class(self):
        # (Y^2 + 1) * (Y - 1) = Y^3 - Y^2 + Y - 1: the running sum cancels at
        # degree 1, so the quotient has no Y^1 term.
        q = X(1, 2) * X(2, -2) + LaurentPoly.one(2).scale(s_power(1))
        f = q * crossing_binomial(2, 1)
        assert f.term_count() == 4
        assert exact_divide(f, 1) == q
        assert plain(q) == long_division(plain(f), 1)[0]

    def test_a_single_term_class_is_named(self):
        # A divisible class next to the one-term class (2, 1) = {3*X1^2*X3}.
        f = crossing_binomial(3, 1) + X(1, 2, 3) * X(3, 1, 3).scale(3)
        assert long_division(plain(f), 1)[1] == {(2, 1): {(0, 0, 0): 3}}
        with pytest.raises(NonDivisibleError, match=re.escape("class (2, 1) leaves remainder 3")):
            exact_divide(f, 1)

    def test_zero_input_at_the_last_pair(self):
        assert long_division({}, 3) == ({}, {})
        assert exact_divide(LaurentPoly.zero(4), 3) == LaurentPoly.zero(4)

    def test_no_sum_has_a_zero_operand(self, monkeypatch):
        original = ScalarPoly.__add__
        sums, empty = [], []

        def recording_add(a, b):
            sums.append(1)
            if not a.terms or not b.terms:
                empty.append((a, b))
            return original(a, b)

        rng = random.Random(7)
        cases = [(swap_variables(f, 1) - f, 1) for f in (seeded_poly(rng, 3, 9, 2) for _ in range(8))]
        q = X(1, 2) * X(2, -2) + LaurentPoly.one(2)
        cases.append((q * crossing_binomial(2, 1), 1))
        monkeypatch.setattr(ScalarPoly, "__add__", recording_add)
        for g, i in cases:
            exact_divide(g, i)
        assert sums
        assert empty == []


class TestOperandClass:
    """Laurent's variable operators refuse anything but a LaurentPoly."""

    @pytest.mark.parametrize("name, call", [
        ("swap_variables", lambda v: swap_variables(v, 1)),
        ("rotate_variables", rotate_variables),
        ("rotate_variables_inverse", rotate_variables_inverse),
        ("exact_divide", lambda v: exact_divide(v, 1)),
        ("swap_variables", lambda v: braid_kernel(v, 1)),
    ], ids=["swap_variables", "rotate_variables", "rotate_variables_inverse", "exact_divide",
            "braid_kernel"])
    @pytest.mark.parametrize("value", [SkeinElement.basis(2, (1, 0)), s_power(1), 3],
                             ids=["SkeinElement", "ScalarPoly", "int"])
    def test_refuses_another_class(self, name, call, value):
        with pytest.raises(TypeError, match=f"^{name} expects a LaurentPoly, got {type(value).__name__}$"):
            call(value)


class TestBraidKernel:
    def test_adjacent_ratio(self):
        assert adjacent_ratio(3, 2) == X(2, 1, 3) * X(3, -1, 3)

    def test_divided_difference(self):
        f = X(1, 3) * X(2, -1) + X(2).scale(c_power(1))
        swapped, g = braid_kernel(f, 1)
        assert swapped == swap_variables(f, 1)
        assert g * crossing_binomial(2, 1) == (swapped - f).scale(hbar())

    def test_symmetric_input_skips_the_division(self, monkeypatch):
        def no_division(f, i):
            raise AssertionError("exact_divide called on a symmetric input")

        monkeypatch.setattr(laurent, "exact_divide", no_division)
        symmetric = [
            (X(1) + X(2), 1),
            (X(1, 2) * X(2, 2), 1),
            (LaurentPoly.one(3), 2),
            (X(1, -1, 3) * X(2, -1, 3) + X(3, 4, 3).scale(hbar()), 1),
            (LaurentPoly.zero(2), 1),
        ]
        for f, i in symmetric:
            swapped, g = braid_kernel(f, i)
            assert swapped == f
            assert not g


def term(exps: tuple[int, ...], coeff: ScalarPoly | int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(len(exps), exps, coeff)


M = MAX_EXPONENT
A, B = s_power(1) + c_power(-1) * 3, d_power(2) - ScalarPoly.integer(2)
HALF_SWEEP_CASES = {
    # Pair sum 3: degrees 3 and -1 of one class.
    "odd-pair-sum": (term((3, 0)) + term((-1, 4), 2), 1),
    # Pair sum 2; the quotient's middle is degree 1, its own mirror.
    "even-pair-sum": (term((3, -1)) + term((0, 2), c_power(1)), 1),
    "negative-odd-pair-sum": (term((-4, 1)) + term((2, -5), s_power(1)), 1),
    "negative-even-pair-sum": (term((-6, 2), A) + term((1, -5), B) + term((-3, -1)), 1),
    # A class with its lone term at j = p - j, and one with equal
    # coefficients at j and p - j: both are fixed by the swap.
    "symmetric-classes": (term((2, 2), A) + term((3, 0), B) + term((0, 3), B)
                          + term((2, -1)) + term((-1, 0), hbar()), 1),
    "mirror-pair-unequal": (term((3, -1), A) + term((-1, 3), B), 1),
    # Equal values in distinct objects at j and p - j, beside a class that moves.
    "mirror-pair-equal-values": (term((4, 0), A) + term((0, 4), ScalarPoly(A.terms))
                                 + term((1, -2), hbar()), 1),
    # Pair sum 0: the sum is -A after degree 3 and cancels to zero at
    # degree 2, so the quotient has no terms at degrees 1 and -2.
    "sum-cancels-on-an-add": (term((3, -3), A) + term((-2, 2), A) + term((-1, 1), B), 1),
    # The sum is A after degree 3 and the subtraction at degree 2 cancels it.
    "sum-cancels-on-a-subtraction": (term((3, -3), -A) + term((2, -2), A) + term((-1, 1), B), 1),
    "multi-term-coefficients": (term((2, -1), hbar()) + term((-2, 1), A * hbar()), 1),
    "coefficients-with-d": (term((1, 3), d_power(-1)) + term((0, -2), B)
                            + term((5, 0), d_power(1) * s_power(1) + c_power(-1)), 1),
    "last-pair-at-kappa-5": (term((1, 0, -2, 3, -1), A) + term((0, 2, 1, -1, 4), B)
                             + term((1, 0, -2, 0, 2)), 4),
    "span-at-max-exponent": (term((M, -M), hbar()) + term((0, 3), c_power(1))
                             + term((-M, M - 1), B), 1),
    "span-at-max-exponent-kappa-3": (term((1, M, -M), A) + term((0, -M, M)) + term((1, 0, M)), 2),
}


def refuse_exact_divide(f, i):
    raise AssertionError("exact_divide called on a multi-term input")


class TestHalfSweep:
    """braid_kernel on inputs of two or more terms that the swap moves,
    against the composition of swap, subtraction, exact_divide and scale
    (``tests/kernel_oracle.py``), with exact_divide refused."""

    def check(self, monkeypatch, f, i):
        expected = composed_kernel(f, i)
        assert f.term_count() > 1 and swap_variables(f, i) != f
        with monkeypatch.context() as patched:
            patched.setattr(laurent, "exact_divide", refuse_exact_divide)
            swapped, g = braid_kernel(f, i)
        assert swapped == swap_variables(f, i)
        assert g == expected
        assert str(g) == str(expected)
        return g

    @pytest.mark.parametrize("name", sorted(HALF_SWEEP_CASES))
    def test_named_case_matches_the_composition(self, monkeypatch, name):
        self.check(monkeypatch, *HALF_SWEEP_CASES[name])

    def test_a_cancelled_sum_leaves_a_gap(self, monkeypatch):
        g = self.check(monkeypatch, *HALF_SWEEP_CASES["sum-cancels-on-an-add"])
        assert {exps[0] for exps in g.terms} == {2, 0, -1, -3}

    @pytest.mark.parametrize("kappa", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_inputs_match_the_composition(self, monkeypatch, kappa, seed):
        rng = random.Random(7000 * kappa + seed)
        f = seeded_poly(rng, kappa, terms=2 + 2 * kappa, spread=3)
        i = rng.randint(1, kappa - 1)
        if swap_variables(f, i) == f:
            f = f + term(tuple(rng.randint(1, 3) if j == i - 1 else 0 for j in range(kappa)))
        self.check(monkeypatch, f, i)

    @pytest.mark.parametrize("kappa", [2, 3, 4, 5])
    def test_every_pair_of_a_seeded_input(self, monkeypatch, kappa):
        # Pair sums of both parities, and classes the swap fixes, at every i.
        rng = random.Random(kappa)
        f = seeded_poly(rng, kappa, terms=4 * kappa, spread=2)
        for i in range(1, kappa):
            pair_sums = {exps[i - 1] + exps[i] for exps in f.terms}
            assert {p % 2 for p in pair_sums} == {0, 1}
            self.check(monkeypatch, f, i)

    def test_a_wrong_product_fails_certification(self, monkeypatch):
        f, i = HALF_SWEEP_CASES["odd-pair-sum"]
        monkeypatch.setattr(laurent, "_times_ratio", shift_the_wrong_way)
        with pytest.raises(NonDivisibleError, match="certification failed"):
            braid_kernel(f, i)

    def test_certification_runs_under_optimize_flag(self):
        # As for exact_divide: not an assert, so python -O still raises.
        script = textwrap.dedent(
            """
            import sys
            from daha import LaurentPoly, NonDivisibleError, laurent
            from daha.laurent import braid_kernel
            if __debug__:
                sys.exit("expected to run under python -O")
            f = LaurentPoly.variable(2, 1, 2) + LaurentPoly.variable(2, 2)
            laurent._times_ratio = lambda p, i: LaurentPoly(
                p.rank, {(a - 1, b + 1): coeff for (a, b), coeff in p.terms.items()}
            )
            try:
                braid_kernel(f, 1)
            except NonDivisibleError:
                print("raised")
            """
        )
        assert run_optimized(script) == "raised"


class Index:
    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


class TestTimesRatio:
    """laurent._times_ratio against the product by adjacent_ratio."""

    def check(self, p, i):
        got = laurent._times_ratio(p, i)
        expected = p * adjacent_ratio(p.rank, i)
        assert got == expected
        assert list(got.terms) == list(expected.terms)
        assert got.rank == p.rank

    @pytest.mark.parametrize("kappa", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_inputs_at_every_pair(self, kappa, seed):
        # Multi-term coefficients, one of them carrying d.
        rng = random.Random(9000 * kappa + seed)
        p = seeded_poly(rng, kappa, terms=3 * kappa, spread=3)
        for i in range(1, kappa):
            self.check(p, i)

    @pytest.mark.parametrize("kappa", [2, 3, 4, 5])
    def test_zero(self, kappa):
        for i in range(1, kappa):
            self.check(LaurentPoly.zero(kappa), i)

    def test_exponents_at_the_parse_cap(self):
        p = term((M, -M, M)) + term((-M, M, 0), A) + term((0, -M, -M), B)
        for i in (1, 2):
            self.check(p, i)

    def test_index_object(self):
        p = term((2, -1, 0), A) + term((0, 3, -2), B)
        for i in (1, 2):
            assert laurent._times_ratio(p, Index(i)) == laurent._times_ratio(p, i)
            self.check(p, Index(i))


class TestSubstitute:
    def test_coefficientwise(self):
        f = X(1).scale(d_power(2)) + X(2).scale(s_power(1) - d_power(1))
        assert f.substitute_d_eq_s() == X(1).scale(s_power(2))

    def test_runs_of_shared_coefficients(self, monkeypatch):
        # d - s vanishes at three keys in two runs; the other runs keep a d
        # (d^2 c) or have none (s + c^-2), and one object heads two runs.
        vanishing = d_power(1) - s_power(1)
        carrying = d_power(2) * c_power(1)
        d_free = s_power(1) + c_power(-2)
        coeffs = [vanishing, vanishing, carrying, d_free, d_free, vanishing, carrying, carrying]
        f = LaurentPoly(3, [((k, -k, 2 * k), coeff) for k, coeff in enumerate(coeffs)])
        calls = []
        substitute = ScalarPoly.substitute_d_eq_s
        monkeypatch.setattr(ScalarPoly, "substitute_d_eq_s",
                            lambda self: calls.append(self) or substitute(self))
        got = f.substitute_d_eq_s()
        assert got == d_eq_s(f)
        assert got.term_count() == 5
        # Once per run of one coefficient object.
        assert calls == [vanishing, carrying, d_free, vanishing, carrying]
        assert all(got.terms[key] is d_free for key, coeff in f.terms.items() if coeff is d_free)

    @given(st.data())
    def test_shared_coefficients_match_the_per_term_oracle(self, data):
        rank = data.draw(st.integers(min_value=1, max_value=3))
        keys = st.tuples(*[st.integers(min_value=-2, max_value=2)] * rank)
        f = LaurentPoly(rank, data.draw(shared_coefficient_runs(keys)))
        got = f.substitute_d_eq_s()
        expected = d_eq_s(f)
        assert got == expected
        assert str(got) == str(expected)

    def test_coefficients_have_d(self):
        # The averaging map takes exactly the polynomials without d.
        for f in (X(1).scale(s_power(1)) + X(2).scale(c_power(2)), LaurentPoly.zero(2)):
            assert symmetrize(f).term_count() == 2 * f.term_count()
        with pytest.raises(ValueError, match="coefficients involving d"):
            symmetrize(X(1).scale(s_power(1)) + X(2).scale(c_power(2) + d_power(-1)))


class TestTextFormat:
    def test_print_examples(self):
        f = X(1, 2) * X(2, -1) * s_power(1) + X(2) * c_power(2)
        assert str(f) == "s*X1^2*X2^-1 + c^2*X2"
        assert str(LaurentPoly.zero(2)) == "0"
        assert str(LaurentPoly.one(2)) == "1"
        assert str(-X(1)) == "-X1"
        assert str(X(1).scale(s_power(1) + s_power(-1))) == "(s + s^-1)*X1"
        assert str(LaurentPoly.one(2).scale(hbar2())) == "s^2 - 2 + s^-2"
        assert repr(-X(1)) == "<LaurentPoly rank=2 -X1>"

    @pytest.mark.parametrize("exps, coeff, text", [
        ((-1, 2), 1, "X1^-1*X2^2"),
        ((-1, 2, 1), -1, "-X1^-1*X2^2*X3"),
        ((2, 1, 0), s_power(-1) * 3, "3*s^-1*X1^2*X2"),
        ((0, -1, 2), -2, "-2*X2^-1*X3^2"),
        ((1, 0, -1), c_power(2), "c^2*X1*X3^-1"),
        ((0, 0, 0), -3, "-3"),
    ])
    def test_monomial_powers_in_every_position(self, exps, coeff, text):
        # Exponents -1, 1, 2 and 0 each reach every X_i; a factor 1 is dropped.
        assert str(LaurentPoly.monomial(len(exps), exps, coeff)) == text

    def test_parse_examples(self):
        assert parse_laurent("s*X1^2*X2^-1 + c^2*X2", 2) == (
            X(1, 2) * X(2, -1) * s_power(1) + X(2) * c_power(2)
        )
        assert parse_laurent("0", 2) == LaurentPoly.zero(2)
        assert parse_laurent("X1^+2", 2) == X(1, 2)
        assert parse_laurent("(s + s^-1)*X1 - 3", 2) == (
            X(1).scale(s_power(1) + s_power(-1)) - LaurentPoly.one(2) * 3
        )

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ParseError):
            parse_laurent("X3", 2)
        with pytest.raises(ParseError):
            parse_laurent("X", 2)
        with pytest.raises(ParseError):
            parse_laurent("X1 +", 2)
        with pytest.raises(ParseError):
            parse_laurent("", 2)
        with pytest.raises(ParseError, match=r"unexpected '\)' in polynomial"):
            parse_laurent("X1 )", 2)

    @given(laurent_polys())
    def test_round_trip(self, f):
        assert parse_laurent(str(f), f.rank) == f

    @given(scalar_polys())
    def test_constant_round_trip(self, a):
        f = LaurentPoly.one(2).scale(a)
        assert parse_laurent(str(f), 2) == f


def hbar2() -> ScalarPoly:
    return (s_power(1) - s_power(-1)) * (s_power(1) - s_power(-1))
