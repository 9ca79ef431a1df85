"""Tests for the skein module and the enhanced representation.

The closed-form push-through is checked against the independent oracles of
``push_oracle``: the push computed one monomial letter at a time, and the
same braid-letter action computed one loop letter at a time through the
module structure (peel one letter, commute, recurse), never forming the
whole (f, g) pair.  They must agree for every permutation and for both
factorization orders of the monomial.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from daha import (
    GeneratorLetter,
    GeneratorWord,
    LaurentPoly,
    Permutation,
    ScalarPoly,
    SkeinElement,
    all_permutations,
    c_power,
    d_power,
    hbar,
    parse_skein,
    parse_word,
    push_sigma_past_monomial,
    s_power,
)
from daha import skein as skein_module
from daha.errors import ParseError, RankMismatchError
from daha.laurent import accumulate, braid_kernel
from daha.skein import (
    act_sigma,
    act_sigma_base,
    act_sigma_inv,
    act_word,
    act_x,
    act_y1,
    act_y1_inv,
)
from daha.verify import default_alphabet, symmetrize

from conftest import lopsided_pairs, permutations, shared_coefficient_runs, skein_elements
from product_oracle import combination_sum, d_eq_s
from push_oracle import monomial_letters, push_by_letters, sigma_letter_by_letter, sigma_termwise

E2 = Permutation.identity(2)
T2 = Permutation((2, 1))


def unit(kappa: int, perm: Permutation) -> SkeinElement:
    return SkeinElement.basis(kappa, (0,) * kappa, perm)


def shared_coefficient_elements(kappa: int, rng: random.Random, count: int) -> list[SkeinElement]:
    """Seeded elements whose terms repeat exponent vectors (several
    permutations each) and share coefficient objects between terms."""
    pool = [s_power(1), hbar(), s_power(2) + c_power(-2) - d_power(1), ScalarPoly.integer(-3)]
    perms = list(all_permutations(kappa))
    elements = []
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(-3, 3) for _ in range(kappa))
            for perm in rng.sample(perms, rng.randint(1, len(perms))):
                terms.append(((exps, perm), rng.choice(pool)))
        elements.append(SkeinElement(kappa, terms))
    return elements


def product_termwise(v: SkeinElement, g: LaurentPoly) -> SkeinElement:
    """v * g from every pair of terms, merged by the validating constructor."""
    return SkeinElement(v.kappa, [
        ((tuple(x + y for x, y in zip(a_exps, b_exps)), perm), b_coeff * a_coeff)
        for a_exps, a_coeff in g.terms.items()
        for (b_exps, perm), b_coeff in v.terms.items()
    ])


@pytest.fixture
def product_merges(monkeypatch):
    """Count the calls multiply_by_a_poly makes to accumulate, the merging
    branch; placing pairwise disjoint shifted copies makes none."""
    calls = []

    def counting(data, items):
        calls.append(1)
        accumulate(data, items)

    monkeypatch.setattr(skein_module, "accumulate", counting)
    return calls


def inverse(perm: Permutation) -> Permutation:
    images = [0] * len(perm)
    for j, v in enumerate(perm, start=1):
        images[v - 1] = j
    return Permutation(tuple(images))


class TestPermutation:
    def test_swap_on_identity(self):
        assert E2.precompose_swap(1) == T2

    def test_swap_on_three_cycle(self):
        assert Permutation((2, 3, 1)).precompose_swap(1) == Permutation((3, 2, 1))

    @given(permutations(), st.data())
    def test_swap_is_involution(self, perm, data):
        if len(perm) == 1:
            return
        i = data.draw(st.integers(min_value=1, max_value=len(perm) - 1))
        assert perm.precompose_swap(i).precompose_swap(i) == perm

    def test_swap_flips_value_comparison(self):
        for perm in all_permutations(3):
            for i in (1, 2):
                swapped = perm.precompose_swap(i)
                assert (perm(i) < perm(i + 1)) == (swapped(i) > swapped(i + 1))

    def test_swap_index_range(self):
        with pytest.raises(IndexError):
            Permutation((1, 2)).precompose_swap(0)

    def test_call_maps_positions_one_to_size(self):
        perm = Permutation((2, 3, 1))
        assert [perm(j) for j in (1, 2, 3)] == [2, 3, 1]
        for j in (0, -1, 4):
            with pytest.raises(IndexError, match=rf"^position {j} out of range 1\.\.3$"):
                perm(j)

    def test_rejects_non_bijections(self):
        for images in [(1, 1), (0, 1), (), (2,), (2, 2, 1)]:
            with pytest.raises(ValueError):
                Permutation(images)

    @pytest.mark.parametrize("value", [2.0, 1.5, 2.0000001])
    def test_rejects_non_integer_images(self, value):
        with pytest.raises(TypeError):
            Permutation((1, value))

    def test_error_names_the_checked_images(self):
        with pytest.raises(ValueError, match=r"^\(1, 1\) is not a permutation of 1\.\.2$"):
            Permutation(x for x in (1, 1))

    @pytest.mark.parametrize("kappa", [1, 2, 3, 4])
    def test_all_permutations_equal_validated_ones(self, kappa):
        perms = list(all_permutations(kappa))
        assert perms == [Permutation(p) for p in itertools.permutations(range(1, kappa + 1))]
        assert all(type(perm) is Permutation for perm in perms)

    @pytest.mark.parametrize("kappa", [0, -1])
    def test_all_permutations_rejects_kappa_below_one(self, kappa):
        with pytest.raises(ValueError, match=f"^kappa must be >= 1, got {kappa}$"):
            list(all_permutations(kappa))

    def test_inverse(self):
        perm = Permutation((2, 3, 1))
        assert inverse(perm) == Permutation((3, 1, 2))

    @given(permutations())
    def test_equal_images_give_equal_hashes(self, perm):
        twin = Permutation(tuple(perm))
        assert twin == perm and twin is not perm
        assert hash(twin) == hash(perm)
        assert {perm: 1}[twin] == 1
        if len(perm) > 1:
            swapped = perm.precompose_swap(1)
            assert swapped != perm
            assert hash(swapped) == hash(Permutation(tuple(swapped)))

    def test_is_immutable(self):
        perm = Permutation((2, 1))
        with pytest.raises(AttributeError):
            perm.images = (1, 2)
        with pytest.raises(AttributeError):
            del perm.images
        assert perm == T2

    def test_str(self):
        assert str(T2) == "[2 1]"

    def test_is_the_tuple_of_its_images(self):
        perm = Permutation((2, 3, 1))
        assert perm == (2, 3, 1) and hash(perm) == hash((2, 3, 1))
        assert tuple(perm) == (2, 3, 1) and len(perm) == 3
        assert repr(perm) == "Permutation(images=(2, 3, 1))"
        with pytest.raises(TypeError, match=r"not an \(exponents, Permutation\) pair"):
            SkeinElement(3, [(((0, 0, 0), (2, 3, 1)), 1)])


class TestLoopLetters:
    def test_increments_exponent(self):
        assert act_x(1, unit(2, E2)) == SkeinElement.basis(2, (1, 0), E2)
        assert act_x(2, SkeinElement.basis(2, (0, -1), T2)) == unit(2, T2)
        assert act_x(1, SkeinElement.basis(2, (2, -1), T2)) == SkeinElement.basis(2, (3, -1), T2)

    def test_inverse_decrements(self):
        assert act_x(1, SkeinElement.basis(2, (1, 0), E2), -1) == unit(2, E2)

    def test_index_range(self):
        with pytest.raises(IndexError):
            act_x(3, unit(2, E2))

    @pytest.mark.parametrize("exp", [2.5, "1"])
    @pytest.mark.parametrize("v", [unit(2, E2), SkeinElement.zero(2)], ids=["unit", "zero"])
    def test_exponent_must_be_an_integer(self, exp, v):
        with pytest.raises(TypeError):
            act_x(1, v, exp)
        with pytest.raises(TypeError):
            v.shift_exponents((exp, 0))

    @pytest.mark.parametrize("offset", [(1,), (1, 0, 0, 5)])
    def test_offset_of_another_length_raises(self, offset):
        v = SkeinElement.basis(3, (1, 2, 3))
        message = rf"^exponent vector {re.escape(str(offset))} has length {len(offset)}, expected 3$"
        with pytest.raises(ValueError, match=message):
            v.shift_exponents(offset)

    def test_integer_like_exponent_becomes_an_int(self):
        shifted = act_x(1, unit(2, E2), True)
        assert shifted == SkeinElement.basis(2, (1, 0), E2)
        assert all(type(e) is int for exps, _ in shifted.terms for e in exps)


class TestBraidBaseRule:
    def test_ascending_case(self):
        assert act_sigma_base(1, E2) == unit(2, T2).scale(d_power(-1))

    def test_descending_case(self):
        expected = unit(2, E2).scale(d_power(1)) + unit(2, T2).scale(hbar())
        assert act_sigma_base(1, T2) == expected

    def test_three_strand_instance(self):
        # images (1,3,2): value 1 < 3 at positions 1,2, so the d^-1 case fires.
        perm = Permutation((1, 3, 2))
        assert act_sigma_base(1, perm) == unit(3, Permutation((3, 1, 2))).scale(d_power(-1))

    def test_agrees_with_full_action_on_exponent_free_terms(self):
        for perm in all_permutations(3):
            for i in (1, 2):
                assert act_sigma_base(i, perm) == act_sigma(i, unit(3, perm))

    def test_index_range(self):
        with pytest.raises(IndexError):
            act_sigma_base(2, T2)


class TestPush:
    def test_trivial_monomial(self):
        f, g = push_sigma_past_monomial(1, (0, 0))
        assert f == LaurentPoly.one(2)
        assert g == LaurentPoly.zero(2)

    def test_first_positive_rule(self):
        # s1 x1 = x2 s1 - hbar x2
        f, g = push_sigma_past_monomial(1, (1, 0))
        assert f == LaurentPoly.variable(2, 2)
        assert g == LaurentPoly.variable(2, 2).scale(-hbar())

    def test_second_positive_rule(self):
        # s1 x2 = x1 s1 + hbar x2
        f, g = push_sigma_past_monomial(1, (0, 1))
        assert f == LaurentPoly.variable(2, 1)
        assert g == LaurentPoly.variable(2, 2).scale(hbar())

    def test_balanced_monomial_commutes(self):
        f, g = push_sigma_past_monomial(1, (1, 1))
        assert f == LaurentPoly.variable(2, 1) * LaurentPoly.variable(2, 2)
        assert g == LaurentPoly.zero(2)

    def test_untouched_variable_commutes(self):
        f, g = push_sigma_past_monomial(1, (0, 0, 5))
        assert f == LaurentPoly.variable(3, 3, 5)
        assert g == LaurentPoly.zero(3)

    def test_order_independence(self):
        rng = random.Random(7)
        for _ in range(50):
            kappa = rng.randint(2, 3)
            exps = tuple(rng.randint(-3, 3) for _ in range(kappa))
            i = rng.randint(1, kappa - 1)
            closed = push_sigma_past_monomial(i, exps)
            assert push_by_letters(i, exps) == closed
            assert push_by_letters(i, exps, variable_order=range(kappa, 0, -1)) == closed

    def test_bad_variable_order(self):
        with pytest.raises(ValueError):
            push_by_letters(1, (1, 0), variable_order=[1, 1])

    def test_index_range(self):
        with pytest.raises(IndexError):
            push_sigma_past_monomial(2, (1, 0))

    def test_closed_form_exhaustive_small(self):
        # Every braid index and every exponent vector with |n_j| <= 4 for
        # kappa 2 and 3: 81 + 2 * 729 = 1539 cases.
        cases = 0
        for kappa in (2, 3):
            for exps in itertools.product(range(-4, 5), repeat=kappa):
                for i in range(1, kappa):
                    assert push_sigma_past_monomial(i, exps) == push_by_letters(i, exps), (i, exps)
                    cases += 1
        assert cases == 1539

    def test_closed_form_deep_exponents(self):
        # The exponent range of the push_deep_k3 benchmark workload.
        rng = random.Random(17)
        for _ in range(12):
            exps = tuple(rng.randint(-32, 32) for _ in range(3))
            i = rng.randint(1, 2)
            assert push_sigma_past_monomial(i, exps) == push_by_letters(i, exps), (i, exps)


class TestPushOracle:
    def test_derived_negative_rules_semantically(self):
        # s_i x_i^-1 = x_{i+1}^-1 s_i + hbar x_i^-1 and
        # s_i x_{i+1}^-1 = x_i^-1 s_i - hbar x_i^-1, as module operators.
        rng = random.Random(11)
        for _ in range(30):
            kappa = rng.randint(2, 3)
            i = rng.randint(1, kappa - 1)
            exps = tuple(rng.randint(-2, 2) for _ in range(kappa))
            perm = Permutation(tuple(rng.sample(range(1, kappa + 1), kappa)))
            v = SkeinElement.basis(kappa, exps, perm)
            lhs = act_sigma(i, act_x(i, v, -1))
            rhs = act_x(i + 1, act_sigma(i, v), -1) + act_x(i, v, -1).scale(hbar())
            assert lhs == rhs
            lhs = act_sigma(i, act_x(i + 1, v, -1))
            rhs = act_x(i, act_sigma(i, v), -1) - act_x(i, v, -1).scale(hbar())
            assert lhs == rhs

    def test_push_matches_letter_by_letter(self):
        rng = random.Random(13)
        for _ in range(60):
            kappa = rng.randint(2, 3)
            i = rng.randint(1, kappa - 1)
            exps = tuple(rng.randint(-3, 3) for _ in range(kappa))
            perm = Permutation(tuple(rng.sample(range(1, kappa + 1), kappa)))
            via_push = act_sigma(i, SkeinElement.basis(kappa, exps, perm))
            letters = monomial_letters(exps)
            assert sigma_letter_by_letter(i, letters, perm) == via_push
            reversed_letters = monomial_letters(exps, variable_order=range(kappa, 0, -1))
            assert sigma_letter_by_letter(i, reversed_letters, perm) == via_push


class TestBraidAction:
    def test_on_unit(self):
        assert act_sigma(1, unit(2, E2)) == unit(2, T2).scale(d_power(-1))

    def test_on_single_loop(self):
        expected = SkeinElement.basis(2, (0, 1), T2).scale(d_power(-1)) + SkeinElement.basis(
            2, (0, 1), E2
        ).scale(-hbar())
        assert act_sigma(1, SkeinElement.basis(2, (1, 0), E2)) == expected

    def test_index_range(self):
        with pytest.raises(IndexError):
            act_sigma(3, unit(3, Permutation.identity(3)))

    def test_inverse_round_trip(self):
        v = SkeinElement.basis(2, (2, -1), T2)
        assert act_sigma_inv(1, act_sigma(1, v)) == v
        assert act_sigma(1, act_sigma_inv(1, v)) == v

    def test_inverse_on_descending_unit(self):
        # s1^-1 (1, [2 1]) = s1 (1, [2 1]) - hbar (1, [2 1]) = d (1, e)
        assert act_sigma_inv(1, unit(2, T2)) == unit(2, E2).scale(d_power(1))

    def test_inverse_on_ascending_unit(self):
        expected = unit(2, T2).scale(d_power(-1)) + unit(2, E2).scale(-hbar())
        assert act_sigma_inv(1, unit(2, E2)) == expected

    def test_averaging_eigenvalue(self):
        for kappa in (2, 3):
            for perm in all_permutations(kappa):
                for i in range(1, kappa):
                    pair = unit(kappa, perm) + unit(kappa, perm.precompose_swap(i))
                    lhs = act_sigma(i, pair).substitute_d_eq_s()
                    assert lhs == pair.scale(s_power(1))

    def test_symmetrized_input_equals_sum_over_basis_pairs(self):
        # A symmetrized element has kappa! terms per exponent vector, which
        # act_sigma pushes once; the result must be the sum of the action on
        # each basis pair alone.
        rng = random.Random(19)
        for kappa in (2, 3):
            for _ in range(6):
                f = LaurentPoly(
                    kappa,
                    [
                        (tuple(rng.randint(-3, 3) for _ in range(kappa)), s_power(rng.randint(-2, 2)))
                        for _ in range(rng.randint(1, 3))
                    ],
                )
                v = symmetrize(f)
                for i in range(1, kappa):
                    termwise = SkeinElement.zero(kappa)
                    for (exps, perm), coeff in v.terms.items():
                        termwise = termwise + act_sigma(i, SkeinElement.basis(kappa, exps, perm, coeff))
                    assert act_sigma(i, v) == termwise

    def test_matches_termwise_oracle(self):
        # The grouped, one-pass action against pushing every basis term alone
        # through push_by_letters.
        rng = random.Random(29)
        shared = 0
        for kappa in (2, 3):
            for v in shared_coefficient_elements(kappa, rng, 12):
                coeffs = list(v.terms.values())
                shared += len({id(c) for c in coeffs}) < len(coeffs)
                for i in range(1, kappa):
                    assert act_sigma(i, v) == sigma_termwise(i, v), (i, str(v))
        assert shared > 0

    def test_multiply_by_a_poly_with_shared_coefficients(self):
        # A braid-kernel quotient repeats one coefficient object along runs
        # of its terms; the product must equal the termwise sum.
        rng = random.Random(31)
        for kappa in (2, 3):
            rest = (0,) * (kappa - 2)
            f = LaurentPoly(kappa, [((3, 1) + rest, c_power(1)), ((0, 5) + rest, 1)])
            _, g = braid_kernel(f, 1)
            coeffs = list(g.terms.values())
            assert len({id(c) for c in coeffs}) < len(coeffs)
            assert len(set(coeffs)) > 1
            for v in shared_coefficient_elements(kappa, rng, 6):
                termwise = SkeinElement.zero(kappa)
                for a_exps, a_coeff in g.terms.items():
                    for (b_exps, perm), b_coeff in v.terms.items():
                        key = tuple(x + y for x, y in zip(a_exps, b_exps))
                        termwise = termwise + SkeinElement.basis(kappa, key, perm, b_coeff * a_coeff)
                assert v.multiply_by_a_poly(g) == termwise

    @given(skein_elements(kappa=2), st.integers(min_value=1, max_value=1))
    def test_hecke_relation(self, v, i):
        twice = act_sigma(i, act_sigma(i, v))
        assert twice == act_sigma(i, v).scale(hbar()) + v

    @given(skein_elements(kappa=3), st.integers(min_value=1, max_value=2))
    def test_hecke_relation_rank_three(self, v, i):
        twice = act_sigma(i, act_sigma(i, v))
        assert twice == act_sigma(i, v).scale(hbar()) + v


class TestSum:
    @given(lopsided_pairs(
        skein_elements(kappa=2, min_terms=8, max_terms=14, max_exp=1),
        skein_elements(kappa=2, max_terms=2, max_exp=1),
    ))
    def test_sum_of_unequal_operands_matches_oracle(self, pair):
        big, little = pair
        expected = combination_sum(big, little, 2)
        for total in (big + little, little + big):
            assert total == expected
            assert all(c and 0 not in c.terms.values() for c in total.terms.values())


class TestProductByAPoly:
    """``multiply_by_a_poly`` places the shifted copies of an element with one
    exponent vector without merging, and merges otherwise.  The first two
    tests each pin one branch (through ``product_merges``), so together they
    reach both; both compare against :func:`product_termwise`."""

    @staticmethod
    def one_vector_elements(kappa: int, rng: random.Random) -> list[SkeinElement]:
        """Symmetrized monomials, and unbraided parts (exponents 0) whose
        terms share coefficient objects, as act_sigma builds them."""
        pool = [s_power(1), hbar(), s_power(2) + c_power(-2), ScalarPoly.integer(-3)]
        perms = list(all_permutations(kappa))
        elements = []
        for _ in range(3):
            exps = tuple(rng.randint(-32, 32) for _ in range(kappa))
            elements.append(symmetrize(LaurentPoly.monomial(kappa, exps, rng.choice(pool))))
            shared = rng.choice(pool)
            elements.append(SkeinElement(kappa, [
                (((0,) * kappa, perm), shared if rng.random() < 0.5 else rng.choice(pool))
                for perm in rng.sample(perms, rng.randint(1, len(perms)))
            ]))
        return elements

    @staticmethod
    def deep_quotients(kappa: int, rng: random.Random) -> list[LaurentPoly]:
        """Divided differences g of monomials with |n_1 - n_2| up to 32, and
        of a two-term polynomial, as the push produces them."""
        rest = [0] * (kappa - 2)
        quotients = []
        for n1, n2 in [(32, 0), (-16, 16), (rng.randint(-16, 16), rng.randint(-16, 16)), (1, 0)]:
            _, g = push_sigma_past_monomial(1, [n1, n2] + rest)
            quotients.append(g)
        f = LaurentPoly(kappa, [(tuple([7, -3] + rest), c_power(1)), (tuple([0, 5] + rest), 1)])
        quotients.append(braid_kernel(f, 1)[1])
        assert max(g.term_count() for g in quotients) == 32
        return quotients

    @pytest.mark.parametrize("kappa", [2, 3, 4])
    def test_one_exponent_vector_places_disjoint_copies(self, kappa, product_merges):
        rng = random.Random(100 + kappa)
        for g in self.deep_quotients(kappa, rng):
            for v in self.one_vector_elements(kappa, rng):
                assert v.multiply_by_a_poly(g) == product_termwise(v, g), (str(v), str(g))
        assert not product_merges

    def test_several_exponent_vectors_merge_and_cancel(self, product_merges):
        for kappa in (2, 3):
            rest = (0,) * (kappa - 2)
            for perm in all_permutations(kappa):
                v = SkeinElement(kappa, [(((1, 0) + rest, perm), 1), (((0, 1) + rest, perm), -1)])
                g = LaurentPoly(kappa, [((1, 0) + rest, 1), ((0, 1) + rest, 1)])
                product = v.multiply_by_a_poly(g)
                expected = SkeinElement(kappa, [(((2, 0) + rest, perm), 1), (((0, 2) + rest, perm), -1)])
                assert product == expected == product_termwise(v, g)
                assert ((1, 1) + rest, perm) not in product.terms
        assert product_merges

    def test_act_sigma_on_deep_symmetrized_monomials(self):
        # Exponents in [-32, 32]: the unbraided half has up to 64 terms per
        # permutation, against the letter-by-letter termwise oracle.  The
        # two-monomial inputs have two exponent groups whose halves meet;
        # for the one symmetric in X1, X2 they cancel exactly.
        rng = random.Random(41)
        for kappa in (2, 3):
            rest = (0,) * (kappa - 2)
            exponent_vectors = [(32, -32) + rest, (-32, 32) + rest, (5, 5) + rest]
            exponent_vectors += [tuple(rng.randint(-32, 32) for _ in range(kappa)) for _ in range(4)]
            inputs = [
                LaurentPoly.monomial(kappa, exps, s_power(rng.randint(-2, 2))) for exps in exponent_vectors
            ]
            inputs.append(LaurentPoly(kappa, [((32, -32) + rest, 1), ((-32, 32) + rest, 1)]))
            inputs.append(LaurentPoly(kappa, [((9, -4) + rest, c_power(2)), ((3, 7) + rest, hbar())]))
            for f in inputs:
                v = symmetrize(f)
                for i in range(1, kappa):
                    expected = sigma_termwise(i, v)
                    assert act_sigma(i, v) == expected, (i, str(f))
                    assert act_sigma_inv(i, v) == expected - v.scale(hbar()), (i, str(f))


class TestYAction:
    def test_worked_example_intermediate(self):
        # y1 . (a1^2 a2^-1, [2 1]) = c^4 s1^-1 (a1^-1 a2^2, e), applied out.
        v = SkeinElement.basis(2, (2, -1), T2)
        expected = act_sigma_inv(1, SkeinElement.basis(2, (-1, 2), E2)).scale(c_power(4))
        assert act_y1(v) == expected

    def test_worked_example_full(self):
        v = SkeinElement.basis(2, (2, -1), T2)
        result = act_sigma(1, act_y1(v))
        assert result == SkeinElement.basis(2, (-1, 2), E2).scale(c_power(4))

    def test_rank_one(self):
        for n in range(-3, 4):
            v = SkeinElement.basis(1, (n,), Permutation.identity(1))
            assert act_y1(v) == v.scale(c_power(2 * n))

    @given(skein_elements())
    def test_round_trip(self, v):
        assert act_y1_inv(act_y1(v)) == v
        assert act_y1(act_y1_inv(v)) == v


class TestWordAction:
    def test_identity(self):
        v = SkeinElement.basis(2, (2, -1), T2)
        assert act_word(GeneratorWord(2), v) == v

    def test_worked_example_via_word(self):
        v = SkeinElement.basis(2, (2, -1), T2)
        result = act_word(parse_word("s1*y1", 2), v)
        assert result == SkeinElement.basis(2, (-1, 2), E2).scale(c_power(4))

    def test_inverse_pair(self):
        v = SkeinElement.basis(2, (1, -2), T2).scale(hbar()) + unit(2, E2)
        assert act_word(parse_word("s1*s1^-1", 2), v) == v
        assert act_word(parse_word("y1*y1^-1", 2), v) == v

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            act_word(parse_word("x1", 3), unit(2, E2))
        with pytest.raises(RankMismatchError):
            unit(2, E2).multiply_by_a_poly(LaurentPoly.one(3))

    @pytest.mark.parametrize("poly", [s_power(1), SkeinElement.basis(2, (1, 0))],
                             ids=["ScalarPoly", "SkeinElement"])
    def test_multiply_by_a_poly_rejects_a_non_polynomial(self, poly):
        name = type(poly).__name__
        with pytest.raises(TypeError, match=f"multiply_by_a_poly expects a LaurentPoly, got {name}"):
            unit(2, E2).multiply_by_a_poly(poly)

    @pytest.mark.parametrize("name, act", [
        ("act_x", lambda v: act_x(1, v)),
        ("act_sigma", lambda v: act_sigma(1, v)),
        ("act_sigma_inv", lambda v: act_sigma_inv(1, v)),
        ("act_y1", act_y1),
        ("act_y1_inv", act_y1_inv),
        ("act_word", lambda v: act_word(GeneratorWord(1), v)),
        ("act_word", lambda v: act_word(parse_word("x1", 1), v)),
    ], ids=["act_x", "act_sigma", "act_sigma_inv", "act_y1", "act_y1_inv", "act_word-empty",
            "act_word-x1"])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    @pytest.mark.parametrize("make", [LaurentPoly.one, lambda kappa: s_power(kappa)],
                             ids=["LaurentPoly", "ScalarPoly"])
    def test_generator_actions_refuse_another_class(self, name, act, kappa, make):
        # The class is checked before the index, so kappa 1, which has no
        # braid letter, names the class too.
        value = make(kappa)
        with pytest.raises(TypeError, match=f"^{name} expects a SkeinElement, got {type(value).__name__}$"):
            act(value)

    def test_derived_loop_conjugation(self):
        # s_i x_i s_i = x_{i+1} and s_i y_i s_i = y_{i+1} as operator
        # identities on the skein module, mirroring the polynomial side.
        from daha import expand_x, expand_y

        for kappa in (2, 3):
            inputs = [unit(kappa, perm) for perm in all_permutations(kappa)]
            inputs.append(SkeinElement.basis(kappa, (1,) * kappa, Permutation.identity(kappa)))
            for expand in (expand_x, expand_y):
                for i in range(1, kappa):
                    sigma = parse_word(f"s{i}", kappa)
                    conjugated = sigma * expand(i, kappa) * sigma
                    for v in inputs:
                        assert act_word(conjugated, v) == act_word(expand(i + 1, kappa), v)

    def test_relations_hold_on_small_grid(self):
        from daha import relation_table

        for kappa in (2, 3):
            inputs = [
                SkeinElement.basis(kappa, exps, perm)
                for exps in [(0,) * kappa, (1,) + (0,) * (kappa - 1), (-1, 1) + (0,) * (kappa - 2)]
                for perm in all_permutations(kappa)
            ]
            for relation in relation_table(kappa):
                for v in inputs:
                    lhs = sum(
                        (act_word(w, v).scale(coeff) for coeff, w in relation.lhs),
                        SkeinElement.zero(kappa),
                    )
                    rhs = sum(
                        (act_word(w, v).scale(coeff) for coeff, w in relation.rhs),
                        SkeinElement.zero(kappa),
                    )
                    assert lhs == rhs, relation.label


def d_eq_s_words(kappa: int) -> list[GeneratorWord]:
    """Every y_i^±1 alone, then seeded words of 1..3 letters over
    :func:`default_alphabet` and every y_i^±1."""
    ys = [GeneratorLetter("y", i, sign) for i in range(1, kappa + 1) for sign in (1, -1)]
    alphabet = default_alphabet(kappa) + ys
    rng = random.Random(kappa)
    return [GeneratorWord(kappa, [y]) for y in ys] + [
        GeneratorWord(kappa, [rng.choice(alphabet) for _ in range(rng.randint(1, 3))])
        for _ in range(6)
    ]


def d_free_inputs(kappa: int) -> list[SkeinElement]:
    """Two seeded basis pairs and two symmetrized polynomials, none with d."""
    rng = random.Random(10 + kappa)
    perms = list(all_permutations(kappa))

    def exps():
        return tuple(rng.randint(-1, 1) for _ in range(kappa))

    pairs = [SkeinElement.basis(kappa, exps(), rng.choice(perms)) for _ in range(2)]
    return pairs + [symmetrize(LaurentPoly(kappa, [(exps(), s_power(1)), (exps(), c_power(-2))])),
                    symmetrize(LaurentPoly.monomial(kappa, exps()))]


class TestActionAtDEqS:
    """The d = s action against the generic action followed by the
    substitution, the independent slow path."""

    @pytest.mark.parametrize("kappa", [2, 3, 4])
    def test_d_free_inputs_match_the_substituted_generic_action(self, kappa):
        for word in d_eq_s_words(kappa):
            for v in d_free_inputs(kappa):
                assert act_word(word, v, d_eq_s=True) == act_word(word, v).substitute_d_eq_s(), word

    @pytest.mark.parametrize("kappa", [2, 3, 4])
    def test_inputs_with_d_match_once_substituted(self, kappa):
        pair, other_pair, sym, other_sym = d_free_inputs(kappa)
        inputs = [pair.scale(d_power(1)) + sym, other_pair + other_sym.scale(s_power(1) - d_power(-1))]
        for word in d_eq_s_words(kappa):
            for v in inputs:
                got = act_word(word, v, d_eq_s=True).substitute_d_eq_s()
                assert got == act_word(word, v).substitute_d_eq_s(), word

    @pytest.mark.parametrize("d_eq_s", [False, True])
    def test_the_rule_is_built_once_per_permutation(self, monkeypatch, d_eq_s):
        calls = []

        def counting(i, perm):
            calls.append(perm)
            return act_sigma_base(i, perm)

        monkeypatch.setattr(skein_module, "act_sigma_base", counting)
        v = symmetrize(LaurentPoly(3, [((2, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, 0), 1)]))
        for i in (1, 2):
            calls.clear()
            act_sigma(i, v, d_eq_s=d_eq_s)
            assert sorted(calls) == sorted(all_permutations(3))


class TestSubstitution:
    def test_examples(self):
        assert unit(2, T2).scale(d_power(-1)).substitute_d_eq_s() == unit(2, T2).scale(s_power(-1))
        assert unit(2, E2).scale(d_power(1) - s_power(1)).substitute_d_eq_s() == SkeinElement.zero(2)
        v = SkeinElement.basis(2, (1, 0), E2, c_power(2) * d_power(3))
        assert v.substitute_d_eq_s() == SkeinElement.basis(2, (1, 0), E2, c_power(2) * s_power(3))

    def test_mixed_coefficients_match_the_validating_constructor(self):
        d_free = s_power(2) + c_power(-2)
        carrying = d_power(1) * c_power(2) + s_power(-1)
        cancelling = d_power(1) - s_power(1)
        terms = [
            (((k, -k, 1), perm), coeff)
            for k, coeff in enumerate([d_free, carrying, cancelling, d_free * hbar()])
            for perm in all_permutations(3)
        ]
        got = SkeinElement(3, terms).substitute_d_eq_s()
        assert got == SkeinElement(3, [(key, coeff.substitute_d_eq_s()) for key, coeff in terms])
        assert got.term_count() == 3 * 6
        # A coefficient without d is kept as it is, not rebuilt.
        assert all(got.terms[key] is coeff for key, coeff in terms if coeff is d_free)

    def test_runs_across_permutations_match_the_per_term_oracle(self):
        # One object per exponent vector, shared by all six permutations, as
        # symmetrize builds them; d - s vanishes on every key of two runs.
        vanishing = d_power(1) - s_power(1)
        coeffs = [vanishing, c_power(2), vanishing, s_power(1) + d_power(-1)]
        v = SkeinElement(3, [(((k, 1, -k), perm), coeff)
                             for k, coeff in enumerate(coeffs)
                             for perm in all_permutations(3)])
        got = v.substitute_d_eq_s()
        assert got == d_eq_s(v)
        assert got.term_count() == 2 * 6

    @given(st.data())
    def test_shared_coefficients_match_the_per_term_oracle(self, data):
        kappa = data.draw(st.integers(min_value=1, max_value=3))
        exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * kappa)
        keys = st.tuples(exps, permutations(kappa=kappa))
        v = SkeinElement(kappa, data.draw(shared_coefficient_runs(keys)))
        got = v.substitute_d_eq_s()
        expected = d_eq_s(v)
        assert got == expected
        assert str(got) == str(expected)


class TestTextFormat:
    def test_print_examples(self):
        v = SkeinElement.basis(2, (-1, 2), E2).scale(c_power(4))
        assert str(v) == "c^4*(a1^-1*a2^2,[1 2])"
        assert str(unit(2, E2)) == "(1,[1 2])"
        assert str(-unit(2, T2)) == "-(1,[2 1])"
        assert str(SkeinElement.zero(2)) == "0"
        assert str(unit(2, E2).scale(hbar())) == "(s - s^-1)*(1,[1 2])"
        assert repr(-unit(2, T2)) == "<SkeinElement kappa=2 -(1,[2 1])>"

    @pytest.mark.parametrize("exps, images, coeff, text", [
        ((1, 0, -1), (2, 3, 1), 1, "(a1*a3^-1,[2 3 1])"),
        ((-1, 2, 1), (1, 2, 3), -1, "-(a1^-1*a2^2*a3,[1 2 3])"),
        ((2, -1, 0), (3, 1, 2), d_power(-1) * 2, "2*d^-1*(a1^2*a2^-1,[3 1 2])"),
        ((0, 1, 2), (3, 2, 1), -3, "-3*(a2*a3^2,[3 2 1])"),
        ((0, 0, 0), (1, 3, 2), s_power(1), "s*(1,[1 3 2])"),
    ])
    def test_basis_pair_powers_in_every_position(self, exps, images, coeff, text):
        # Exponents -1, 1, 2 and 0 each reach every a_i; a factor 1 is dropped.
        assert str(SkeinElement.basis(3, exps, Permutation(images), coeff)) == text

    def test_parse_examples(self):
        assert parse_skein("(a1^2*a2^-1, [2 1])", 2) == SkeinElement.basis(2, (2, -1), T2)
        assert parse_skein("c^4*(a1^-1*a2^2,[1 2])", 2) == SkeinElement.basis(
            2, (-1, 2), E2
        ).scale(c_power(4))
        two_terms = parse_skein("(a1,[2 1]) - d*(1,[1 2])", 2)
        assert two_terms == SkeinElement.basis(2, (1, 0), T2) - unit(2, E2).scale(d_power(1))
        assert parse_skein("0", 2) == SkeinElement.zero(2)

    @pytest.mark.parametrize("value", [0.5, 1.5, -0.0000001])
    def test_constructor_rejects_non_integer_exponents(self, value):
        with pytest.raises(TypeError):
            SkeinElement(2, [(((value, 0), E2), 1)])
        with pytest.raises(TypeError):
            SkeinElement.basis(2, (1, value), T2)

    def test_constructor_rejects_keys_that_are_not_basis_pairs(self):
        with pytest.raises(TypeError, match=r"basis pair \(\(0, 0\), \(1, 2\)\)"):
            SkeinElement(2, [(((0, 0), (1, 2)), 1)])
        with pytest.raises(TypeError, match="basis pair"):
            SkeinElement(2, [(((0, 0),), 1)])
        with pytest.raises(TypeError, match="basis pair"):
            SkeinElement(2, [(5, 1)])

    @pytest.mark.parametrize("kappa", [2.0, "2"])
    def test_constructor_rejects_a_non_integer_kappa(self, kappa):
        with pytest.raises(TypeError):
            SkeinElement(kappa)
        with pytest.raises(TypeError):
            SkeinElement(kappa, [(((1, 0), T2), 1)])

    def test_constructor_rejects_a_basis_pair_of_another_kappa(self):
        with pytest.raises(ValueError, match="does not match kappa=3"):
            SkeinElement(3, [(((0, 0), E2), 1)])

    def test_parse_error_names_the_bad_permutation(self):
        with pytest.raises(ParseError, match=r"\[1, 1\] is not a permutation of 1..2"):
            parse_skein("(a1,[1 1])", 2)
        with pytest.raises(ParseError, match=r"\[2\] is not a permutation of 1..2"):
            parse_skein("s*(1,[2])", 2)

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ParseError):
            parse_skein("(a3,[1 2])", 2)
        with pytest.raises(ParseError):
            parse_skein("(a1,[1 1])", 2)
        with pytest.raises(ParseError):
            parse_skein("(a1,[1 2 3])", 2)
        with pytest.raises(ParseError):
            parse_skein("c^2", 2)
        with pytest.raises(ParseError):
            parse_skein("(a1,[2 1])*(a2,[1 2])", 2)
        with pytest.raises(ParseError, match=r"unexpected '\)' in skein element"):
            parse_skein("(a1,[1 2]) )", 2)
        with pytest.raises(ParseError, match="expected a term factor, found 'X1'"):
            parse_skein("X1*(1,[1 2])", 2)
        with pytest.raises(ParseError, match="expected an a-variable, found 'b'"):
            parse_skein("(a1*b,[1 2])", 2)

    @given(skein_elements())
    def test_round_trip(self, v):
        assert parse_skein(str(v), v.kappa) == v
