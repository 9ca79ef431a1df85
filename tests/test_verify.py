"""Tests for the averaging map and the verification suites."""

from __future__ import annotations

import random

import pytest

from daha import (
    CheckReport,
    GeneratorWord,
    LaurentPoly,
    Permutation,
    ScalarPoly,
    SkeinElement,
    all_permutations,
    d_power,
    parse_word,
    s_power,
    symmetrize,
)
from daha.skein import act_word as skein_act_word
from daha.verify import (
    Counterexample,
    basis_grid,
    check_averaging_eigenvalue,
    check_intertwiner,
    check_relations,
    check_subrep_closure,
    is_permutation_uniform,
    monomial_grid,
    random_words,
    single_generator_words,
)
from daha.words import RelationPair


def sym_pair(exps) -> SkeinElement:
    return SkeinElement(2, {((tuple(exps)), perm): ScalarPoly.one() for perm in all_permutations(2)})


class TestSymmetrize:
    def test_constant(self):
        assert symmetrize(LaurentPoly.one(2)) == sym_pair((0, 0))

    def test_monomial(self):
        assert symmetrize(LaurentPoly.monomial(2, (2, -1))) == sym_pair((2, -1))

    def test_rank_one_is_trivial(self):
        f = LaurentPoly.variable(1, 1, 5)
        assert symmetrize(f) == SkeinElement.basis(1, (5,), Permutation.identity(1))

    def test_linear(self):
        f = LaurentPoly.monomial(2, (1, 0), s_power(2)) + LaurentPoly.one(2)
        assert symmetrize(f) == sym_pair((1, 0)).scale(s_power(2)) + sym_pair((0, 0))

    def test_matches_validating_constructor(self):
        # symmetrize builds its canonical result directly; the validating
        # constructor on the same pairs must give the same element.
        rng = random.Random(2024)
        coeffs = [ScalarPoly.one(), s_power(-2), ScalarPoly({(1, 0, 0): 1, (-1, 0, 0): -1}),
                  ScalarPoly({(0, 2, 0): -3}), ScalarPoly.integer(5)]
        for kappa in (2, 3):
            for _ in range(40):
                f = LaurentPoly(kappa, [
                    (tuple(rng.randint(-3, 3) for _ in range(kappa)), rng.choice(coeffs))
                    for _ in range(rng.randint(0, 5))
                ])
                expected = SkeinElement(kappa, [
                    ((exps, perm), coeff)
                    for exps, coeff in f.terms.items()
                    for perm in all_permutations(kappa)
                ])
                got = symmetrize(f)
                assert got == expected
                assert str(got) == str(expected)
                assert got.term_count() == f.term_count() * len(list(all_permutations(kappa)))

    def test_rejects_d_coefficients(self):
        f = LaurentPoly.one(2).scale(d_power(1))
        with pytest.raises(ValueError, match="d"):
            symmetrize(f)


class TestPermutationUniform:
    def test_symmetrized_elements_are_uniform(self):
        assert is_permutation_uniform(sym_pair((1, -1)))
        assert is_permutation_uniform(SkeinElement.zero(2))

    def test_single_basis_term_is_not(self):
        assert not is_permutation_uniform(SkeinElement.basis(2, (0, 0)))

    def test_mismatched_coefficients_are_not(self):
        v = sym_pair((0, 0)) + SkeinElement.basis(2, (0, 0)).scale(s_power(1))
        assert not is_permutation_uniform(v)


class TestCheckReport:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            CheckReport("x", 2, 1, 1, None, None)
        with pytest.raises(ValueError):
            CheckReport("x", 2, 1, 0, None, Counterexample("w", "v", "l", "r"))


class TestCheckRelations:
    def test_poly_small_grid_passes(self):
        reports = check_relations(2, "poly", monomial_grid(2, 1))
        assert all(r.passed for r in reports)
        assert {r.label for r in reports} == {"poly:R5", "poly:R6", "poly:R7", "poly:R8(s1)", "poly:R9"}

    def test_skein_small_grid_passes(self):
        reports = check_relations(2, "skein", basis_grid(2, 1))
        assert all(r.passed for r in reports)
        assert all(r.cases == len(basis_grid(2, 1)) for r in reports)

    def test_failing_relation_is_counted_not_raised(self):
        bogus = RelationPair(
            1,
            "bogus",
            ((ScalarPoly.one(), parse_word("s1", 2)),),
            ((ScalarPoly.one(), GeneratorWord.identity(2)),),
        )
        inputs = monomial_grid(2, 1)
        (report,) = check_relations(2, "poly", inputs, relations=[bogus])
        assert report.failures == report.cases == len(inputs)
        assert report.counterexample is not None
        assert report.counterexample.word == "bogus"

    def test_unknown_representation(self):
        with pytest.raises(ValueError):
            check_relations(2, "matrix", [])


class TestCheckIntertwiner:
    def test_loop_generator_example(self):
        report = check_intertwiner(2, [parse_word("x1", 2)], [LaurentPoly.one(2)])
        assert report.passed and report.cases == 1
        # Both sides equal (a1, e) + (a1, s1) directly.
        lhs = symmetrize(LaurentPoly.variable(2, 1))
        rhs = skein_act_word(parse_word("x1", 2), symmetrize(LaurentPoly.one(2))).substitute_d_eq_s()
        assert lhs == rhs == sym_pair((1, 0))

    def test_braid_generator_example(self):
        report = check_intertwiner(2, [parse_word("s1", 2)], [LaurentPoly.one(2)])
        assert report.passed
        rhs = skein_act_word(parse_word("s1", 2), symmetrize(LaurentPoly.one(2))).substitute_d_eq_s()
        assert rhs == sym_pair((0, 0)).scale(s_power(1))

    def test_y_generator_on_monomials(self):
        report = check_intertwiner(2, [parse_word("y1", 2)], monomial_grid(2, 2))
        assert report.passed

    def test_single_generators_small(self):
        for kappa in (1, 2):
            report = check_intertwiner(kappa, single_generator_words(kappa), monomial_grid(kappa, 1))
            assert report.passed, report.counterexample

    def test_random_words_small(self):
        words = random_words(2, 25, 4, seed=5)
        report = check_intertwiner(2, words, monomial_grid(2, 1), seed=5)
        assert report.passed, report.counterexample
        assert report.seed == 5
        assert report.cases == 25 * len(monomial_grid(2, 1))


class TestCheckSubrep:
    def test_braid_generator_lands_on_scaled_average(self):
        v = skein_act_word(parse_word("s1", 2), symmetrize(LaurentPoly.one(2))).substitute_d_eq_s()
        assert v == sym_pair((0, 0)).scale(s_power(1))
        assert is_permutation_uniform(v)

    def test_loop_product_stays_in_subspace(self):
        v = skein_act_word(parse_word("x1*x2", 2), symmetrize(LaurentPoly.one(2))).substitute_d_eq_s()
        assert is_permutation_uniform(v)

    def test_random_suite(self):
        words = random_words(3, 10, 3, seed=9)
        monomials = [LaurentPoly.monomial(3, (1, -1, 0))] * len(words)
        report = check_subrep_closure(3, words, monomials, seed=9)
        assert report.passed, report.counterexample
        assert report.cases == 10


class TestAveragingEigenvalue:
    def test_all_small_ranks(self):
        for kappa in (2, 3, 4):
            report = check_averaging_eigenvalue(kappa)
            assert report.passed
            import math

            assert report.cases == math.factorial(kappa) * (kappa - 1)


class TestDeterminism:
    def test_random_words_are_seed_deterministic(self):
        first = random_words(2, 10, 5, seed=3)
        second = random_words(2, 10, 5, seed=3)
        other = random_words(2, 10, 5, seed=4)
        assert first == second
        assert first != other

    def test_random_words_are_pinned(self):
        # One randint for the length, then one choice per letter: `daha
        # check` output for a fixed seed depends on this draw order.
        assert [str(w) for w in random_words(3, 10, 3, 42)] == [
            "s1^-1*s1*y1^-1", "s2^-2", "y1^-1", "y1", "x3*s1^-1*x3^-1",
            "s1^2", "s2^-1", "x3", "s1*x3*s2^-1", "y1*y1^-1*x3",
        ]
