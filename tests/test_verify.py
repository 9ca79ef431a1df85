"""Tests for the averaging map and the verification suites."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import daha
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
from daha import polyrep, skein, verify
from daha.cli import main
from daha.errors import RankMismatchError
from daha.skein import act_word as skein_act_word
from daha.verify import (
    Counterexample,
    basis_grid,
    check_averaging_eigenvalue,
    check_intertwiner,
    check_relations,
    check_subrep_closure,
    default_alphabet,
    is_symmetrization,
    monomial_grid,
    random_words,
    single_generator_words,
)
from daha.words import GeneratorLetter, RelationPair, relation_table

from conftest import scalar_polys


def sym_pair(exps) -> SkeinElement:
    return SkeinElement(2, {((tuple(exps)), perm): ScalarPoly.one() for perm in all_permutations(2)})


class TestSymmetrize:
    def test_averaging_map_lives_in_skein_under_every_import_path(self):
        assert daha.symmetrize is verify.symmetrize is skein.symmetrize
        assert verify.is_symmetrization is skein.is_symmetrization

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

    def test_rejects_a_skein_element(self):
        # Its keys are basis pairs, so averaging it would nest them in new pairs.
        with pytest.raises(TypeError, match="symmetrize expects a LaurentPoly, got SkeinElement"):
            symmetrize(SkeinElement.basis(2, (1, 0)))

    def test_rejects_a_scalar(self):
        with pytest.raises(TypeError, match="symmetrize expects a LaurentPoly, got ScalarPoly"):
            symmetrize(s_power(1))


@st.composite
def d_free_polys(draw, kappa: int):
    """Laurent polynomials whose coefficients have no d (symmetrize's domain)."""
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * kappa)
    terms = draw(st.lists(st.tuples(exps, scalar_polys(max_terms=3, min_terms=1)), max_size=4))
    return LaurentPoly(kappa, [
        (key, ScalarPoly([((e_s, e_c, 0), n) for (e_s, e_c, _), n in coeff.terms.items()]))
        for key, coeff in terms
    ])


def _variants(f: LaurentPoly, data) -> dict[str, list]:
    """Term lists of skein elements near symmetrize(f), by how they differ."""
    kappa = f.rank
    perms = list(all_permutations(kappa))
    exact = [((exps, perm), coeff) for exps, coeff in f.terms.items() for perm in perms]
    variants = {"exact": exact}
    if not exact:
        return variants
    at = data.draw(st.integers(min_value=0, max_value=len(exact) - 1))
    (exps, perm), coeff = exact[at]
    variants["permutation dropped"] = exact[:at] + exact[at + 1:]
    variants["equal copy"] = [
        (key, ScalarPoly(dict(c.terms)) if n == at else c) for n, (key, c) in enumerate(exact)
    ]
    variants["wrong value"] = [
        (key, c + ScalarPoly.one() if n == at else c) for n, (key, c) in enumerate(exact)
    ]
    spare = (3,) * kappa  # outside the exponent range of d_free_polys
    variants["extra exponent vector"] = exact + [((spare, p), coeff) for p in perms]
    variants["exponent vector replaced"] = [
        ((spare if e == exps else e, p), c) for (e, p), c in exact
    ]
    # The object at exps, shared by every permutation there, also stands at
    # another exponent vector: equal to f there only if the values agree.
    other = data.draw(st.sampled_from(sorted(f.terms)))
    variants["object shared across exponent vectors"] = [
        ((e, p), coeff if e in (exps, other) else c) for (e, p), c in exact
    ]
    return variants


class TestIsSymmetrization:
    @given(st.data())
    def test_agrees_with_building_the_symmetrization(self, data):
        kappa = data.draw(st.integers(min_value=1, max_value=4))
        f = data.draw(d_free_polys(kappa))
        expected = symmetrize(f)
        for name, terms in _variants(f, data).items():
            v = SkeinElement(kappa, terms)
            assert is_symmetrization(v, f) == (expected == v), name
        assert is_symmetrization(expected, f)

    def test_each_kind_of_difference_is_found(self):
        f = LaurentPoly(2, [((1, 0), s_power(1)), ((0, -1), s_power(1) + ScalarPoly.one())])
        exact = list(symmetrize(f).terms.items())
        assert is_symmetrization(SkeinElement(2, exact), f)
        assert not is_symmetrization(SkeinElement(2, exact[1:]), f)
        extra = (((2, 2), Permutation.identity(2)), s_power(1))
        assert not is_symmetrization(SkeinElement(2, exact + [extra]), f)
        # The object that is right at (1, 0) also stands at (0, -1).
        shared = [(key, exact[0][1]) for key, _ in exact]
        assert not is_symmetrization(SkeinElement(2, shared), f)
        wrong = [(key, c + ScalarPoly.one() if n == 3 else c) for n, (key, c) in enumerate(exact)]
        assert not is_symmetrization(SkeinElement(2, wrong), f)
        copied = [(key, ScalarPoly(dict(c.terms))) for key, c in exact]
        assert is_symmetrization(SkeinElement(2, copied), f)

    def test_rank_mismatch_and_d_coefficients_are_mismatches(self):
        assert not is_symmetrization(SkeinElement.zero(3), LaurentPoly.zero(2))
        assert is_symmetrization(SkeinElement.zero(2), LaurentPoly.zero(2))
        with_d = LaurentPoly.one(2).scale(d_power(1))
        v = SkeinElement(2, [(((0, 0), p), d_power(1)) for p in all_permutations(2)])
        assert not is_symmetrization(v.substitute_d_eq_s(), with_d)


def is_permutation_uniform(v: SkeinElement) -> bool:
    """Oracle for the subrep check: whether v lies in the symmetrized
    subspace, i.e. for every exponent vector the coefficient is the same for
    all kappa! permutations."""
    perms = list(all_permutations(v.kappa))
    for exps in {exps for exps, _ in v.terms}:
        if len({v.terms.get((exps, perm)) for perm in perms}) != 1:
            return False
    return True


def subrep_decision(image: SkeinElement) -> bool:
    """Whether :func:`check_subrep_closure` passes a case whose d = s image
    is ``image``: the skein action is replaced by one that returns it."""
    kappa = image.kappa
    with mock.patch.object(skein, "act_word", lambda word, v, d_eq_s: image):
        report = check_subrep_closure(kappa, [GeneratorWord(kappa)], [LaurentPoly.one(kappa)])
    assert report.cases == 1
    if report.failures:
        expected = Counterexample("", "1", str(image), "<permutation-uniform>")
        assert report.counterexample == expected
    return report.passed


class TestPermutationUniform:
    def test_symmetrized_elements_are_uniform(self):
        for v in (sym_pair((1, -1)), *(SkeinElement.zero(kappa) for kappa in (1, 2, 3, 4))):
            assert is_permutation_uniform(v)
            assert subrep_decision(v)

    def test_single_basis_term_is_not(self):
        v = SkeinElement.basis(2, (0, 0))
        assert not is_permutation_uniform(v)
        assert not subrep_decision(v)

    def test_mismatched_coefficients_are_not(self):
        v = sym_pair((0, 0)) + SkeinElement.basis(2, (0, 0)).scale(s_power(1))
        assert not is_permutation_uniform(v)
        assert not subrep_decision(v)

    @given(st.data())
    def test_subrep_check_agrees_with_the_oracle(self, data):
        kappa = data.draw(st.integers(min_value=1, max_value=4))
        f = data.draw(d_free_polys(kappa))
        # A copy per permutation: equal coefficients need not be one object.
        uniform = [
            ((exps, perm), ScalarPoly(dict(coeff.terms)))
            for exps, coeff in f.terms.items()
            for perm in all_permutations(kappa)
        ]
        images = {"uniform": uniform}
        if uniform:
            at = data.draw(st.integers(min_value=0, max_value=len(uniform) - 1))
            images["permutation missing"] = uniform[:at] + uniform[at + 1:]
            bump = data.draw(scalar_polys(max_terms=2, min_terms=1)).substitute_d_eq_s()
            images["coefficient different"] = [
                (key, c + bump if n == at else c) for n, (key, c) in enumerate(uniform)
            ]
        for name, terms in images.items():
            image = SkeinElement(kappa, terms)
            assert subrep_decision(image) == is_permutation_uniform(image), name
        assert is_permutation_uniform(SkeinElement(kappa, uniform))


class TestCheckReport:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            CheckReport("x", 2, 1, 1, None, None)
        with pytest.raises(ValueError):
            CheckReport("x", 2, 1, 0, None, Counterexample("w", "v", "l", "r"))

    @pytest.mark.parametrize("cases, failures", [(-3, 0), (1, 5), (2, -1)])
    def test_failures_lie_in_zero_to_cases(self, cases, failures):
        witness = Counterexample("w", "v", "l", "r") if failures else None
        with pytest.raises(ValueError, match=r"failures must lie in 0\.\.cases"):
            CheckReport("x", 2, cases, failures, None, witness)

    @pytest.mark.parametrize("fields", [
        ("x", 2.5, 1.5, 0),
        ("x", 2, 1, 1, None, "oops"),
        ("x", 2, 0, 0, 7.0),
    ], ids=["float-counts", "text-counterexample", "float-seed"])
    def test_field_types_are_checked(self, fields):
        with pytest.raises(TypeError):
            CheckReport(*fields)

    def test_integer_like_fields_become_ints(self):
        class Two:
            def __index__(self):
                return 2

        report = CheckReport("x", Two(), Two(), 0, Two())
        assert (report.kappa, report.cases, report.seed) == (2, 2, 2)
        assert type(report.kappa) is type(report.cases) is type(report.seed) is int

    @pytest.mark.parametrize("kappa", [0, -5])
    def test_kappa_below_one_raises(self, kappa):
        with pytest.raises(ValueError, match=f"kappa must be >= 1, got {kappa}"):
            CheckReport("x", kappa, 1, 0)

    def test_counts_at_the_ends_of_the_range(self):
        assert CheckReport("x", 2, 0, 0).passed
        assert not CheckReport("x", 2, 1, 1, None, Counterexample("w", "v", "l", "r")).passed


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
            ((ScalarPoly.one(), GeneratorWord(2)),),
        )
        inputs = monomial_grid(2, 1)
        (report,) = check_relations(2, "poly", inputs, relations=[bogus])
        assert report.failures == report.cases == len(inputs)
        assert report.counterexample is not None
        assert report.counterexample.word == "bogus"

    def test_empty_relation_list_raises(self):
        # An empty list of reports would read as a pass with nothing checked,
        # whether the relations come as a list, an iterator or a spent generator.
        spent = (relation for relation in relation_table(2))
        list(spent)
        for relations in ([], iter([]), spent):
            with pytest.raises(ValueError, match="at least one relation"):
                check_relations(2, "poly", monomial_grid(2, 1), relations=relations)

    def test_relations_may_be_any_iterable(self):
        inputs = monomial_grid(2, 1)
        from_iterator = check_relations(2, "poly", inputs, relations=iter(relation_table(2)))
        assert from_iterator == check_relations(2, "poly", inputs)

    def test_a_one_shot_generator_of_inputs_gives_the_reports_of_its_list(self):
        # Checking the inputs must not spend them before the cases run.
        inputs = monomial_grid(2, 1)
        expected = check_relations(2, "poly", inputs)
        assert all(r.cases == len(inputs) for r in expected)
        assert check_relations(2, "poly", (value for value in inputs)) == expected

    @pytest.mark.parametrize("rep, grid", [("poly", monomial_grid), ("skein", basis_grid)])
    @pytest.mark.parametrize("with_inputs", [True, False])
    def test_relation_words_of_another_kappa_raise_before_any_case(
            self, rep, grid, with_inputs, monkeypatch):
        module = polyrep if rep == "poly" else skein
        calls = []
        monkeypatch.setattr(module, "act_word", lambda *args, **kwargs: calls.append(args))
        inputs = grid(2, 0) if with_inputs else []
        with pytest.raises(RankMismatchError, match="word kappa 3 does not match kappa 2"):
            check_relations(2, rep, inputs, relation_table(3))
        assert calls == []

    def test_unknown_representation(self):
        with pytest.raises(ValueError):
            check_relations(2, "matrix", [])

    def test_input_of_another_rank_raises(self):
        with pytest.raises(RankMismatchError, match="input rank 2 does not match kappa 5"):
            check_relations(5, "poly", monomial_grid(2, 0), relations=relation_table(5))

    @pytest.mark.parametrize("kappa", [2, 3])
    def test_skein_check_rejects_a_polynomial_input(self, kappa):
        value = LaurentPoly.monomial(kappa, (1,) + (0,) * (kappa - 1))
        with pytest.raises(TypeError, match="expected a SkeinElement input, got LaurentPoly"):
            check_relations(kappa, "skein", [value])

    def test_poly_check_rejects_a_skein_input(self):
        with pytest.raises(TypeError, match="expected a LaurentPoly input, got SkeinElement"):
            check_relations(2, "poly", [SkeinElement.basis(2, [1, 0])])


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

    def test_word_of_another_kappa_raises(self):
        with pytest.raises(RankMismatchError, match="word kappa 2 does not match kappa 5"):
            check_intertwiner(5, single_generator_words(2)[:1], monomial_grid(2, 0))

    def test_skein_input_raises(self):
        with pytest.raises(TypeError, match="expected a LaurentPoly input, got SkeinElement"):
            check_intertwiner(2, single_generator_words(2), [SkeinElement.basis(2, [1, 0])])

    @pytest.mark.parametrize("words, monomials", [
        ([], [LaurentPoly.one(2)]), (single_generator_words(2), []), ([], [])])
    def test_no_words_or_no_monomials_raise(self, words, monomials):
        # A report of no cases would read as a pass with nothing checked.
        with pytest.raises(ValueError, match="at least one word and one monomial"):
            check_intertwiner(2, words, monomials)

    @pytest.mark.parametrize("as_iterator", ["words", "monomials"])
    def test_an_iterator_gives_the_report_of_its_list(self, as_iterator):
        # Checking the ranks must not spend an iterator before the cases run.
        lists = {"words": single_generator_words(2), "monomials": monomial_grid(2, 1)}
        expected = check_intertwiner(2, **lists)
        assert expected.cases == len(lists["words"]) * len(lists["monomials"])
        assert check_intertwiner(2, **{**lists, as_iterator: iter(lists[as_iterator])}) == expected

    @pytest.mark.parametrize("as_iterator", ["words", "monomials"])
    def test_an_empty_iterator_raises(self, as_iterator):
        lists = {"words": single_generator_words(2), "monomials": [LaurentPoly.one(2)]}
        with pytest.raises(ValueError, match="at least one word and one monomial"):
            check_intertwiner(2, **{**lists, as_iterator: iter([])})


def test_preconditions_check_words_then_each_input_class_before_rank():
    # The input is of the other module and of another rank.
    skein_input = SkeinElement.basis(2, [1, 0])
    with pytest.raises(RankMismatchError, match="word kappa 2 does not match kappa 3"):
        check_intertwiner(3, single_generator_words(2)[:1], [skein_input])
    with pytest.raises(TypeError, match="expected a LaurentPoly input, got SkeinElement"):
        check_intertwiner(3, single_generator_words(3)[:1], [skein_input])


@pytest.mark.parametrize("check", [check_intertwiner, check_subrep_closure])
@pytest.mark.parametrize("seed", ["x", 2.5])
def test_a_seed_that_is_no_integer_raises_before_any_case(check, seed, monkeypatch):
    calls = []
    for module in (polyrep, skein):
        monkeypatch.setattr(module, "act_word", lambda *args, **kwargs: calls.append(args))
    words = single_generator_words(2)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        check(2, words, [LaurentPoly.one(2)] * len(words), seed=seed)
    assert calls == []


@pytest.mark.parametrize("check", [check_intertwiner, check_subrep_closure])
def test_an_integer_like_seed_is_an_int(check):
    class Five:
        def __index__(self):
            return 5

    report = check(2, single_generator_words(2)[:1], [LaurentPoly.one(2)], seed=Five())
    assert report.passed and report.seed == 5 and type(report.seed) is int


def _flip_d(value: ScalarPoly) -> ScalarPoly:
    return ScalarPoly([((e_s, e_c, -e_d), n) for (e_s, e_c, e_d), n in value.terms.items()])


@pytest.fixture
def flipped_d(monkeypatch):
    """A wrong two-case rule: every power of d in s_i's action flips sign."""
    original = skein.act_sigma_base

    def flipped(i, perm):
        out = original(i, perm)
        return SkeinElement(out.kappa, [(key, _flip_d(c)) for key, c in out.terms.items()])

    monkeypatch.setattr(skein, "act_sigma_base", flipped)


def composed_report(kappa, words, monomials, seed) -> CheckReport:
    """The intertwiner report as the composition
    ``symmetrize(polyrep.act_word(w, f)) == rhs`` gives it."""
    cases = failures = 0
    first = None
    for word in words:
        for f in monomials:
            lhs = symmetrize(polyrep.act_word(word, f))
            rhs = skein.act_word(word, symmetrize(f)).substitute_d_eq_s()
            cases += 1
            if lhs != rhs:
                failures += 1
                if first is None:
                    first = Counterexample(str(word), str(f), str(lhs), str(rhs))
    return CheckReport("intertwiner", kappa, cases, failures, seed, first)


class TestFailingIntertwiner:
    def test_report_matches_the_composition(self, flipped_d):
        words = single_generator_words(3) + random_words(3, 6, 3, seed=4)
        monomials = monomial_grid(3, 1)
        report = check_intertwiner(3, words, monomials, seed=4)
        expected = composed_report(3, words, monomials, seed=4)
        assert 0 < report.failures < report.cases
        assert (report.cases, report.failures) == (expected.cases, expected.failures)
        assert report.counterexample == expected.counterexample
        assert report == expected

    def test_check_command_exits_one(self, flipped_d, capsys):
        code = main(["check", "--suite", "intertwiner", "--kappa", "2", "--max-exp", "1",
                     "--num-words", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL intertwiner:" in out and "     lhs:   " in out


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

    def test_word_of_another_kappa_raises(self):
        with pytest.raises(RankMismatchError, match="word kappa 2 does not match kappa 5"):
            check_subrep_closure(5, single_generator_words(2)[:1], [LaurentPoly.one(2)])

    def test_skein_input_raises(self):
        with pytest.raises(TypeError, match="expected a LaurentPoly input, got SkeinElement"):
            check_subrep_closure(2, single_generator_words(2)[:1], [SkeinElement.basis(2, [1, 0])])

    @pytest.mark.parametrize("num_words, num_monomials", [(3, 1), (1, 2)])
    def test_lists_of_different_lengths_raise(self, num_words, num_monomials):
        words = single_generator_words(2)[:num_words]
        monomials = [LaurentPoly.monomial(2, [1, 0])] * num_monomials
        with pytest.raises(ValueError, match=f"{num_words} words but {num_monomials} monomials"):
            check_subrep_closure(2, words, monomials)

    def test_no_pairs_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            check_subrep_closure(2, [], [])

    @pytest.mark.parametrize("one_shot", [iter, lambda items: (item for item in items)])
    @pytest.mark.parametrize("as_one_shot", [("words",), ("monomials",), ("words", "monomials")])
    def test_iterators_give_the_report_of_their_lists(self, one_shot, as_one_shot):
        words = random_words(2, 4, 3, seed=2)
        lists = {"words": words, "monomials": [LaurentPoly.monomial(2, [1, -1])] * len(words)}
        expected = check_subrep_closure(2, **lists, seed=2)
        assert expected.passed and expected.cases == len(words)
        given = {name: one_shot(items) if name in as_one_shot else items
                 for name, items in lists.items()}
        assert check_subrep_closure(2, **given, seed=2) == expected

    @pytest.mark.parametrize("num_words, num_monomials", [(3, 1), (1, 2)])
    def test_iterators_of_different_lengths_raise(self, num_words, num_monomials):
        words = iter(single_generator_words(2)[:num_words])
        monomials = iter([LaurentPoly.monomial(2, [1, 0])] * num_monomials)
        with pytest.raises(ValueError, match=f"{num_words} words but {num_monomials} monomials"):
            check_subrep_closure(2, words, monomials)


class TestAveragingEigenvalue:
    def test_all_small_ranks(self):
        for kappa in (2, 3, 4):
            report = check_averaging_eigenvalue(kappa)
            assert report.passed
            import math

            assert report.cases == math.factorial(kappa) * (kappa - 1)

    def test_rank_without_a_braid_letter_raises(self):
        with pytest.raises(ValueError, match="needs kappa >= 2, got 1"):
            check_averaging_eigenvalue(1)

    def test_a_float_kappa_raises(self):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            check_averaging_eigenvalue(2.0)

    def test_an_integer_like_kappa_is_an_int(self):
        class Two:
            def __index__(self):
                return 2

        report = check_averaging_eigenvalue(Two())
        assert report.passed and report.kappa == 2 and type(report.kappa) is int


class TestInputGrids:
    @pytest.mark.parametrize("grid", [monomial_grid, basis_grid])
    def test_a_negative_bound_raises(self, grid):
        # Its empty grid would let a check pass with no case.
        with pytest.raises(ValueError, match="exponent bound must be >= 0, got -1"):
            grid(2, -1)


class TestDeterminism:
    def test_random_words_are_seed_deterministic(self):
        first = random_words(2, 10, 5, seed=3)
        second = random_words(2, 10, 5, seed=3)
        other = random_words(2, 10, 5, seed=4)
        assert first == second
        assert first != other

    @pytest.mark.parametrize("args, message", [
        ((0, 2, 2, 1), "kappa must be >= 1, got 0"),
        ((2, -1, 3, 1), "count must be >= 0, got -1"),
        ((2, 2, 0, 1), "max_len must be >= 1, got 0"),
    ], ids=["kappa", "count", "max_len"])
    def test_random_words_refuse_out_of_range_arguments(self, args, message):
        with pytest.raises(ValueError, match=message):
            random_words(*args)

    @pytest.mark.parametrize("args", [(2.0, 2, 2, 1), (2, 2.0, 2, 1), (2, 2, 2.5, 1)],
                             ids=["kappa", "count", "max_len"])
    def test_random_words_refuse_non_integer_arguments(self, args):
        # A float max_len used to pass the range check and fail inside
        # random.randrange, and a float kappa or count inside range().
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            random_words(*args)

    def test_random_words_are_pinned(self):
        # One randint for the length, then one choice per letter: `daha
        # check` output for a fixed seed depends on this draw order.
        assert [str(w) for w in random_words(3, 10, 3, 42)] == [
            "s1^-1*s1*y1^-1", "s2^-2", "y1^-1", "y1", "x3*s1^-1*x3^-1",
            "s1^2", "s2^-1", "x3", "s1*x3*s2^-1", "y1*y1^-1*x3",
        ]


def _alphabet_oracle(kappa: int) -> list[GeneratorLetter]:
    # The letter-by-letter body that default_alphabet had before it and
    # single_generator_words were drawn from one generator-letter list.
    letters = []
    for i in range(1, kappa):
        letters.append(GeneratorLetter("s", i, 1))
        letters.append(GeneratorLetter("s", i, -1))
    for i in range(1, kappa + 1):
        letters.append(GeneratorLetter("x", i, 1))
        letters.append(GeneratorLetter("x", i, -1))
    letters.append(GeneratorLetter("y", 1, 1))
    letters.append(GeneratorLetter("y", 1, -1))
    return letters


def _single_generator_words_oracle(kappa: int) -> list[GeneratorWord]:
    words = []
    for i in range(1, kappa):
        for sign in (1, -1):
            words.append(GeneratorWord(kappa, [GeneratorLetter("s", i, sign)]))
    for kind in ("x", "y"):
        for i in range(1, kappa + 1):
            for sign in (1, -1):
                words.append(GeneratorWord(kappa, [GeneratorLetter(kind, i, sign)]))
    return words


class TestGeneratorLetters:
    # Order matters: random words and the benchmark's word pools index
    # default_alphabet through a seeded generator.
    @pytest.mark.parametrize("kappa", range(1, 7))
    def test_default_alphabet_matches_the_oracle_in_order(self, kappa):
        assert default_alphabet(kappa) == _alphabet_oracle(kappa)

    @pytest.mark.parametrize("kappa", range(1, 7))
    def test_single_generator_words_match_the_oracle_in_order(self, kappa):
        assert single_generator_words(kappa) == _single_generator_words_oracle(kappa)

    @pytest.mark.parametrize("kappa", [0, -3])
    @pytest.mark.parametrize("letters", [default_alphabet, single_generator_words])
    def test_letters_refuse_kappa_below_one(self, letters, kappa):
        # An empty alphabet would leave a check with no word to draw.
        with pytest.raises(ValueError, match=f"^kappa must be >= 1, got {kappa}$"):
            letters(kappa)

    def test_basis_grid_refuses_kappa_below_one_by_name(self):
        # The message names the argument, not the empty permutation.
        with pytest.raises(ValueError, match="^kappa must be >= 1, got 0$"):
            basis_grid(0, 1)
