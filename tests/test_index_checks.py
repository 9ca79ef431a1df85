"""Every 1-based index range check of the library goes through
:func:`daha.errors.check_index`, and every caller reports it the same way:
``IndexError("<what> <i> out of range 1..<most>")`` for an integer outside
the range, :class:`TypeError` for a non-integer.  Every lower bound on an
integer argument goes through :func:`daha.errors.check_at_least`:
``ValueError("<what> must be >= <least>, got <value>")`` below it,
:class:`TypeError` for a non-integer."""

from __future__ import annotations

import pytest

from daha import LaurentPoly, Permutation, SkeinElement, expand_x, expand_y, polyrep, skein
from daha.cli import main
from daha.errors import check_at_least, check_index
from daha.laurent import adjacent_ratio, exact_divide, swap_variables
from daha.verify import (
    CheckReport, basis_grid, default_alphabet, monomial_grid, random_words, single_generator_words,
)
from daha.words import GeneratorLetter, GeneratorWord, relation_table

KAPPA = 3

# X1^2 + 3*X2: two terms that every adjacent swap moves, so the braid
# kernel divides it by the half sweep.
TWO_TERMS = LaurentPoly(KAPPA, {(2, 0, 0): 1, (0, 1, 0): 3})

# (caller, what, most): each of the library's index checks, at kappa 3,
# through every public function that states it.
CHECKS = [
    (lambda i: swap_variables(LaurentPoly.one(KAPPA), i), "adjacent-pair index", KAPPA - 1),
    (lambda i: exact_divide(LaurentPoly.zero(KAPPA), i), "adjacent-pair index", KAPPA - 1),
    (lambda i: adjacent_ratio(KAPPA, i), "adjacent-pair index", KAPPA - 1),
    (lambda i: polyrep.act_sigma(i, LaurentPoly.one(KAPPA)), "adjacent-pair index", KAPPA - 1),
    (lambda i: polyrep.act_sigma(i, TWO_TERMS), "adjacent-pair index", KAPPA - 1),
    (lambda i: polyrep.act_sigma_inv(i, TWO_TERMS), "adjacent-pair index", KAPPA - 1),
    (lambda i: LaurentPoly.variable(KAPPA, i), "variable index", KAPPA),
    (lambda i: polyrep.act_x(i, LaurentPoly.one(KAPPA)), "variable index", KAPPA),
    (lambda i: Permutation((2, 3, 1))(i), "position", KAPPA),
    (lambda i: Permutation((2, 3, 1)).precompose_swap(i), "swap index", KAPPA - 1),
    (lambda i: skein.act_x(i, SkeinElement.basis(KAPPA, (1, 0, -1))), "variable index", KAPPA),
    (lambda i: skein.act_x(i, SkeinElement.zero(KAPPA)), "variable index", KAPPA),
    (lambda i: skein.act_sigma_base(i, Permutation.identity(KAPPA)), "braid index", KAPPA - 1),
    (lambda i: skein.act_sigma(i, SkeinElement.basis(KAPPA, (1, 0, -1))), "braid index", KAPPA - 1),
    (lambda i: skein.act_sigma(i, SkeinElement.zero(KAPPA)), "braid index", KAPPA - 1),
    (lambda i: expand_x(i, KAPPA), "loop index", KAPPA),
    (lambda i: expand_y(i, KAPPA), "loop index", KAPPA),
]
IDS = [
    "swap_variables", "exact_divide", "adjacent_ratio", "polyrep.act_sigma",
    "polyrep.act_sigma-two-terms", "polyrep.act_sigma_inv-two-terms",
    "LaurentPoly.variable", "polyrep.act_x", "Permutation.__call__", "Permutation.precompose_swap",
    "skein.act_x", "skein.act_x-zero", "skein.act_sigma_base", "skein.act_sigma",
    "skein.act_sigma-zero", "expand_x", "expand_y",
]


@pytest.mark.parametrize("call, what, most", CHECKS, ids=IDS)
@pytest.mark.parametrize("where", ["zero", "past-most"])
def test_out_of_range_index_raises_one_message(call, what, most, where):
    i = 0 if where == "zero" else most + 1
    with pytest.raises(IndexError) as info:
        call(i)
    assert str(info.value) == f"{what} {i} out of range 1..{most}"


@pytest.mark.parametrize("call, what, most", CHECKS, ids=IDS)
@pytest.mark.parametrize("bad", [1.0, "1"])
def test_non_integer_index_raises_type_error(call, what, most, bad):
    with pytest.raises(TypeError):
        call(bad)


@pytest.mark.parametrize("call, what, most", CHECKS, ids=IDS)
def test_every_index_in_range_is_accepted(call, what, most):
    for i in range(1, most + 1):
        call(i)


class Two:
    def __index__(self):
        return 2


@pytest.mark.parametrize("call, what, most", CHECKS, ids=IDS)
def test_index_object_is_accepted_as_its_int_index(call, what, most):
    assert call(Two()) == call(2)


def test_check_index_returns_a_plain_int():
    assert check_index("position", Two(), 2) == 2
    assert type(check_index("position", Two(), 2)) is int
    assert type(check_index("position", True, 1)) is int


def test_check_index_on_an_empty_range():
    # kappa 1 has no braid letter.
    with pytest.raises(IndexError, match=r"^braid index 1 out of range 1\.\.0$"):
        skein.act_sigma(1, SkeinElement.zero(1))
    with pytest.raises(IndexError, match=r"^adjacent-pair index 1 out of range 1\.\.0$"):
        swap_variables(LaurentPoly.one(1), 1)


# (caller, what, least): each of the library's lower bounds on an integer
# argument, through every public function that states it.
LOWER_BOUNDS = [
    (lambda n: LaurentPoly(n), "rank", 1),
    (lambda n: LaurentPoly.monomial(n, (0,)), "rank", 1),
    (lambda n: LaurentPoly.variable(n, 1), "rank", 1),
    (lambda n: SkeinElement(n), "kappa", 1),
    (lambda n: list(skein.all_permutations(n)), "kappa", 1),
    (lambda n: GeneratorLetter("x", n, 1), "letter index", 1),
    (lambda n: GeneratorWord(n), "kappa", 1),
    (lambda n: relation_table(n), "kappa", 1),
    (lambda n: CheckReport("relations", n, 0, 0), "kappa", 1),
    (lambda n: monomial_grid(1, n), "the exponent bound", 0),
    (lambda n: basis_grid(1, n), "the exponent bound", 0),
    (lambda n: monomial_grid(n, 0), "rank", 1),
    (lambda n: basis_grid(n, 0), "kappa", 1),
    (lambda n: default_alphabet(n), "kappa", 1),
    (lambda n: single_generator_words(n), "kappa", 1),
    (lambda n: random_words(n, 1, 1, 0), "kappa", 1),
    (lambda n: random_words(1, n, 1, 0), "count", 0),
    (lambda n: random_words(1, 1, n, 0), "max_len", 1),
]
LOWER_BOUND_IDS = [
    "LaurentPoly", "LaurentPoly.monomial", "LaurentPoly.variable", "SkeinElement",
    "all_permutations", "GeneratorLetter", "GeneratorWord", "relation_table", "CheckReport",
    "monomial_grid", "basis_grid", "monomial_grid-rank", "basis_grid-kappa", "default_alphabet", "single_generator_words",
    "random_words-kappa", "random_words-count", "random_words-max_len",
]


@pytest.mark.parametrize("call, what, least", LOWER_BOUNDS, ids=LOWER_BOUND_IDS)
def test_value_below_its_least_raises_one_message(call, what, least):
    with pytest.raises(ValueError) as info:
        call(least - 1)
    assert str(info.value) == f"{what} must be >= {least}, got {least - 1}"


@pytest.mark.parametrize("call, what", [
    (lambda n: monomial_grid(n, 0), "rank"),
    (lambda n: basis_grid(n, 0), "kappa"),
], ids=["monomial_grid", "basis_grid"])
def test_negative_grid_rank_raises_one_message(call, what):
    # Checked before itertools.product, which refuses a negative repeat
    # with a message of its own.
    with pytest.raises(ValueError) as info:
        call(-1)
    assert str(info.value) == f"{what} must be >= 1, got -1"


@pytest.mark.parametrize("call, what, least", LOWER_BOUNDS, ids=LOWER_BOUND_IDS)
@pytest.mark.parametrize("bad", [1.0, "1"])
def test_non_integer_bounded_value_raises_type_error(call, what, least, bad):
    with pytest.raises(TypeError):
        call(bad)


class Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("call, what, least", LOWER_BOUNDS, ids=LOWER_BOUND_IDS)
def test_index_object_is_accepted_as_its_int(call, what, least):
    assert call(Index(least)) == call(least)


@pytest.mark.parametrize("call, error, message", [
    (lambda: GeneratorLetter("x", 0, 2), ValueError, "letter sign must be +1 or -1, got 2"),
    (lambda: CheckReport("relations", 0, "1", 0), TypeError, None),
    (lambda: random_words(0, "1", 1, 0), TypeError, None),
    (lambda: random_words(1, -1, 0, 0), ValueError, "count must be >= 0, got -1"),
    (lambda: monomial_grid(0, -1), ValueError, "the exponent bound must be >= 0, got -1"),
    (lambda: basis_grid(0, -1), ValueError, "the exponent bound must be >= 0, got -1"),
], ids=["GeneratorLetter", "CheckReport", "random_words-types", "random_words-values",
        "monomial_grid", "basis_grid"])
def test_the_first_checked_of_two_bad_arguments_is_reported(call, error, message):
    with pytest.raises(error) as info:
        call()
    if message is not None:
        assert str(info.value) == message


@pytest.mark.parametrize("command, flag, least", [
    (["eval", "--rep", "poly", "--word", "", "--elem", "1"], "--kappa", 1),
    (["check", "--suite", "relations"], "--kappa", 1),
    (["check", "--suite", "relations", "--kappa", "2"], "--max-exp", 0),
    (["check", "--suite", "intertwiner", "--kappa", "2"], "--num-words", 0),
    (["check", "--suite", "subrep", "--kappa", "2"], "--num-words", 1),
    (["check", "--suite", "relations", "--kappa", "2"], "--max-word-len", 1),
    (["check", "--suite", "relations", "--kappa", "2"], "--max-inputs", 1),
])
def test_cli_flag_below_its_least_exits_two_with_one_message(capsys, command, flag, least):
    assert main([*command, flag, str(least - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= {least}, got {least - 1}\n"


def test_check_at_least_returns_a_plain_int():
    assert check_at_least("kappa", Index(2), 1) == 2
    assert type(check_at_least("kappa", Index(2), 1)) is int
    assert type(check_at_least("count", True, 0)) is int
