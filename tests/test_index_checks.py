"""Every 1-based index range check of the library goes through
:func:`daha.errors.check_index`, and every caller reports it the same way:
``IndexError("<what> <i> out of range 1..<most>")`` for an integer outside
the range, :class:`TypeError` for a non-integer."""

from __future__ import annotations

import pytest

from daha import LaurentPoly, Permutation, SkeinElement, expand_x, expand_y, polyrep, skein
from daha.errors import check_index
from daha.laurent import adjacent_ratio, exact_divide, swap_variables

KAPPA = 3

# (caller, what, most): each of the library's index checks, at kappa 3,
# through every public function that states it.
CHECKS = [
    (lambda i: swap_variables(LaurentPoly.one(KAPPA), i), "adjacent-pair index", KAPPA - 1),
    (lambda i: exact_divide(LaurentPoly.zero(KAPPA), i), "adjacent-pair index", KAPPA - 1),
    (lambda i: adjacent_ratio(KAPPA, i), "adjacent-pair index", KAPPA - 1),
    (lambda i: polyrep.act_sigma(i, LaurentPoly.one(KAPPA)), "adjacent-pair index", KAPPA - 1),
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
