"""Slow oracle for the braid push-through: one monomial letter at a time.

The library computes ``s_i a^n = f s_i + g`` in closed form through the
divided difference :func:`daha.laurent.braid_kernel`.  The tests compare it
against two independent computations built only from the single-letter
commutation rules

    s_i x_i        = x_{i+1} s_i    - hbar x_{i+1}
    s_i x_{i+1}    = x_i s_i        + hbar x_{i+1}
    s_i x_i^-1     = x_{i+1}^-1 s_i + hbar x_i^-1
    s_i x_{i+1}^-1 = x_i^-1 s_i     - hbar x_i^-1
    s_i x_j^±1     = x_j^±1 s_i                        (j != i, i+1)

* :func:`push_by_letters` moves s_i right through the letter factorization of
  the monomial and returns the pair (f, g); its cost grows with the square
  of the monomial's degree.
* :func:`sigma_letter_by_letter` applies s_i to a basis pair through the
  module structure (peel one letter, commute, recurse) without ever forming
  the pair (f, g).
* :func:`sigma_termwise` applies s_i to a whole element one basis term at a
  time, pushing each term's monomial with :func:`push_by_letters` and
  spelling every product out as a sum of basis pairs: no grouping by
  exponent vector and no ``multiply_by_a_poly``.

Both accept any factorization order of the monomial; the result must not
depend on it.
"""

from __future__ import annotations

from typing import Sequence

from daha import LaurentPoly, Permutation, SkeinElement, hbar
from daha.skein import act_sigma_base

_POS, _NEG = 1, -1


def letter_rule(i: int, j: int, sign: int, kappa: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The pair (A, B) with s_i x_j^sign = A s_i + B, as a-polynomials."""
    var = LaurentPoly.variable
    h = hbar()
    if j == i and sign == _POS:
        return var(kappa, i + 1), var(kappa, i + 1).scale(-h)
    if j == i + 1 and sign == _POS:
        return var(kappa, i), var(kappa, i + 1).scale(h)
    if j == i and sign == _NEG:
        return var(kappa, i + 1, -1), var(kappa, i, -1).scale(h)
    if j == i + 1 and sign == _NEG:
        return var(kappa, i, -1), var(kappa, i, -1).scale(-h)
    return var(kappa, j, sign), LaurentPoly.zero(kappa)


def monomial_letters(
    exps: Sequence[int], variable_order: Sequence[int] | None = None
) -> list[tuple[int, int]]:
    """Factor an a-monomial into single letters (variable index, ±1).

    The default order is a_1^{n_1} ... a_kappa^{n_kappa} left to right; a
    different variable order yields the same algebra element.
    """
    kappa = len(exps)
    order = range(1, kappa + 1) if variable_order is None else variable_order
    if sorted(order) != list(range(1, kappa + 1)):
        raise ValueError(f"variable_order must be a permutation of 1..{kappa}, got {variable_order}")
    letters: list[tuple[int, int]] = []
    for j in order:
        e = exps[j - 1]
        sign = _POS if e > 0 else _NEG
        letters.extend((j, sign) for _ in range(abs(e)))
    return letters


def push_by_letters(
    i: int, exps: Sequence[int], variable_order: Sequence[int] | None = None
) -> tuple[LaurentPoly, LaurentPoly]:
    """Rewrite s_i * a^exps as f * s_i + g by moving s_i right one letter
    at a time."""
    kappa = len(exps)
    if not 1 <= i <= kappa - 1:
        raise IndexError(f"braid index {i} out of range for kappa {kappa}")
    f = LaurentPoly.one(kappa)
    g = LaurentPoly.zero(kappa)
    for j, sign in monomial_letters(exps, variable_order):
        a_part, b_part = letter_rule(i, j, sign, kappa)
        letter_monomial = LaurentPoly.variable(kappa, j, sign)
        g = f * b_part + g * letter_monomial
        f = f * a_part
    return f, g


def sigma_letter_by_letter(i: int, letters, perm: Permutation) -> SkeinElement:
    """s_i . (letters . (1, perm)) computed recursively, one loop letter at a
    time, without assembling the pushed pair."""
    kappa = len(perm)
    if not letters:
        return act_sigma_base(i, perm)
    (j, sign), rest = letters[0], letters[1:]
    inner = sigma_letter_by_letter(i, rest, perm)
    a_part, b_part = letter_rule(i, j, sign, kappa)
    rest_exps = [0] * kappa
    for k, s in rest:
        rest_exps[k - 1] += s
    rest_element = SkeinElement.basis(kappa, rest_exps, perm)
    return inner.multiply_by_a_poly(a_part) + rest_element.multiply_by_a_poly(b_part)


def sigma_termwise(i: int, v: SkeinElement) -> SkeinElement:
    """s_i . v as the sum over the terms c (a^n, sigma) of v of
    c * (f * s_i(1, sigma) + g * (1, sigma)), with (f, g) from
    :func:`push_by_letters`."""
    kappa = v.kappa
    result = SkeinElement.zero(kappa)
    for (exps, perm), coeff in v.terms.items():
        f, g = push_by_letters(i, exps)
        for poly, base in ((f, act_sigma_base(i, perm)), (g, SkeinElement.basis(kappa, (0,) * kappa, perm))):
            for a_exps, a_coeff in poly.terms.items():
                for (_, base_perm), base_coeff in base.terms.items():
                    term = SkeinElement.basis(kappa, a_exps, base_perm, coeff * a_coeff * base_coeff)
                    result = result + term
    return result
