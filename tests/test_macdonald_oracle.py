"""The Y operators against Macdonald's D^1 (``macdonald_oracle``).

For every symmetric monomial m_lam of the inputs below::

    V * s^(kappa-1) (y_1 + ... + y_kappa) m_lam == V * D^1 m_lam

with V the Vandermonde product.  The left side runs the library's actions;
the right side is built from the formula with Laurent arithmetic alone.  In
the skein module the left side is taken on symmetrize(m_lam) at d = s and
compared with the symmetrization of the right side.  The three mutants of
``act_y1`` from ``test_y_operators`` fail the identity at kappa 3.
"""

from __future__ import annotations

import random
from typing import Iterator

import pytest

from daha import parse_word, polyrep, s_power, skein
from daha.skein import is_symmetrization, symmetrize

from macdonald_oracle import macdonald_side, symmetric_monomials, vandermonde
from test_y_operators import MUTANTS, _mutant

MONOMIALS = {
    2: symmetric_monomials(2, 2),
    3: symmetric_monomials(3, 2),
    4: symmetric_monomials(4, 1),
    5: random.Random(5).sample(symmetric_monomials(5, 1), 8),
}


def y_sum(module, kappa: int, v):
    """s^(kappa-1) (y_1 + ... + y_kappa) v through the module's word action."""
    images = [module.act_word(parse_word(f"y{i}", kappa), v) for i in range(1, kappa + 1)]
    return sum(images[1:], images[0]).scale(s_power(kappa - 1))


def poly_failures(kappa: int) -> Iterator:
    """The m_lam on which the polynomial representation misses D^1, lazily."""
    v = vandermonde(kappa)
    return (m for m in MONOMIALS[kappa] if y_sum(polyrep, kappa, m) * v != macdonald_side(m))


def skein_failures(kappa: int) -> Iterator:
    """The m_lam on which the skein module at d = s misses D^1, lazily."""
    v = vandermonde(kappa)
    return (m for m in MONOMIALS[kappa]
            if not is_symmetrization(
                y_sum(skein, kappa, symmetrize(m)).substitute_d_eq_s().multiply_by_a_poly(v),
                macdonald_side(m)))


def test_inputs_are_the_symmetric_monomials():
    assert [len(MONOMIALS[kappa]) for kappa in (2, 3, 4)] == [15, 35, 15]
    assert len(symmetric_monomials(5, 1)) == 21
    assert str(symmetric_monomials(2, 1)[1]) == "X1 + X2"


@pytest.mark.parametrize("kappa", [2, 3, 4, 5])
def test_polyrep_y_sum_is_macdonald_d1(kappa):
    assert list(poly_failures(kappa)) == []


@pytest.mark.parametrize("kappa", [2, 3])
def test_skein_y_sum_is_macdonald_d1(kappa):
    assert list(skein_failures(kappa)) == []


@pytest.mark.parametrize("name", [None, *MUTANTS])
@pytest.mark.parametrize("rep, failures", [("poly", poly_failures), ("skein", skein_failures)])
def test_mutants_of_y1_miss_macdonald_d1(monkeypatch, name, rep, failures):
    """Each mutant fails at kappa 3; the mutants' scaffolding without a
    mutation passes, so a mutant fails for its mutation alone."""
    module = polyrep if rep == "poly" else skein
    monkeypatch.setattr(module, "act_y1", _mutant(rep, name))
    assert (next(failures(3), None) is None) == (name is None)
