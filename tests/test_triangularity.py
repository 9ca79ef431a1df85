"""Cherednik's triangularity of every y_i^±1 in the polynomial representation.

Let lam be an exponent vector on k variables, and let

    r_i(lam) = #{j : lam_j < lam_i} + #{j <= i : lam_j = lam_i}.

Then (Cherednik 1995; Macdonald, *Affine Hecke Algebras and Orthogonal
Polynomials*, 2003) ``y_i^±1 X^lam`` has the diagonal coefficient
``c^(±2 lam_i) s^(±(2 r_i(lam) - k - 1))`` at X^lam, and every X^mu in it
has mu+ <= lam+ in dominance order: the same sum, and each partial sum of
mu sorted in decreasing order at most that of lam.

The rank, the diagonal entry and the order are computed here from these
formulas alone, with no action code.  The Macdonald ``D^1`` oracle sees only
the sum of the y_i on symmetric inputs and the tests of
``test_y_operators`` only relations among them, so this is the one check of
each single y_i^±1 that does not run through another module.  Four mutants
of the y chain must fail it.
"""

from __future__ import annotations

from itertools import accumulate, product

import pytest

from daha import LaurentPoly, ScalarPoly, parse_word, polyrep, words
from test_y_operators import _mutant

# The exponent bound of each kappa's grid: every lam with parts in [-b, b].
BOUNDS = {2: 3, 3: 2, 4: 1, 5: 1}


def rank(lam: tuple[int, ...], i: int) -> int:
    """r_i(lam), with i 1-based."""
    own = lam[i - 1]
    return sum(part < own for part in lam) + sum(part == own for part in lam[:i])


def diagonal(lam: tuple[int, ...], i: int, sign: int) -> ScalarPoly:
    """The coefficient of X^lam in y_i^sign X^lam."""
    return ScalarPoly.monomial(e_s=sign * (2 * rank(lam, i) - len(lam) - 1),
                               e_c=sign * 2 * lam[i - 1])


def dominated(mu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """Whether mu+ <= lam+ in dominance order."""
    mu_sums = list(accumulate(sorted(mu, reverse=True)))
    lam_sums = list(accumulate(sorted(lam, reverse=True)))
    return mu_sums[-1] == lam_sums[-1] and all(m <= l for m, l in zip(mu_sums, lam_sums))


def triangularity_failures(kappa: int, bound: int) -> list[tuple]:
    """The (lam, i, sign) cases on the grid [-bound, bound]^kappa where
    y_i^sign X^lam has a wrong diagonal entry or a term above lam+."""
    failures = []
    for i, sign in product(range(1, kappa + 1), (1, -1)):
        word = parse_word(f"y{i}^{sign}", kappa)
        for lam in product(range(-bound, bound + 1), repeat=kappa):
            image = polyrep.act_word(word, LaurentPoly.monomial(kappa, lam)).terms
            if image.get(lam) != diagonal(lam, i, sign) or not all(
                    dominated(mu, lam) for mu in image):
                failures.append((lam, i, sign))
    return failures


@pytest.mark.parametrize("kappa", sorted(BOUNDS))
def test_every_y_letter_is_triangular(kappa):
    assert triangularity_failures(kappa, BOUNDS[kappa]) == []


def test_the_formulas_on_a_worked_case():
    # lam = (1, 0, 1): r_1 = 1 + 1 = 2, r_2 = 0 + 1 = 1, r_3 = 1 + 2 = 3.
    lam = (1, 0, 1)
    assert [rank(lam, i) for i in (1, 2, 3)] == [2, 1, 3]
    assert diagonal(lam, 3, -1) == ScalarPoly.monomial(e_s=-2, e_c=-2)
    assert dominated((0, 2, 0), (1, 1, 0)) is False
    assert dominated((1, 0, 1), (0, 2, 0)) is True
    assert dominated((1, 1, 1), (0, 2, 0)) is False


def _expand_y_conjugating_by_inverse(i: int, kappa: int):
    """y_i as y_1 conjugated by s^-1 in place of s: expand_y with every s_j inverted."""
    loop = words._expand_loop("y", i, kappa)
    return words.GeneratorWord(kappa, [l.inverse() if l.kind == "s" else l for l in loop.letters])


@pytest.mark.parametrize("name", [
    "rotation_without_c2", "chain_in_wrong_order", "sigma_for_sigma_inverse", "expand_y",
])
def test_mutants_of_the_y_chain_fail(monkeypatch, name):
    if name == "expand_y":
        monkeypatch.setattr(words, "expand_y", _expand_y_conjugating_by_inverse)
    else:
        monkeypatch.setattr(polyrep, "act_y1", _mutant("poly", name))
    assert triangularity_failures(3, 1) != []
