"""The d-gauge: at generic d the skein module is the d = s module with a unit
twist on y_1.

Let l(sigma) be the number of inversions of sigma, and let D be the
diagonal map

    D (a^n, sigma) = (d/s)^l(sigma) (a^n, sigma).

Let M be the skein action with the braid letters at d = s (``d_eq_s=True``)
and the y_1 rotation twisted: it sends (a^n, sigma) to its rotated pair
times ``c^(2 n_1) (d/s)^(k + 1 - 2 sigma(1))``, and the inverse rotation
sends (a^n, sigma) to its pair times ``c^(-2 n_k) (d/s)^-(k + 1 - 2 sigma(k))``.
Then every word w acts as ``act_word(w, v) == D^-1(M(w, D v))``.

Conjugating by D turns the two-case rule's ascent coefficient s^-1 into d^-1
and its descent coefficient s into d, and keeps hbar; the rotation changes
the length by ``k + 1 - 2 sigma(1)`` (Humphreys, *Reflection Groups and
Coxeter Groups*, ch. 7: rescaling T_w by a power of its length).  The skein
relation suite cannot see where d sits, since d -> d^-1 and d -> d^2 are
ring maps that keep every relation; this identity pins it at generic d.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from daha import Permutation, ScalarPoly, SkeinElement, skein
from daha.verify import basis_grid, random_words, single_generator_words
from daha.words import apply_word, apply_y1, apply_y1_inv


def inversions(perm: tuple[int, ...]) -> int:
    return sum(perm[a] > perm[b] for b in range(len(perm)) for a in range(b))


def d_over_s(n: int) -> ScalarPoly:
    """(d/s)^n."""
    return ScalarPoly.monomial(e_s=-n, e_d=n)


def gauge(v: SkeinElement, sign: int) -> SkeinElement:
    """D v for sign = 1, D^-1 v for sign = -1."""
    return SkeinElement(v.kappa, [((exps, perm), coeff * d_over_s(sign * inversions(perm)))
                                  for (exps, perm), coeff in v.terms.items()])


def twisted_rotate(v: SkeinElement) -> SkeinElement:
    k = v.kappa
    return SkeinElement(k, [
        ((exps[1:] + exps[:1], Permutation(perm[1:] + perm[:1])),
         coeff * ScalarPoly.monomial(e_c=2 * exps[0]) * d_over_s(k + 1 - 2 * perm[0]))
        for (exps, perm), coeff in v.terms.items()
    ])


def twisted_rotate_inverse(v: SkeinElement) -> SkeinElement:
    k = v.kappa
    return SkeinElement(k, [
        ((exps[-1:] + exps[:-1], Permutation(perm[-1:] + perm[:-1])),
         coeff * ScalarPoly.monomial(e_c=-2 * exps[-1]) * d_over_s(-(k + 1 - 2 * perm[-1])))
        for (exps, perm), coeff in v.terms.items()
    ])


_SIGMA = partial(skein.act_sigma, d_eq_s=True)
_SIGMA_INV = partial(skein.act_sigma_inv, d_eq_s=True)
GAUGED_ACTIONS = (
    skein.act_x, _SIGMA, _SIGMA_INV,
    lambda v: apply_y1(v, twisted_rotate, _SIGMA_INV),
    lambda v: apply_y1_inv(v, twisted_rotate_inverse, _SIGMA),
)


def cases(kappa: int) -> list[tuple]:
    """The single generators and 30 seeded words of length <= 4, on every
    bound-1 basis pair at kappa 2 and on 20 sampled ones at kappa 3."""
    pairs = basis_grid(kappa, 1)
    if kappa > 2:
        pairs = random.Random(kappa).sample(pairs, 20)
    words = single_generator_words(kappa) + random_words(kappa, 30, 4, seed=kappa)
    return [(w, v) for w in words for v in pairs]


def gauge_failures(kappa: int) -> list[tuple]:
    """The (word, pair) cases where ``act_word(w, v) != D^-1(M(w, D v))``."""
    return [(str(w), str(v)) for w, v in cases(kappa)
            if skein.act_word(w, v) != gauge(apply_word(w, gauge(v, 1), GAUGED_ACTIONS), -1)]


@pytest.mark.parametrize("kappa", [2, 3])
def test_the_skein_action_is_the_gauged_d_eq_s_action(kappa):
    assert gauge_failures(kappa) == []


def test_inversions_and_the_gauge_on_a_worked_case():
    assert [inversions(p) for p in [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)]] == [0, 1, 2, 3]
    v = SkeinElement.basis(3, (1, 0, -1), Permutation((3, 1, 2)))
    assert gauge(v, 1) == v.scale(ScalarPoly.monomial(e_s=-2, e_d=2))
    assert gauge(gauge(v, 1), -1) == v


@pytest.mark.parametrize("d, d_inv", [
    (skein._D_INV, skein._D),
    (ScalarPoly.monomial(e_d=2), ScalarPoly.monomial(e_d=-2)),
], ids=["d_and_d_inverse_swapped", "d_squared"])
def test_mutants_of_the_two_case_rule_fail(monkeypatch, d, d_inv):
    monkeypatch.setattr(skein, "_D", d)
    monkeypatch.setattr(skein, "_D_INV", d_inv)
    assert gauge_failures(2) != []
