"""The Y operators against facts that do not depend on how y_1 is built.

Cherednik's Y_1 Y_2 ... Y_kappa is central and acts as the q-shift, and
the Y_i commute.  Here, with q = c^2 and |n| the exponent sum of n:

* ``y1*y2*...*y{kappa}`` sends X^n to c^(2|n|) X^n in the polynomial
  representation, and (a^n, sigma) to c^(2|n|) (a^n, sigma) in the skein
  module at generic d;
* ``y_i y_j == y_j y_i`` in both modules.

The library builds every y_i from its y_1 chain and braid letters, and so
does the modular oracle of ``modp_oracle``, so a chain error that both
modules share passes that oracle but not these identities.  Three mutants
of ``act_y1`` check that they notice one.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

import pytest

from daha import (
    LaurentPoly, Permutation, SkeinElement, all_permutations, c_power, parse_word, polyrep, skein,
)
from daha.laurent import rotate_variables
from daha.skein import _rotate

MODULES = {"poly": polyrep, "skein": skein}


def polyrep_monomials(kappa: int) -> list[LaurentPoly]:
    bound = 2 if kappa <= 3 else 1
    return [LaurentPoly.monomial(kappa, exps)
            for exps in itertools.product(range(-bound, bound + 1), repeat=kappa)]


def skein_pairs(kappa: int) -> list[SkeinElement]:
    pairs = [SkeinElement.basis(kappa, exps, perm)
             for exps in itertools.product((-1, 0, 1), repeat=kappa)
             for perm in all_permutations(kappa)]
    return pairs if kappa <= 3 else random.Random(kappa).sample(pairs, 12)


INPUTS = {"poly": polyrep_monomials, "skein": skein_pairs}


def exponent_sum(v) -> int:
    (key,) = v.terms
    return sum(key if isinstance(v, LaurentPoly) else key[0])


def shift_failures(rep: str, kappa: int) -> Iterator:
    """The inputs on which the Y product is not the q-shift, lazily."""
    word = parse_word("*".join(f"y{i}" for i in range(1, kappa + 1)), kappa)
    return (v for v in INPUTS[rep](kappa)
            if MODULES[rep].act_word(word, v) != v.scale(c_power(2 * exponent_sum(v))))


def seeded_inputs(rep: str, kappa: int) -> list:
    """Three two-term elements with exponents in [-1, 1], from a fixed seed."""
    rng = random.Random(100 * kappa + len(rep))

    def exps():
        return tuple(rng.randint(-1, 1) for _ in range(kappa))

    if rep == "poly":
        return [LaurentPoly(kappa, [(exps(), 1), (exps(), rng.choice((-2, 3)))]) for _ in range(3)]
    perms = list(all_permutations(kappa))
    return [SkeinElement(kappa, [((exps(), rng.choice(perms)), 1),
                                 ((exps(), rng.choice(perms)), rng.choice((-2, 3)))])
            for _ in range(3)]


def commutation_failures(rep: str, kappa: int) -> Iterator:
    """The (i, j, input) cases with y_i y_j != y_j y_i, lazily."""
    act = MODULES[rep].act_word
    for i, j in itertools.combinations(range(1, kappa + 1), 2):
        ij, ji = parse_word(f"y{i}*y{j}", kappa), parse_word(f"y{j}*y{i}", kappa)
        yield from ((i, j, v) for v in seeded_inputs(rep, kappa) if act(ij, v) != act(ji, v))


@pytest.mark.parametrize("rep", MODULES)
@pytest.mark.parametrize("kappa", [2, 3, 4])
def test_y_product_is_the_q_shift(rep, kappa):
    assert list(shift_failures(rep, kappa)) == []


@pytest.mark.parametrize("rep", MODULES)
@pytest.mark.parametrize("kappa", [2, 3, 4])
def test_y_operators_commute(rep, kappa):
    assert list(commutation_failures(rep, kappa)) == []


# -- mutants of act_y1 ----------------------------------------------------------


def _plain_rotate(v):
    """The rotation without its c^(2 n_1) factor."""
    if isinstance(v, LaurentPoly):
        return LaurentPoly(v.rank, {e[1:] + e[:1]: c for e, c in v.terms.items()})
    return SkeinElement(v.kappa, {(e[1:] + e[:1], Permutation(p[1:] + p[:1])): c
                                  for (e, p), c in v.terms.items()})


def _mutant(rep: str, name: str | None):
    module = MODULES[rep]
    rotate = rotate_variables if rep == "poly" else _rotate
    letter = module.act_sigma_inv
    if name == "rotation_without_c2":
        rotate = _plain_rotate
    elif name == "sigma_for_sigma_inverse":
        letter = module.act_sigma

    def act_y1(v):
        chain = range(1, v.rank if rep == "poly" else v.kappa)
        v = rotate(v)
        for i in chain if name == "chain_in_wrong_order" else reversed(chain):
            v = letter(i, v)
        return v

    return act_y1


@pytest.mark.parametrize("rep", MODULES)
def test_unmutated_rebuild_of_y1_passes(monkeypatch, rep):
    """The mutants' scaffolding with no mutation passes, so a mutant fails
    for its mutation alone."""
    monkeypatch.setattr(MODULES[rep], "act_y1", _mutant(rep, None))
    assert list(shift_failures(rep, 3)) == list(commutation_failures(rep, 3)) == []


MUTANTS = {
    "rotation_without_c2": (shift_failures,),
    "chain_in_wrong_order": (shift_failures, commutation_failures),
    "sigma_for_sigma_inverse": (shift_failures, commutation_failures),
}


@pytest.mark.parametrize("rep", MODULES)
@pytest.mark.parametrize("name, checks", MUTANTS.items())
def test_mutants_of_y1_fail(monkeypatch, rep, name, checks):
    monkeypatch.setattr(MODULES[rep], "act_y1", _mutant(rep, name))
    for failures in checks:
        assert next(failures(rep, 3), None) is not None
