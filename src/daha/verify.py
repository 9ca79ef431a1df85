"""Verification suites: relation checks, the intertwining identity, and the
symmetrized-subspace closure.

The three checks are finite, exact (zero-tolerance) test suites:

* :func:`check_relations` -- the nine defining relations as operator
  identities, in either representation, on a grid of inputs;
* :func:`check_intertwiner` -- symmetrize(poly action) equals the skein
  action at d = s of the same word on the symmetrized input.
  The left side is never built for a passing case:
  :func:`is_symmetrization` compares the skein side with the polynomial
  image term by term, and symmetrize(image) is built only as the
  counterexample's left side;
* :func:`check_subrep_closure` -- the skein action at d = s maps symmetrized
  elements back into the symmetrized subspace.  An image lies there exactly
  when it is the symmetrization of the polynomial that takes one of its
  coefficients at each of its exponent vectors, so
  :func:`is_symmetrization` decides membership too.

Each check walks every case, never stops early, counts failures, and keeps
the first counterexample, so a systematic error is visible in full.  Words
and inputs may be any iterables.  Before any case runs, a word (relation
sides included) or input of another rank than the check's kappa raises
:class:`~daha.errors.RankMismatchError`, and an input of the other module,
or a seed that is neither ``None`` nor an integer, :class:`TypeError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from operator import index
from typing import Iterable

from . import polyrep
from . import skein as skein_mod
from .errors import RankMismatchError, check_at_least, reduce_through_constructor
from .laurent import LaurentPoly
from .scalars import s_power
from .skein import SkeinElement, all_permutations, is_symmetrization, symmetrize
from .words import _KINDS, GeneratorLetter, GeneratorWord, RelationPair, _max_index, relation_table


@dataclass(frozen=True)
class Counterexample:
    word: str
    input: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check suite: case/failure counts plus the first
    counterexample, if any.  Integer fields pass through ``operator.index``,
    and kappa must be at least 1."""

    label: str
    kappa: int
    cases: int
    failures: int
    seed: int | None = None
    counterexample: Counterexample | None = None

    def __post_init__(self):
        for name in ("kappa", "cases", "failures"):
            object.__setattr__(self, name, index(getattr(self, name)))
        check_at_least("kappa", self.kappa, 1)
        if self.seed is not None:
            object.__setattr__(self, "seed", index(self.seed))
        if not isinstance(self.counterexample, (Counterexample, type(None))):
            raise TypeError(f"counterexample must be a Counterexample or None, "
                            f"got {type(self.counterexample).__name__}")
        if not 0 <= self.failures <= self.cases:
            raise ValueError(f"failures must lie in 0..cases, got {self.failures} of {self.cases}")
        if (self.failures == 0) != (self.counterexample is None):
            raise ValueError("failures == 0 must coincide with the absence of a counterexample")

    __reduce__ = reduce_through_constructor

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Tally:
    """Mutable failure accumulator used while a suite runs."""

    def __init__(self):
        self.cases = 0
        self.failures = 0
        self.first: Counterexample | None = None

    def record(self, ok: bool, word: str, value, lhs, rhs) -> None:
        self.cases += 1
        if ok:
            return
        self.failures += 1
        if self.first is None:
            self.first = Counterexample(word, str(value), str(lhs), str(rhs))

    def report(self, label: str, kappa: int, seed: int | None = None) -> CheckReport:
        return CheckReport(label, kappa, self.cases, self.failures, seed, self.first)


# -- input suites ----------------------------------------------------------------


def _exponent_box(rank_name: str, rank: int, bound: int) -> Iterable[tuple[int, ...]]:
    """The exponent vectors of length rank (rank >= 1, called ``rank_name`` in
    its error) with entries in [-bound, bound] (bound >= 0).  The bound is
    checked first."""
    bound = check_at_least("the exponent bound", bound, 0)
    rank = check_at_least(rank_name, rank, 1)
    return product(range(-bound, bound + 1), repeat=rank)


def monomial_grid(rank: int, bound: int) -> list[LaurentPoly]:
    """All monomials with exponents in [-bound, bound] (bound >= 0), in a fixed order."""
    return [LaurentPoly.monomial(rank, exps) for exps in _exponent_box("rank", rank, bound)]


def basis_grid(kappa: int, bound: int) -> list[SkeinElement]:
    """All basis pairs with exponents in [-bound, bound] (bound >= 0), all permutations."""
    return [
        SkeinElement.basis(kappa, exps, perm)
        for exps in _exponent_box("kappa", kappa, bound)
        for perm in all_permutations(kappa)
    ]


def _generator_letters(kappa: int) -> list[GeneratorLetter]:
    """Every generator and derived loop generator letter, each sign in turn:
    the braid letters s_i, then the loop letters x_i, then y_i."""
    kappa = check_at_least("kappa", kappa, 1)
    return [GeneratorLetter(kind, i, sign)
            for kind in _KINDS for i in range(1, _max_index(kind, kappa) + 1) for sign in (1, -1)]


def default_alphabet(kappa: int) -> list[GeneratorLetter]:
    """Single letters used in random words: all braid letters, all loop
    letters x_i, and y_1, with both signs."""
    return [letter for letter in _generator_letters(kappa) if letter.kind != "y" or letter.index == 1]


def single_generator_words(kappa: int) -> list[GeneratorWord]:
    """Every generator and derived loop generator, with both signs."""
    return [GeneratorWord(kappa, [letter]) for letter in _generator_letters(kappa)]


def random_words(kappa: int, count: int, max_len: int, seed: int) -> list[GeneratorWord]:
    """``count`` seeded words of 1..max_len letters drawn from :func:`default_alphabet`.
    The integers pass through ``operator.index``, so a non-integer raises ``TypeError``,
    and kappa < 1, count < 0 or max_len < 1 raise ``ValueError``."""
    kappa, count, max_len = index(kappa), index(count), index(max_len)
    for name, value, least in (("kappa", kappa, 1), ("count", count, 0), ("max_len", max_len, 1)):
        check_at_least(name, value, least)
    rng = random.Random(seed)
    alphabet = default_alphabet(kappa)
    return [
        GeneratorWord(kappa, [rng.choice(alphabet) for _ in range(rng.randint(1, max_len))])
        for _ in range(count)
    ]


# -- checks ----------------------------------------------------------------------


def _apply_side(side, value, act):
    result = None
    for coeff, word in side:
        term = act(word, value).scale(coeff)
        result = term if result is None else result + term
    return result


def _check_inputs(kappa: int, cls: type, values: Iterable, words: Iterable = ()) -> tuple[list, list]:
    """List ``values`` and ``words`` once, check them and return both lists.
    So that a report never names a kappa it did not check, this raises
    :class:`RankMismatchError` at the first word of another kappa, then,
    input by input, :class:`TypeError` for a class other than ``cls`` and
    :class:`RankMismatchError` for another rank."""
    values, words = list(values), list(words)
    for word in words:
        if word.kappa != kappa:
            raise RankMismatchError(f"word kappa {word.kappa} does not match kappa {kappa}")
    for value in values:
        if not isinstance(value, cls):
            raise TypeError(f"expected a {cls.__name__} input, got {type(value).__name__}")
        if value._rank != kappa:
            raise RankMismatchError(f"input rank {value._rank} does not match kappa {kappa}")
    return values, words


def check_relations(
    kappa: int,
    rep: str,
    inputs: Iterable,
    relations: Iterable[RelationPair] | None = None,
) -> list[CheckReport]:
    """Evaluate both sides of every defining relation on every input through
    the chosen representation ('poly' or 'skein'); exact comparison.
    Inputs and relations may be any iterables, and every word of both sides
    is checked before any case runs.  ``None`` checks the full table; no
    relations raise ``ValueError``, as no reports would read as a pass."""
    if rep not in ("poly", "skein"):
        raise ValueError(f"unknown representation {rep!r}; expected 'poly' or 'skein'")
    act, cls = (polyrep.act_word, LaurentPoly) if rep == "poly" else (skein_mod.act_word, SkeinElement)
    relations = relation_table(kappa) if relations is None else list(relations)
    if not relations:
        raise ValueError("check_relations needs at least one relation (None checks the full table)")
    inputs, _ = _check_inputs(kappa, cls, inputs, (
        word for relation in relations for side in (relation.lhs, relation.rhs) for _, word in side))
    reports = []
    for relation in relations:
        tally = _Tally()
        for value in inputs:
            lhs = _apply_side(relation.lhs, value, act)
            rhs = _apply_side(relation.rhs, value, act)
            tally.record(lhs == rhs, relation.label, value, lhs, rhs)
        reports.append(tally.report(f"{rep}:{relation.label}", kappa))
    return reports


def check_intertwiner(
    kappa: int,
    words: Iterable[GeneratorWord],
    monomials: Iterable[LaurentPoly],
    seed: int | None = None,
) -> CheckReport:
    """Check symmetrize(word . f) == (word . symmetrize(f)) at d = s.

    Each case decides the equality with :func:`is_symmetrization`, without
    the kappa!-fold copy of the polynomial image.  A failing case builds
    symmetrize(word . f) for its report, so the counterexample, and any
    error symmetrize raises, are those of the plain comparison.  Words and
    monomials may be any iterables; no words or no monomials raise
    ``ValueError``, since no case would run.  ``seed`` is only echoed in
    the report; it passes through ``operator.index`` before any case runs.
    """
    seed = None if seed is None else index(seed)
    monomials, words = _check_inputs(kappa, LaurentPoly, monomials, words)
    if not words or not monomials:
        raise ValueError("check_intertwiner needs at least one word and one monomial")
    tally = _Tally()
    for word in words:
        for f in monomials:
            image = polyrep.act_word(word, f)
            rhs = skein_mod.act_word(word, symmetrize(f), d_eq_s=True)
            ok = is_symmetrization(rhs, image)
            tally.record(ok, str(word), f, None if ok else symmetrize(image), rhs)
    return tally.report("intertwiner", kappa, seed)


def check_subrep_closure(
    kappa: int,
    words: Iterable[GeneratorWord],
    monomials: Iterable[LaurentPoly],
    seed: int | None = None,
) -> CheckReport:
    """Check that the d = s skein action keeps symmetrized elements inside
    the symmetrized subspace: each image must be the symmetrization
    (:func:`is_symmetrization`) of the polynomial g that holds one of its
    coefficients at each of its exponent vectors.  The i-th word acts on the
    i-th monomial.  Words and monomials may be any iterables, checked before
    any case runs, and they must have the same nonzero length.  ``seed``, as
    in :func:`check_intertwiner`, passes through ``operator.index`` first."""
    seed = None if seed is None else index(seed)
    monomials, words = _check_inputs(kappa, LaurentPoly, monomials, words)
    if len(words) != len(monomials):
        raise ValueError(
            f"{len(words)} words but {len(monomials)} monomials; the subrep check pairs them")
    if not words:
        raise ValueError("check_subrep_closure needs at least one (word, monomial) pair")
    tally = _Tally()
    for word, f in zip(words, monomials):
        image = skein_mod.act_word(word, symmetrize(f), d_eq_s=True)
        g = LaurentPoly(kappa, {exps: c for (exps, _), c in image.terms.items()})
        tally.record(is_symmetrization(image, g), str(word), f, image, "<permutation-uniform>")
    return tally.report("subrep", kappa, seed)


def check_averaging_eigenvalue(kappa: int) -> CheckReport:
    """For every permutation and braid index, s_i applied to
    (1, sigma) + (1, t_i sigma) equals s times that sum once d = s.  Below
    kappa 2 there is no braid letter, so ``ValueError`` is raised."""
    kappa = index(kappa)
    if kappa < 2:
        raise ValueError(f"the averaging eigenvalue check needs kappa >= 2, got {kappa}")
    tally = _Tally()
    zero_exps = (0,) * kappa
    for perm in all_permutations(kappa):
        for i in range(1, kappa):
            pair = SkeinElement.basis(kappa, zero_exps, perm) + SkeinElement.basis(
                kappa, zero_exps, perm.precompose_swap(i)
            )
            lhs = skein_mod.act_sigma(i, pair, d_eq_s=True)
            rhs = pair.scale(s_power(1))
            tally.record(lhs == rhs, f"s{i}", pair, lhs, rhs)
    return tally.report("averaging-eigenvalue", kappa)
